#include "support/csv.hpp"

#include <stdexcept>

#include "support/file.hpp"
#include "support/strings.hpp"

namespace mpisect::support {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : columns_(header.size()), body_(join(header, ",") + "\n") {}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  if (cells.size() != columns_) {
    throw std::invalid_argument("CsvWriter row arity mismatch");
  }
  body_ += join(cells, ",") + "\n";
}

void CsvWriter::add_row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(fmt_auto(v));
  add_row(cells);
}

std::string CsvWriter::str() const { return body_; }

bool CsvWriter::save(const std::string& path) const {
  return write_file_atomic(path, body_);
}

std::vector<std::vector<std::string>> parse_csv(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& line : split(text, '\n')) {
    if (trim(line).empty()) continue;
    rows.push_back(split(line, ','));
  }
  return rows;
}

}  // namespace mpisect::support
