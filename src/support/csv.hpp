// Minimal CSV writer/reader used to persist bench series for EXPERIMENTS.md.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mpisect::support {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);
  void add_row(const std::vector<std::string>& cells);
  void add_row(const std::vector<double>& values);
  /// Serialize to a string (header + rows).
  [[nodiscard]] std::string str() const;

 private:
  std::size_t columns_;
  std::string body_;
};

/// Parse a CSV string into rows of cells (no quoting support; the writer
/// never emits commas inside cells).
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(
    std::string_view text);

}  // namespace mpisect::support
