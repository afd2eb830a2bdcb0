#include "support/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace mpisect::support {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string format(const char* f, ...) {
  va_list ap;
  va_start(ap, f);
  va_list again;
  va_copy(again, ap);
  char buf[256];  // the common case: one pass
  const int n = std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  std::string out(buf, static_cast<std::size_t>(std::clamp(n, 0, 255)));
  if (n > 255) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, f, again);
  }
  va_end(again);
  return out;
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_auto(double v) {
  char buf[64];
  const double a = std::fabs(v);
  if (v == 0.0) return "0";
  if (a >= 1e6 || a < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2e", v);
  } else if (a >= 100.0) {
    std::snprintf(buf, sizeof buf, "%.2f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  }
  return buf;
}

std::string fmt_bytes(double bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[64];
  if (u == 0) {
    std::snprintf(buf, sizeof buf, "%.0f %s", bytes, kUnits[u]);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f %s", bytes, kUnits[u]);
  }
  return buf;
}

std::string fmt_seconds(double s) {
  char buf[64];
  const double a = std::fabs(s);
  if (a >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.3f s", s);
  } else if (a >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3f ms", s * 1e3);
  } else if (a >= 1e-6) {
    std::snprintf(buf, sizeof buf, "%.3f us", s * 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f ns", s * 1e9);
  }
  return buf;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string pad_right(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace mpisect::support
