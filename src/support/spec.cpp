#include "support/spec.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "support/log.hpp"

namespace mpisect::support {

SpecParts parse_spec(const std::string& text) {
  SpecParts parts;
  const std::size_t colon = text.find(':');
  parts.preset = text.substr(0, colon);
  if (colon == std::string::npos) return parts;
  std::string rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string item = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      throw std::invalid_argument("spec option is not key=value: " + text);
    }
    parts.options.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return parts;
}

double spec_number(const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || value.empty() || v < 0.0) {
    throw std::invalid_argument("spec value is not a non-negative number: " +
                                value);
  }
  return v;
}

int spec_int(const std::string& value) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value.empty() || v < 0 ||
      v > 0x7fffffff) {
    throw std::invalid_argument("spec value is not a non-negative integer: " +
                                value);
  }
  return static_cast<int>(v);
}

int env_int(const char* name, int max) {
  const char* env = std::getenv(name);
  if (env == nullptr) return 0;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v < 1 || v > max) {
    MPISECT_LOG_WARN("ignoring %s=%s: expected an integer in [1, %d]", name,
                     env, max);
    return 0;
  }
  return static_cast<int>(v);
}

std::string spec_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace mpisect::support
