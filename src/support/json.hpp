// Minimal recursive-descent JSON reader for test assertions and
// tool-output round-trips (mpisect emits JSON in several places — checker
// findings, analyzer reports, telemetry timelines — and the schema tests
// parse those documents back rather than regex-matching them).
//
// Deliberately small: full JSON value model (object/array/string/number/
// bool/null), UTF-8 passthrough (no surrogate handling beyond \uXXXX
// basic-plane escapes), doubles only. Not a streaming parser; documents
// here are kilobytes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mpisect::support {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion order is not preserved; schema tests key by name.
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind == Kind::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::Object;
  }

  /// Object member access; returns nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
};

/// Deepest nesting of objects and arrays json_parse accepts.
inline constexpr std::size_t kJsonMaxDepth = 256;

/// Parse one JSON document (must consume all non-whitespace input).
/// Throws std::runtime_error with position info on malformed input,
/// including nesting deeper than kJsonMaxDepth.
[[nodiscard]] JsonValue json_parse(std::string_view text);

}  // namespace mpisect::support
