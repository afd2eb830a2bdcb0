#pragma once

// The shared `preset[:key=value,...]` flag vocabulary. One grammar serves
// every model-selection flag — `--progress`, `--exec` — so a
// spec printed by one tool's describe()/spec() round-trips through any
// other tool's parser. Keeping the splitter here (and the validation in
// each model) lets models keep their own error types and option names.

#include <string>
#include <utility>
#include <vector>

namespace mpisect::support {

/// A decomposed `preset[:key=value,...]` string. Options keep flag order;
/// values stay raw strings so each model applies its own conversion rules.
struct SpecParts {
  std::string preset;
  std::vector<std::pair<std::string, std::string>> options;
};

/// Split `text` into preset + options. Throws std::invalid_argument when an
/// option item is not of the form key=value (empty key or value included).
[[nodiscard]] SpecParts parse_spec(const std::string& text);

/// Parse a spec option value as a non-negative double. Throws
/// std::invalid_argument when the value does not fully parse or is negative.
[[nodiscard]] double spec_number(const std::string& value);

/// Parse a spec option value as a non-negative integer (int range). Throws
/// std::invalid_argument on garbage, fractions, or negatives.
[[nodiscard]] int spec_int(const std::string& value);

/// Read environment variable `name` as an integer in [1, max]. Returns 0
/// when it is unset; a value that is not an integer in that range is
/// ignored with a warning and also reads as 0. Every numeric knob taken
/// from the environment goes through here, so none can ask for an
/// unbounded number of threads or bytes.
[[nodiscard]] int env_int(const char* name, int max);

/// %g keeps canonical specs short (5e-08, 0.05) and round-trippable
/// through strtod for every value a user can express on the flag.
[[nodiscard]] std::string spec_value(double v);

}  // namespace mpisect::support
