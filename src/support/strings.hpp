// Small string helpers shared by table/CSV/CLI code.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mpisect::support {

[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;
[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] bool starts_with(std::string_view s,
                               std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view s,
                             std::string_view suffix) noexcept;

/// printf into a string sized to the result: never truncates, so outside
/// input (trace labels) of any length comes through whole.
[[nodiscard]] __attribute__((format(printf, 1, 2))) std::string format(
    const char* f, ...);

/// printf-like float formatting with fixed precision.
[[nodiscard]] std::string fmt_double(double v, int precision = 2);
/// Humanized formatting: picks precision by magnitude (1234.5 -> "1234.50",
/// 0.000123 -> "1.23e-04").
[[nodiscard]] std::string fmt_auto(double v);
/// Byte counts: "1.5 KiB", "3.2 MiB", ...
[[nodiscard]] std::string fmt_bytes(double bytes);
/// Seconds: "312 ns", "4.5 ms", "12.3 s".
[[nodiscard]] std::string fmt_seconds(double s);

/// Left/right pad to a width (no truncation).
[[nodiscard]] std::string pad_left(std::string_view s, std::size_t width);
[[nodiscard]] std::string pad_right(std::string_view s, std::size_t width);

/// Join strings with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Escape a string for embedding inside a JSON string literal (no quotes
/// added): ", \, and control characters become \", \\, \n/\t/... or \u00XX.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace mpisect::support
