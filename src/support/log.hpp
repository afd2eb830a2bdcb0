// Leveled, thread-safe logging. The simulator logs rank-tagged diagnostics
// through this sink; tests can capture or silence it.
#pragma once

#include <cstdarg>
#include <optional>
#include <string>
#include <string_view>

namespace mpisect::support {

enum class LogLevel { Trace = 0, Debug, Info, Warn, Error, Off };

/// Messages below the global minimum level (default warn) are dropped
/// cheaply. The `MPISECT_LOG` environment variable
/// (trace|debug|info|warn|error|off) sets that level before the first
/// message.

/// Parse a level name as accepted by MPISECT_LOG (case-insensitive;
/// "warning" and "none" are aliases). nullopt on unknown input.
[[nodiscard]] std::optional<LogLevel> parse_log_level(
    std::string_view name) noexcept;

/// Redirect log output to an accumulating string buffer (for tests). Pass
/// nullptr to restore stderr output.
void set_log_capture(std::string* sink) noexcept;

/// printf-style logging; prepends "[level] ".
void logf(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

#define MPISECT_LOG_DEBUG(...) \
  ::mpisect::support::logf(::mpisect::support::LogLevel::Debug, __VA_ARGS__)
#define MPISECT_LOG_INFO(...) \
  ::mpisect::support::logf(::mpisect::support::LogLevel::Info, __VA_ARGS__)
#define MPISECT_LOG_WARN(...) \
  ::mpisect::support::logf(::mpisect::support::LogLevel::Warn, __VA_ARGS__)
#define MPISECT_LOG_ERROR(...) \
  ::mpisect::support::logf(::mpisect::support::LogLevel::Error, __VA_ARGS__)

}  // namespace mpisect::support
