#include "support/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "support/strings.hpp"

namespace mpisect::support {
namespace {

std::atomic<LogLevel> g_level{LogLevel::Warn};
std::mutex g_mutex;
std::string* g_capture = nullptr;

/// One-shot MPISECT_LOG environment override, applied before the first
/// level read so `MPISECT_LOG=debug ./anything` governs every subsystem
/// that logs through this sink.
std::once_flag g_env_once;

void apply_env_level() {
  const char* env = std::getenv("MPISECT_LOG");
  if (env == nullptr) return;
  if (const auto parsed = parse_log_level(env)) g_level.store(*parsed);
}

void ensure_env_applied() { std::call_once(g_env_once, apply_env_level); }

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "trace";
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "?";
}

}  // namespace

std::optional<LogLevel> parse_log_level(std::string_view name) noexcept {
  const std::string s = to_lower(trim(name));
  if (s == "trace") return LogLevel::Trace;
  if (s == "debug") return LogLevel::Debug;
  if (s == "info") return LogLevel::Info;
  if (s == "warn" || s == "warning") return LogLevel::Warn;
  if (s == "error") return LogLevel::Error;
  if (s == "off" || s == "none") return LogLevel::Off;
  return std::nullopt;
}

void set_log_capture(std::string* sink) noexcept {
  const std::lock_guard lock(g_mutex);
  g_capture = sink;
}

void logf(LogLevel level, const char* fmt, ...) {
  // Apply MPISECT_LOG before the first filter decision: logf can be the
  // first entry into the sink (e.g. a CLI parse warning), and the env
  // contract is "governs every subsystem", not "governs after someone
  // happened to read the level".
  ensure_env_applied();
  if (level < g_level.load(std::memory_order_relaxed)) return;
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);

  const std::lock_guard lock(g_mutex);
  if (g_capture != nullptr) {
    *g_capture += "[";
    *g_capture += level_name(level);
    *g_capture += "] ";
    *g_capture += buf;
    *g_capture += "\n";
  } else {
    std::fprintf(stderr, "[%s] %s\n", level_name(level), buf);
  }
}

}  // namespace mpisect::support
