#include "obs/spans.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "support/file.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace mpisect::obs {
namespace {

constexpr std::size_t kDefaultRingSpans = 8192;

/// One ring slot. Fields are relaxed atomics so the exporter may read a
/// slot the owning thread is concurrently overwriting without a data race;
/// the seqlock head re-check below discards any such torn record.
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> t0_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
};

/// A single-producer span ring owned by one thread, snapshot by any.
struct Ring {
  explicit Ring(std::uint32_t tid_in, std::size_t capacity)
      : tid(tid_in), slots(capacity) {}

  const std::uint32_t tid;
  /// Spans ever written; slot index = head % capacity. Written with
  /// release order after the slot fields so a snapshot that observes the
  /// bump also observes the record.
  std::atomic<std::uint64_t> head{0};
  std::vector<Slot> slots;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;  ///< never shrunk while live
  std::string flush_path;                    ///< "" = no atexit flush
  bool atexit_armed = false;
};

Registry& registry() {
  static Registry* r = new Registry;  // immortal: rings outlive any thread
  return *r;
}

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_timing{false};
std::atomic<std::size_t> g_ring_capacity{kDefaultRingSpans};
/// Bumped by reset_spans_for_test so threads drop their cached ring.
std::atomic<std::uint64_t> g_generation{0};

Ring* acquire_ring() {
  thread_local Ring* tl_ring = nullptr;
  thread_local std::uint64_t tl_generation = ~std::uint64_t{0};
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (tl_ring == nullptr || tl_generation != gen) {
    Registry& reg = registry();
    const std::lock_guard lock(reg.mu);
    auto ring = std::make_unique<Ring>(
        static_cast<std::uint32_t>(reg.rings.size()),
        g_ring_capacity.load(std::memory_order_relaxed));
    tl_ring = ring.get();
    tl_generation = gen;
    reg.rings.push_back(std::move(ring));
  }
  return tl_ring;
}

void flush_at_exit() {
  std::string path;
  {
    Registry& reg = registry();
    const std::lock_guard lock(reg.mu);
    path = reg.flush_path;
  }
  if (!path.empty()) (void)write_self_trace(path);
}

/// MPISECT_SELF_TRACE / MPISECT_SELF_TRACE_RING, applied on library load so
/// every binary honors the environment without CLI wiring.
const bool g_env_applied = [] {
  if (const char* ring = std::getenv("MPISECT_SELF_TRACE_RING")) {
    const long v = std::strtol(ring, nullptr, 10);
    if (v > 0) g_ring_capacity.store(static_cast<std::size_t>(v),
                                     std::memory_order_relaxed);
  }
  if (const char* path = std::getenv("MPISECT_SELF_TRACE")) {
    if (path[0] != '\0') enable_self_trace(path);
  }
  return true;
}();

}  // namespace

std::uint64_t now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point base = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           base)
          .count());
}

bool self_trace_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

bool timing_enabled() noexcept {
  return g_timing.load(std::memory_order_relaxed) ||
         g_enabled.load(std::memory_order_relaxed);
}

void set_timing(bool on) noexcept {
  g_timing.store(on, std::memory_order_relaxed);
}

void enable_self_trace(const std::string& path) {
  (void)now_ns();  // pin the clock base before the first span
  bool arm = false;
  {
    Registry& reg = registry();
    const std::lock_guard lock(reg.mu);
    if (!path.empty()) reg.flush_path = path;
    if (!reg.flush_path.empty() && !reg.atexit_armed) {
      reg.atexit_armed = true;
      arm = true;
    }
  }
  if (arm) std::atexit(flush_at_exit);
  g_enabled.store(true, std::memory_order_relaxed);
}

void record_span(const char* name, std::uint64_t t0_ns,
                 std::uint64_t dur_ns) noexcept {
  Ring* ring = acquire_ring();
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  Slot& s = ring->slots[static_cast<std::size_t>(head % ring->slots.size())];
  s.name.store(name, std::memory_order_relaxed);
  s.t0_ns.store(t0_ns, std::memory_order_relaxed);
  s.dur_ns.store(dur_ns, std::memory_order_relaxed);
  ring->head.store(head + 1, std::memory_order_release);
}

std::vector<SpanRecord> snapshot_spans() {
  std::vector<SpanRecord> out;
  Registry& reg = registry();
  const std::lock_guard lock(reg.mu);
  for (const auto& ring : reg.rings) {
    const std::size_t cap = ring->slots.size();
    const std::uint64_t h1 = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n = h1 < cap ? h1 : cap;
    std::vector<SpanRecord> local;
    local.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t g = h1 - n; g < h1; ++g) {
      const Slot& s = ring->slots[static_cast<std::size_t>(g % cap)];
      SpanRecord rec;
      rec.name = s.name.load(std::memory_order_relaxed);
      rec.t0_ns = s.t0_ns.load(std::memory_order_relaxed);
      rec.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      rec.tid = ring->tid;
      local.push_back(rec);
    }
    // Seqlock re-check: entries the producer may have overwritten while we
    // copied (global index < h2 - cap) are discarded, so a torn record can
    // never reach the export.
    const std::uint64_t h2 = ring->head.load(std::memory_order_acquire);
    std::size_t skip = 0;
    if (h2 > cap) {
      const std::uint64_t floor = h2 - cap;
      const std::uint64_t first = h1 - n;
      if (floor > first) skip = static_cast<std::size_t>(floor - first);
    }
    for (std::size_t i = skip; i < local.size(); ++i) {
      if (local[i].name != nullptr) out.push_back(local[i]);
    }
  }
  return out;
}

std::uint64_t spans_recorded() noexcept {
  std::uint64_t total = 0;
  Registry& reg = registry();
  const std::lock_guard lock(reg.mu);
  for (const auto& ring : reg.rings) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t spans_dropped() noexcept {
  std::uint64_t dropped = 0;
  Registry& reg = registry();
  const std::lock_guard lock(reg.mu);
  for (const auto& ring : reg.rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t cap = ring->slots.size();
    if (head > cap) dropped += head - cap;
  }
  return dropped;
}

std::string render_chrome_json(const std::vector<SpanRecord>& spans) {
  // chrome://tracing "complete" events; ts/dur in microseconds.
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ",";
    first = false;
    out += support::format(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f}",
        support::json_escape(s.name != nullptr ? s.name : "?").c_str(), s.tid,
        static_cast<double>(s.t0_ns) / 1e3,
        static_cast<double>(s.dur_ns) / 1e3);
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_dropped\":\"";
  out += std::to_string(spans_dropped());
  out += "\"}}\n";
  return out;
}

std::string render_csv(const std::vector<SpanRecord>& spans) {
  std::string out = "name,tid,t0_ns,dur_ns\n";
  for (const SpanRecord& s : spans) {
    out += support::format("%s,%u,%llu,%llu\n",
                           s.name != nullptr ? s.name : "?", s.tid,
                           static_cast<unsigned long long>(s.t0_ns),
                           static_cast<unsigned long long>(s.dur_ns));
  }
  return out;
}

bool write_self_trace(const std::string& path) {
  std::vector<SpanRecord> spans = snapshot_spans();
  const std::string body = support::ends_with(path, ".json")
                               ? render_chrome_json(spans)
                               : render_csv(spans);
  if (!support::write_file_atomic(path, body)) {
    MPISECT_LOG_ERROR("self-trace: short write to %s", path.c_str());
    return false;
  }
  MPISECT_LOG_INFO("self-trace: wrote %zu spans (%llu dropped) to %s",
                   spans.size(),
                   static_cast<unsigned long long>(spans_dropped()),
                   path.c_str());
  return true;
}

void set_ring_capacity(std::size_t spans) noexcept {
  if (spans > 0) g_ring_capacity.store(spans, std::memory_order_relaxed);
}

void reset_spans_for_test() {
  Registry& reg = registry();
  const std::lock_guard lock(reg.mu);
  reg.rings.clear();
  g_generation.fetch_add(1, std::memory_order_release);
}

void set_enabled_for_test(bool on) noexcept {
  if (on) {
    enable_self_trace();
  } else {
    g_enabled.store(false, std::memory_order_relaxed);
  }
}

}  // namespace mpisect::obs
