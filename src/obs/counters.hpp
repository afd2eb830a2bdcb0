// Always-on process-wide self-observability counters.
//
// Relaxed atomics bumped from the codec, the trace writer, and (after each
// World::run) the scheduler; rendered as the obs_* series of the one
// Prometheus page (telemetry::metrics_page: serve's {"op":"stats"} and
// mpisect-top --export prom). These measure the *simulator* in wall-clock
// terms and are therefore non-deterministic run to run; they must never
// feed back into virtual time or into deterministic artifacts (.mpst
// bytes, telemetry CSV).
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>

namespace mpisect::obs {

/// Monotonic CAS-max on a relaxed atomic (high-water marks).
inline void update_max(std::atomic<std::uint64_t>& slot,
                       std::uint64_t v) noexcept {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// One field per row of kCounterTable, which documents each.
struct Counters {
  std::atomic<std::uint64_t> codec_compress_bytes_in{0};
  std::atomic<std::uint64_t> codec_compress_bytes_out{0};
  std::atomic<std::uint64_t> codec_compress_ns{0};
  std::atomic<std::uint64_t> codec_decompress_bytes_out{0};
  std::atomic<std::uint64_t> codec_decompress_ns{0};
  std::atomic<std::uint64_t> trace_encoded_bytes{0};
  std::atomic<std::uint64_t> trace_buffered_bytes_hwm{0};
  std::atomic<std::uint64_t> trace_flushes{0};
  std::atomic<std::uint64_t> sched_parks{0};
  std::atomic<std::uint64_t> sched_wakes{0};
  std::atomic<std::uint64_t> sched_switches{0};
  std::atomic<std::uint64_t> sched_busy_ns{0};
  std::atomic<std::uint64_t> sched_idle_ns{0};
  std::atomic<std::uint64_t> sched_ready_depth_sum{0};
  std::atomic<std::uint64_t> sched_ready_depth_samples{0};
  std::atomic<std::uint64_t> sched_switch_latency_ns{0};
  std::atomic<std::uint64_t> sched_switch_latency_samples{0};
  std::atomic<std::uint64_t> mem_channel_bytes_hwm{0};
  std::atomic<std::uint64_t> mem_stack_bytes_hwm{0};
  std::atomic<std::uint64_t> mem_ranks{0};

  void reset() noexcept;
};

/// One obs_* series: its Prometheus name, help text and type, and the
/// field it reads.
struct CounterDesc {
  const char* name;
  const char* help;
  const char* type;  ///< "counter" | "gauge"
  std::atomic<std::uint64_t> Counters::*field;
};

/// Every Counters field, in page order. Drives reset() and rendering.
inline constexpr CounterDesc kCounterTable[] = {
    {"obs_codec_compress_bytes_in", "bytes fed to the codec compressor",
     "counter", &Counters::codec_compress_bytes_in},
    {"obs_codec_compress_bytes_out", "bytes the codec compressor produced",
     "counter", &Counters::codec_compress_bytes_out},
    {"obs_codec_compress_ns", "wall ns spent compressing", "counter",
     &Counters::codec_compress_ns},
    {"obs_codec_decompress_bytes_out", "bytes the codec decompressor produced",
     "counter", &Counters::codec_decompress_bytes_out},
    {"obs_codec_decompress_ns", "wall ns spent decompressing", "counter",
     &Counters::codec_decompress_ns},
    {"obs_trace_encoded_bytes", "trace bytes written", "counter",
     &Counters::trace_encoded_bytes},
    {"obs_trace_buffered_bytes_hwm", "peak trace bytes buffered at encode",
     "gauge", &Counters::trace_buffered_bytes_hwm},
    {"obs_trace_flushes", "trace file flushes", "counter",
     &Counters::trace_flushes},
    {"obs_sched_parks", "rank parks on a wait point", "counter",
     &Counters::sched_parks},
    {"obs_sched_wakes", "parked ranks made ready", "counter",
     &Counters::sched_wakes},
    {"obs_sched_switches", "fiber resumes", "counter",
     &Counters::sched_switches},
    {"obs_sched_busy_ns", "worker wall ns running fibers", "counter",
     &Counters::sched_busy_ns},
    {"obs_sched_idle_ns", "worker wall ns waiting for work", "counter",
     &Counters::sched_idle_ns},
    {"obs_sched_ready_depth_sum", "runnable ranks summed over wake batches",
     "counter", &Counters::sched_ready_depth_sum},
    {"obs_sched_ready_depth_samples", "wake batches sampled for ready depth",
     "counter", &Counters::sched_ready_depth_samples},
    {"obs_sched_switch_latency_ns", "wall ns from wake to resume, summed",
     "counter", &Counters::sched_switch_latency_ns},
    {"obs_sched_switch_latency_samples", "resumes timed for wake-to-resume",
     "counter", &Counters::sched_switch_latency_samples},
    {"obs_mem_channel_bytes_hwm", "peak bytes in channel queues", "gauge",
     &Counters::mem_channel_bytes_hwm},
    {"obs_mem_stack_bytes_hwm", "peak bytes of live fiber stacks", "gauge",
     &Counters::mem_stack_bytes_hwm},
    {"obs_mem_ranks", "ranks of the widest world", "gauge",
     &Counters::mem_ranks},
};
static_assert(sizeof(Counters) == std::size(kCounterTable) *
                                      sizeof(std::atomic<std::uint64_t>),
              "every Counters field has a kCounterTable row");

inline void Counters::reset() noexcept {
  for (const CounterDesc& d : kCounterTable) {
    (this->*d.field).store(0, std::memory_order_relaxed);
  }
}

/// The process-wide counter block.
[[nodiscard]] inline Counters& counters() noexcept {
  static Counters c;
  return c;
}

}  // namespace mpisect::obs
