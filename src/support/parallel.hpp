// One CPU budget for every fan-out in the process.
//
// usable_cores() is the number of CPUs this process may run on (the
// CPU_COUNT of its sched_getaffinity mask), capped by MPISECT_WORKERS when
// that is set. The process holds usable_cores() - 1 helper slots in all:
// under `taskset -c 0` (or MPISECT_WORKERS=1) there are none.
//
// A fan-out is a Crew: the calling thread plus one helper thread for each
// slot it could take, up to the width it asks for. It never waits for a
// slot, so concurrent fan-outs (two serve misses, say) share the budget
// instead of multiplying it: the second one runs with what the first left
// free, or inline. A helper lives for one fan-out. (Helpers kept between
// fan-outs keep their malloc arenas from the simulator's worker threads
// and from each other: +10 % peak RSS on trace_pipeline, measured.)
//
// parallel_for(n, work, fn) calls fn(i) once for every i in [0, n) and
// returns when all calls have finished. Iterations are claimed in index
// order from a shared counter, so uneven iterations balance themselves.
// A loop of one iteration, or with less than kParallelMinWork units of
// `work` (the caller's size estimate, e.g. events), runs inline, as does
// one whose crew got no slot.
//
// Errors are deterministic: if any fn(i) throws, the exception of the
// lowest throwing index is rethrown, exactly what the inline loop would
// throw. Indices above a known failure are skipped; indices below it
// still run, so the lowest one is always found.
//
// Helpers open no obs::Span: spans keep one ring per thread, and a helper
// lives for one fan-out.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>

namespace mpisect::support {

/// Below this much work a fan-out costs more in hand-off than it saves
/// (4096 events take about 1 ms to decode, 3 ms to encode).
inline constexpr std::size_t kParallelMinWork = 4096;

/// CPUs in this process's affinity mask, capped by MPISECT_WORKERS; >= 1.
[[nodiscard]] int usable_cores();

/// The participants of one fan-out: the calling thread (index 0) and one
/// helper per budget slot taken. The slots go back when the crew dies.
class Crew {
 public:
  /// Take up to min(want, usable_cores()) - 1 free slots.
  explicit Crew(std::size_t want);
  ~Crew();
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Participants, counting the calling thread. A helper whose thread
  /// cannot be started does not run, so callers must not wait for a
  /// particular participant.
  [[nodiscard]] std::size_t size() const noexcept { return helpers_ + 1; }

  /// Call fn(i) for every participant i in [0, size()), fn(0) on the
  /// calling thread, and return once every call has returned. fn must not
  /// throw. Call at most once.
  template <typename Fn>
  void run(Fn& fn) {
    dispatch(
        [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); }, &fn);
  }

 private:
  using Call = void (*)(void*, std::size_t);
  void dispatch(Call call, void* ctx);

  std::size_t helpers_ = 0;  ///< budget slots taken
};

template <typename Fn>
void parallel_for(std::size_t n, std::size_t work, Fn&& fn) {
  const auto inline_loop = [&] {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  };
  if (n <= 1 || work < kParallelMinWork) return inline_loop();
  Crew crew(n);
  if (crew.size() <= 1) return inline_loop();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> stop{n};  // lowest failed index so far, else n
  std::mutex mu;
  std::exception_ptr error;
  auto worker = [&](std::size_t /*participant*/) {
    for (std::size_t i = next.fetch_add(1); i < stop.load();
         i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (i < stop.load()) {
          stop.store(i);
          error = std::current_exception();
        }
      }
    }
  };
  crew.run(worker);
  if (error) std::rethrow_exception(error);
}

}  // namespace mpisect::support
