// Fan a loop of independent iterations out over short-lived threads.
//
// parallel_for(n, work, fn) calls fn(i) once for every i in [0, n) and
// returns when all calls have finished. Iterations are claimed in index
// order from a shared counter, so uneven iterations balance themselves.
// The width is min(hardware_concurrency, n), counting the calling thread.
// A loop of one iteration, or with less than kParallelMinWork units of
// `work` (the caller's size estimate, e.g. events), runs inline.
//
// Errors are deterministic: if any fn(i) throws, the exception of the
// lowest throwing index is rethrown, exactly what the inline loop would
// throw. Indices above a known failure are skipped; indices below it
// still run, so the lowest one is always found.
//
// The workers open no obs::Span: spans keep one ring per thread, and
// these threads live for one loop.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace mpisect::support {

/// Below this much work a fan-out costs more in thread start-up than it
/// saves (4096 events take about 1 ms to decode, 3 ms to encode).
inline constexpr std::size_t kParallelMinWork = 4096;

template <typename Fn>
void parallel_for(std::size_t n, std::size_t work, Fn&& fn) {
  const std::size_t width = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), n);
  if (width <= 1 || work < kParallelMinWork) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> stop{n};  // lowest failed index so far, else n
  std::mutex mu;
  std::exception_ptr error;
  auto worker = [&] {
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
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(width - 1);
    for (std::size_t t = 1; t < width; ++t) {
      try {
        helpers.emplace_back(worker);
      } catch (const std::system_error&) {
        break;  // out of threads: the ones running, and this one, suffice
      }
    }
    worker();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mpisect::support
