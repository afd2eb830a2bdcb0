// Free lists for the per-message records of one World (messages, posted
// receives, request states).
//
// A rank fiber can migrate between worker threads at every park, so a
// record is often released on a different worker than the one that took
// it. Each worker therefore owns a cache that only its own thread touches
// (no lock, no atomic); a cache refills from and drains to one shared list
// in batches under a mutex. Callers off the worker pool (the thread-per-rank
// backend, the main thread tearing a world down) use the shared list
// directly. Records are carved from blocks that live as long as the pool,
// so the steady state of a long run allocates nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "mpisim/scheduler.hpp"

namespace mpisect::mpisim {

template <typename T>
class RecordPool {
 public:
  explicit RecordPool(const Executor& exec)
      : exec_(exec),
        caches_(static_cast<std::size_t>(std::max(1, exec.workers()))) {
    for (Cache& c : caches_) c.free.reserve(2 * kBatch);
  }
  RecordPool(const RecordPool&) = delete;
  RecordPool& operator=(const RecordPool&) = delete;

  /// A default-valued record.
  T* acquire() {
    const int w = exec_.current_worker();
    if (w < 0) {
      const std::lock_guard lock(mu_);
      if (shared_.empty()) grow_locked();
      T* r = shared_.back();
      shared_.pop_back();
      return r;
    }
    Cache& c = caches_[static_cast<std::size_t>(w)];
    if (c.free.empty()) refill(c);
    T* r = c.free.back();
    c.free.pop_back();
    return r;
  }

  /// Reset r to its default value and keep it for the next acquire().
  void release(T* r) {
    *r = T{};
    const int w = exec_.current_worker();
    if (w < 0) {
      const std::lock_guard lock(mu_);
      shared_.push_back(r);
      return;
    }
    Cache& c = caches_[static_cast<std::size_t>(w)];
    c.free.push_back(r);
    if (c.free.size() == 2 * kBatch) drain(c);
  }

 private:
  /// Records moved between a worker cache and the shared list at a time,
  /// and carved from the heap at a time.
  static constexpr std::size_t kBatch = 64;

  struct alignas(64) Cache {
    std::vector<T*> free;
  };

  void grow_locked() {
    blocks_.push_back(std::make_unique<T[]>(kBatch));
    T* block = blocks_.back().get();
    for (std::size_t i = 0; i < kBatch; ++i) shared_.push_back(block + i);
  }

  void refill(Cache& c) {
    const std::lock_guard lock(mu_);
    if (shared_.size() < kBatch) grow_locked();
    c.free.insert(c.free.end(), shared_.end() - kBatch, shared_.end());
    shared_.resize(shared_.size() - kBatch);
  }

  void drain(Cache& c) {
    const std::lock_guard lock(mu_);
    shared_.insert(shared_.end(), c.free.end() - kBatch, c.free.end());
    c.free.resize(c.free.size() - kBatch);
  }

  const Executor& exec_;
  std::vector<Cache> caches_;
  std::mutex mu_;
  std::vector<T*> shared_;
  std::vector<std::unique_ptr<T[]>> blocks_;
};

}  // namespace mpisect::mpisim
