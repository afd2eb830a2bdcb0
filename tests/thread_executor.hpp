// Thread-per-rank executor: a test-only oracle for the fiber scheduler.
//
// Every rank of a run gets its own OS thread, and a wait is a plain
// condition-variable block on the WaitPoint. Nothing is multiplexed, so
// virtual time, traces and telemetry produced under it are an independent
// check that the fiber scheduler's lanes, parks and steals never leak into
// results: both must be bit-identical for the same seed.
//
// Quiescence is detected exactly, as the fiber scheduler does: the moment
// every live rank thread is blocked and every blocked rank's recorded wake
// epoch is still current, the quiescence handler fires (once per run).
// Waits from threads the oracle did not start (a unit test poking a Channel
// directly) block the same way but do not count.
//
//   WorldOptions opts;
//   testutil::set_workers(opts, testutil::kThreadPerRank);
//   World world(8, opts);
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mpisim/runtime.hpp"
#include "mpisim/scheduler.hpp"
#include "obs/spans.hpp"
#include "support/log.hpp"

namespace mpisect::testutil {

class ThreadExecutor final : public mpisim::Executor {
 public:
  ThreadExecutor() = default;

  void run(int n, const std::function<void(int)>& body) override {
    {
      const std::lock_guard lock(mu_);
      n_ = n;
      alive_ = n;
      blocked_ = 0;
      waiters_.clear();
      fired_ = false;
    }
    stats_.reset();
    const obs::Span run_span("sched.run");
    MPISECT_LOG_DEBUG("scheduler: thread per rank, %d ranks", n);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      threads.emplace_back([this, &body, r] {
        tl_rank_thread = true;
        body(r);
        tl_rank_thread = false;
        bool fire = false;
        {
          const std::lock_guard lock(mu_);
          --alive_;
          fire = quiescent_locked();
        }
        // A rank exiting can strand the rest (orphaned waits).
        if (fire) fire_quiescence();
      });
    }
    for (auto& t : threads) t.join();
  }

  [[nodiscard]] int workers() const noexcept override { return n_; }

  /// Every rank has its own OS thread, so an OS yield is all the fairness
  /// there is to give.
  void yield() noexcept override { std::this_thread::yield(); }

 protected:
  void do_wait(mpisim::WaitPoint& wp,
               std::unique_lock<std::mutex>& lk) override {
    const std::uint64_t seen = epoch(wp);
    const bool tracked = tl_rank_thread;
    bool fire = false;
    if (tracked) {
      stats_.parks.fetch_add(1, std::memory_order_relaxed);
      const std::lock_guard lock(mu_);
      ++blocked_;
      waiters_.push_back({&wp, seen});
      fire = quiescent_locked();
    }
    if (fire) {
      // We still hold the owner mutex; the handler ends in World::abort(),
      // whose wake_all needs every owner mutex — release around the call.
      lk.unlock();
      fire_quiescence();
      lk.lock();
    }
    wait_epoch(wp, lk, seen);
    if (tracked) {
      const std::lock_guard lock(mu_);
      --blocked_;
      const auto it =
          std::find(waiters_.begin(), waiters_.end(), Waiter{&wp, seen});
      if (it != waiters_.end()) {
        *it = waiters_.back();
        waiters_.pop_back();
      }
    }
  }

  void do_notify(mpisim::WaitPoint& wp) override {
    // Caller holds wp's owner mutex, so no blocked or about-to-block waiter
    // can miss this bump.
    bump_epoch(wp);
    stats_.wakes.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct Waiter {
    mpisim::WaitPoint* wp;
    std::uint64_t epoch;
    bool operator==(const Waiter&) const = default;
  };

  /// Set for threads spawned by run(); rank waits count towards
  /// quiescence, external waiters do not.
  static inline thread_local bool tl_rank_thread = false;

  /// Caller holds mu_. Quiescent = every live rank is blocked AND every
  /// blocked rank's recorded epoch is still current (no wake in flight).
  /// Any state change needs a running rank, and a rank that notified then
  /// blocked synchronizes through mu_, so a stale epoch read cannot fake
  /// quiescence.
  bool quiescent_locked() {
    if (fired_ || alive_ <= 0 || blocked_ != alive_) return false;
    for (const Waiter& w : waiters_) {
      if (epoch(*w.wp) != w.epoch) return false;
    }
    fired_ = true;
    return true;
  }

  std::mutex mu_;
  int n_ = 0;
  int alive_ = 0;
  int blocked_ = 0;
  std::vector<Waiter> waiters_;
  bool fired_ = false;
};

/// A worker count that selects the oracle (see set_workers): differential
/// tests pass it where they would pass the fiber scheduler's workers.
inline constexpr int kThreadPerRank = -1;

/// Run opts' world on `workers` fiber-scheduler workers (0 = the default
/// pool), or on the thread-per-rank oracle when workers is kThreadPerRank.
inline void set_workers(mpisim::WorldOptions& opts, int workers) {
  if (workers == kThreadPerRank) {
    opts.executor = [] { return std::make_unique<ThreadExecutor>(); };
  } else {
    opts.workers = workers;
  }
}

}  // namespace mpisect::testutil
