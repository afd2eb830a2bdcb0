// Rank execution backends: how the ranks of one World::run get CPU time.
//
// The simulator's blocking primitives (Channel, CollSync) do not own
// condition variables; they own WaitPoints. A WaitPoint delegates blocking
// to the World's Executor, which comes in two flavours:
//
//   * Cooperative (default): a run-to-block fiber scheduler. Every rank is
//     a stackful fiber (ucontext); a fixed pool of worker threads (default
//     hardware_concurrency, override with MPISECT_WORKERS) runs fibers
//     until they block, then parks them on the WaitPoint and picks up the
//     next runnable fiber. Parking costs one user-space context switch, so
//     worlds with thousands of ranks multiplex over a handful of OS
//     threads instead of oversubscribing the machine. Each worker owns one
//     ready lane, and rank r's home lane is that of the worker owning its
//     contiguous block (r * workers / n): a wake or a yield appends the
//     rank to its home lane, so halo neighbours' messages and wakes stay on
//     one core. A worker pops its own lane first and steals from the others
//     before it sleeps; there is no global ready-queue lock.
//   * Threads: one OS thread per rank, waits are plain condition-variable
//     blocks. Kept as the differential-testing reference — virtual-time
//     results must be bit-identical between the two backends for the same
//     seed, because virtual time is a pure function of per-rank program
//     order and the seeded jitter draws, never of scheduling.
//
// There is no polling anywhere: waits block until an event delivery calls
// WaitPoint::notify_all(), and World::abort() wakes every waiter explicitly
// via Executor::wake_all().
//
// Both backends detect quiescence exactly: the instant every live rank is
// parked with no wake pending, the quiescence handler fires. That is the
// scheduler's "all runnable tasks parked" signal — a true deadlock by
// construction, which replaces the checker's old real-time watchdog with
// deterministic detection. The cooperative backend keeps one atomic count
// of ready-or-running tasks: a wake adds to it before it publishes a task,
// a park subtracts once the fiber's context is saved, a finish subtracts
// too, and the count reaching 0 with ranks unfinished is the signal.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mpisect::obs {
class MemAccount;
}  // namespace mpisect::obs

namespace mpisect::mpisim {

/// Which execution backend a World uses for its ranks.
enum class ExecBackend {
  Cooperative,  ///< fiber scheduler on a fixed worker pool (default)
  Threads,      ///< one OS thread per rank (differential reference)
};

/// Backend selection plus its tuning knobs, with the same
/// `preset[:key=value,...]` spec vocabulary as ProgressModel — what the
/// `--exec` flag parses and what describe() strings print.
///
///   cooperative                    default worker pool, default stacks
///   cooperative:workers=4          fixed worker count
///   cooperative:workers=4,stack=256  256 KiB fiber stacks
///   threads                        one OS thread per rank
struct ExecModel {
  /// Bounds on the knobs, for specs and environment variables alike: a
  /// hostile value is rejected before any thread or stack exists.
  static constexpr int kMaxWorkers = 1024;
  static constexpr std::size_t kMaxStackKb = 1048576;  ///< 1 GiB

  ExecBackend backend = ExecBackend::Cooperative;
  int workers = 0;          ///< 0 = MPISECT_WORKERS env, else hw concurrency
  std::size_t stack_kb = 0; ///< 0 = MPISECT_STACK_KB env, else 1 MiB; min 64

  bool operator==(const ExecModel&) const = default;

  [[nodiscard]] const char* name() const noexcept;
  /// Canonical spec string; ExecModel::parse(spec()) == *this.
  [[nodiscard]] std::string spec() const;
  /// Parse a spec string. Throws MpiError(Err::Arg) on unknown presets,
  /// unknown options, options on the threads backend, or values above
  /// kMaxWorkers / kMaxStackKb.
  static ExecModel parse(const std::string& spec);
  static std::string choices();
};

class WaitPoint;
struct FiberTask;

/// Wall-clock execution counters maintained by the backends (relaxed
/// atomics, bumped on the park/wake paths). These describe *scheduling*,
/// not virtual time: values vary run to run with OS interleaving and worker
/// count, so telemetry exports them as runtime (process-scope) metrics,
/// never as part of the deterministic virtual-time series.
struct ExecStats {
  std::atomic<std::uint64_t> parks{0};      ///< rank blocked on a WaitPoint
  std::atomic<std::uint64_t> wakes{0};      ///< tasks moved back to ready
  std::atomic<std::uint64_t> switches{0};   ///< fiber resumes (coop backend)
  /// Peak runnable ranks (ready or running), sampled at every wake batch.
  std::atomic<std::uint64_t> max_ready{0};
  /// Runnable ranks sampled at every wake batch (sum / samples = mean).
  std::atomic<std::uint64_t> ready_depth_sum{0};
  std::atomic<std::uint64_t> ready_depth_samples{0};
  /// Wake-to-resume latency of parked fibers. Only accumulated while
  /// obs::timing_enabled() (self-trace on, or mpisect-top --self) — the
  /// clock reads cost more than the rest of the wake path.
  std::atomic<std::uint64_t> switch_latency_ns{0};
  std::atomic<std::uint64_t> switch_latency_samples{0};
  /// Per-worker wall time split: running fibers vs waiting for work.
  /// Gated on obs::timing_enabled() like switch latency.
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> idle_ns{0};
  /// Bytes mmap'ed for fiber stacks this run (guard pages included).
  std::atomic<std::uint64_t> stack_bytes{0};
  /// Peak bytes of fiber stacks held concurrently (stacks are allocated on
  /// first resume and returned to the pool when the fiber finishes, so this
  /// tracks live demand, not cumulative churn).
  std::atomic<std::uint64_t> stack_bytes_hwm{0};

  void reset() noexcept {
    parks.store(0, std::memory_order_relaxed);
    wakes.store(0, std::memory_order_relaxed);
    switches.store(0, std::memory_order_relaxed);
    max_ready.store(0, std::memory_order_relaxed);
    ready_depth_sum.store(0, std::memory_order_relaxed);
    ready_depth_samples.store(0, std::memory_order_relaxed);
    switch_latency_ns.store(0, std::memory_order_relaxed);
    switch_latency_samples.store(0, std::memory_order_relaxed);
    busy_ns.store(0, std::memory_order_relaxed);
    idle_ns.store(0, std::memory_order_relaxed);
    stack_bytes.store(0, std::memory_order_relaxed);
    stack_bytes_hwm.store(0, std::memory_order_relaxed);
  }
};

/// Executes the n rank bodies of one World::run and services their blocking
/// waits. Created once per World via make_executor().
class Executor {
 public:
  virtual ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Run body(r) for every r in [0, n) to completion and return when all
  /// have finished. The body must not throw (World::run's rank wrapper
  /// catches everything). May be called repeatedly, not concurrently.
  virtual void run(int n, const std::function<void(int)>& body) = 0;

  /// Wake every waiter of every registered WaitPoint (spurious wakeups).
  /// This is the abort path: World::abort() sets its flag and calls this so
  /// blocked ranks re-check the flag and unwind with Err::Aborted.
  void wake_all() noexcept;

  /// Reschedule the calling rank without blocking it: on the cooperative
  /// backend the current fiber goes to the back of its home lane so other
  /// runnable ranks get CPU time; on the thread backend this is an OS
  /// yield. Completion-test loops (Request::test) call this so a spinning
  /// rank can never starve the peer that would complete its request.
  virtual void yield() noexcept;

  /// Install the callback fired (at most once per run) when every live rank
  /// is parked with no wake pending — an exact deadlock signal. Set before
  /// run(); the World chains the checker's handler and its own abort here.
  void set_quiescence_handler(std::function<void()> handler);

  [[nodiscard]] virtual const char* backend_name() const noexcept = 0;
  /// Worker threads used to execute ranks (== nranks for Threads backend).
  [[nodiscard]] virtual int workers() const noexcept = 0;

  /// Wall-clock scheduling counters (see ExecStats). Reset at each run().
  [[nodiscard]] const ExecStats& stats() const noexcept { return stats_; }

  /// Optional per-rank stack accounting sink. The cooperative backend
  /// charges rank r's slot when r's fiber stack is assigned and credits it
  /// when the fiber finishes; the account's hwm is therefore each rank's
  /// exact stack high-water mark. Accounting only — never affects
  /// scheduling or virtual time.
  void set_mem_account(obs::MemAccount* acct) noexcept { mem_ = acct; }

 protected:
  Executor() = default;
  friend class WaitPoint;

  /// Release owner_lk's mutex, block until this WaitPoint is notified (or
  /// spuriously), re-acquire and return. Callers loop on their predicate.
  virtual void do_wait(WaitPoint& wp, std::unique_lock<std::mutex>& owner_lk) = 0;
  /// Wake all waiters of wp. Caller holds wp's owner mutex.
  virtual void do_notify(WaitPoint& wp) = 0;
  /// Wake all waiters of wp from the abort path (no locks held by caller).
  virtual void do_wake(WaitPoint& wp);

  void add_waitpoint(WaitPoint* wp);
  void remove_waitpoint(WaitPoint* wp);
  /// Invoke the quiescence handler (caller must hold no scheduler or owner
  /// locks — the handler typically aborts the world, which calls wake_all).
  void fire_quiescence();

  ExecStats stats_;
  obs::MemAccount* mem_ = nullptr;

 private:
  std::mutex reg_mu_;
  std::vector<WaitPoint*> waitpoints_;
  std::function<void()> quiescence_;
};

/// A blocking point owned by a synchronization object (Channel, CollSync)
/// whose state is guarded by `owner_mu`. Replaces a raw condition variable;
/// the executor decides whether a wait blocks an OS thread or parks a
/// fiber. Usage mirrors a condition variable:
///
///   std::unique_lock lock(mu_);
///   while (!predicate) { check_abort(); wp_.wait(lock); }
///
/// notify_all() must be called while holding the owner mutex — that is what
/// makes a wake race-free against a waiter about to block.
class WaitPoint {
 public:
  WaitPoint(Executor& exec, std::mutex& owner_mu)
      : exec_(exec), owner_mu_(owner_mu) {
    exec_.add_waitpoint(this);
  }
  ~WaitPoint() { exec_.remove_waitpoint(this); }
  WaitPoint(const WaitPoint&) = delete;
  WaitPoint& operator=(const WaitPoint&) = delete;

  /// Block until notified. lk must hold the owner mutex; it is released
  /// while blocked and re-acquired before returning. Spurious wakeups
  /// happen (abort wake-all is one) — callers re-check their predicate.
  void wait(std::unique_lock<std::mutex>& lk) { exec_.do_wait(*this, lk); }

  /// Wake every waiter. Caller MUST hold the owner mutex.
  void notify_all() { exec_.do_notify(*this); }

 private:
  friend class Executor;
  friend class ThreadExecutor;
  friend class FiberExecutor;

  Executor& exec_;
  std::mutex& owner_mu_;
  std::condition_variable cv_;  ///< thread-backend + off-fiber waiters
  /// Wake generation: bumped (under the owner mutex) by every notify. A
  /// waiter records it before blocking; "epoch unchanged" is both the
  /// cv wait predicate and the "no wake pending" half of quiescence.
  std::atomic<std::uint64_t> epoch_{0};
  /// Fiber backend: tasks parked here. Every access holds the owner mutex;
  /// a task is added before the parking fiber releases it, so a notifier
  /// (which holds it) never misses a half-parked task.
  std::vector<FiberTask*> parked_;
  /// Slot in the executor's registry (maintained by add/remove_waitpoint so
  /// deregistration is O(1) — worlds create one WaitPoint per channel, and
  /// a 65k-rank teardown cannot afford a linear registry scan each).
  std::size_t reg_index_ = 0;
};

/// Number of worker threads `workers` resolves to: the value itself if > 0,
/// else the MPISECT_WORKERS environment variable (read by support::env_int,
/// bounded by ExecModel::kMaxWorkers), else hardware_concurrency.
[[nodiscard]] int resolve_workers(int workers) noexcept;

/// Create an executor. workers is resolved via resolve_workers() and only
/// meaningful for the cooperative backend. stack_kb sets the fiber stack
/// size (clamped up to 64 KiB); 0 falls back to MPISECT_STACK_KB (bounded
/// by ExecModel::kMaxStackKb, clamped up likewise), else 1 MiB.
[[nodiscard]] std::unique_ptr<Executor> make_executor(ExecBackend backend,
                                                      int workers = 0,
                                                      std::size_t stack_kb = 0);

/// make_executor from a parsed spec (backend + workers + stack in one).
[[nodiscard]] std::unique_ptr<Executor> make_executor(const ExecModel& model);

}  // namespace mpisect::mpisim
