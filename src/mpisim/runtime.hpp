// World launcher and per-rank execution context.
//
// World::run(fn) executes an SPMD function on every rank against a shared
// MachineModel. Ranks run on the World's Executor — by default the
// cooperative fiber scheduler (see scheduler.hpp), with a thread-per-rank
// backend selectable via WorldOptions::exec for differential testing; both
// produce bit-identical virtual-time results for the same seed. Rank-side
// code receives a Ctx — its rank identity, virtual clock and
// compute-charging interface. Extensions
// (the sections layer, profiling tools) attach to the World and get
// per-rank init/finalize callbacks, mirroring how PMPI tools wrap
// MPI_Init/MPI_Finalize.
//
//   World world(16, {.machine = MachineModel::nehalem_cluster()});
//   world.run([](Ctx& ctx) {
//     Comm comm = ctx.world_comm();
//     ctx.compute_flops(1e9);               // charge virtual compute time
//     comm.barrier();
//     double t = ctx.now();                 // virtual seconds
//   });
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "mpisim/clock.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/faults/plan.hpp"
#include "mpisim/hooks.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/progress.hpp"
#include "mpisim/scheduler.hpp"
#include "mpisim/toolstack.hpp"
#include "obs/memory.hpp"
#include "support/rng.hpp"

namespace mpisect::mpisim {

namespace faults {
class FaultEngine;
}

/// Algorithm selection for the rooted block collectives. Linear is the
/// naive root-loops implementation; Binomial halves the problem per round
/// (log p latency terms, intermediates forward subtree blocks).
enum class CollAlgo { Linear, Binomial };

struct WorldOptions {
  MachineModel machine = MachineModel::ideal();
  std::uint64_t seed = 0x5EED;
  CollAlgo scatter_algo = CollAlgo::Linear;
  CollAlgo gather_algo = CollAlgo::Linear;
  /// Standard deviation (seconds) of the random per-rank start skew,
  /// modelling loosely synchronized job launch (paper Fig. 3 discussion).
  double start_skew_sigma = 0.0;
  /// Enable the sections layer's collective consistency checking
  /// ("non-intrusive synchronization primitives which could be selectively
  /// enabled", paper Sec. 4).
  bool validate_sections = false;
  /// Rank execution backend. Cooperative multiplexes ranks over a fixed
  /// worker pool; Threads is the one-OS-thread-per-rank differential
  /// reference. Virtual-time results are identical either way.
  ExecBackend exec = ExecBackend::Cooperative;
  /// Worker threads for the cooperative backend: 0 = MPISECT_WORKERS env
  /// var, else the usable cores (see resolve_workers()).
  int workers = 0;
  /// Fiber stack size in KiB for the cooperative backend: 0 =
  /// MPISECT_STACK_KB env var, else 1 MiB; values are clamped up to 64.
  std::size_t stack_kb = 0;
  /// Deterministic fault-injection plan (see faults/plan.hpp). An empty
  /// plan constructs no engine, so fault-free runs are bit-identical to a
  /// build without the fault layer.
  faults::FaultPlan faults;
  /// Asynchronous-progress model (see progress.hpp). The blocking-only
  /// default keeps every artifact bit-identical to runs that predate it.
  ProgressModel progress;
};

/// Attachment point for layers that need per-rank lifecycle callbacks.
class Extension {
 public:
  virtual ~Extension() = default;
  /// Runs on each rank thread after Init hooks, before the app main.
  virtual void on_rank_init(Ctx& ctx) { (void)ctx; }
  /// Runs on each rank thread after the app main, before Finalize hooks.
  virtual void on_rank_finalize(Ctx& ctx) { (void)ctx; }
};

class World {
 public:
  /// A world of `nranks` ranks. Construction is lazy: no world
  /// communicator and no per-rank channel state exist until the first
  /// run(), so building a 65,536-rank world costs O(1) per rank. Throws
  /// MpiError(Err::Arg) if nranks <= 0.
  World(int nranks, WorldOptions options);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const noexcept { return nranks_; }
  [[nodiscard]] const MachineModel& machine() const noexcept {
    return options_.machine;
  }
  [[nodiscard]] const WorldOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const ProgressModel& progress() const noexcept {
    return options_.progress;
  }
  [[nodiscard]] const support::CounterRng& rng() const noexcept {
    return rng_;
  }
  [[nodiscard]] const std::atomic<bool>* abort_flag() const noexcept {
    return &aborted_;
  }
  [[nodiscard]] bool aborted() const noexcept { return aborted_.load(); }
  /// Flag the world as failed; wakes every blocked rank with Err::Aborted.
  void abort() noexcept {
    aborted_.store(true);
    executor_->wake_all();
  }
  /// The rank execution backend (channels and collectives block through it).
  [[nodiscard]] Executor& executor() noexcept { return *executor_; }
  /// Free lists for this world's messages, posted receives and request
  /// states (see record_pool.hpp).
  [[nodiscard]] RecordPools& records() noexcept { return *records_; }
  /// Callback fired when the executor proves every live rank is parked with
  /// no wake pending — an exact deadlock. The checker installs its analysis
  /// here; the world aborts right after the handler returns.
  void set_deadlock_handler(std::function<void()> handler) {
    deadlock_handler_ = std::move(handler);
  }

  /// Fault-injection engine, or nullptr when options().faults is empty.
  [[nodiscard]] faults::FaultEngine* fault_engine() noexcept {
    return fault_engine_.get();
  }

  /// Per-rank memory accounting for channel queues (see obs/memory.hpp).
  /// Exact high-water mark of bytes the matching engine held per rank;
  /// purely observational, no effect on virtual time.
  [[nodiscard]] obs::MemAccount& mem_account() noexcept {
    return mem_account_;
  }
  [[nodiscard]] const obs::MemAccount& mem_account() const noexcept {
    return mem_account_;
  }

  /// The world's tool stack. Tools — profiler, checker, recorder,
  /// sampler, fault injector, Pcontrol phases — register through it, and
  /// every event site of the runtime notifies it; see toolstack.hpp.
  [[nodiscard]] hooks::ToolStack& tool_stack() noexcept { return tool_stack_; }

  void attach_extension(std::shared_ptr<Extension> ext);

  /// Find an attached extension by concrete type (nullptr if absent).
  /// Attach extensions before run(); lookup from rank threads is read-only.
  /// The pointer is borrowed from the world, and the lookup touches no
  /// reference count, so rank fibers may call it on every event.
  template <typename T>
  [[nodiscard]] T* find_extension() const {
    for (const auto& e : extensions_) {
      if (auto* p = dynamic_cast<T*>(e.get())) return p;
    }
    return nullptr;
  }
  /// find_extension with shared ownership, for installers that hand the
  /// existing instance back to their caller.
  template <typename T>
  [[nodiscard]] std::shared_ptr<T> shared_extension() const {
    for (const auto& e : extensions_) {
      if (auto p = std::dynamic_pointer_cast<T>(e)) return p;
    }
    return nullptr;
  }

  using RankMain = std::function<void(Ctx&)>;
  /// Run the SPMD main on all ranks and block until every rank finishes.
  /// Rethrows the first rank exception after every rank has unwound.
  /// May be called repeatedly; clocks and sequence state reset per run,
  /// and the previous run's world communicator gets its on_comm_free.
  void run(const RankMain& rank_main);

  /// Virtual time at which each rank finished the last run.
  [[nodiscard]] const std::vector<double>& final_times() const noexcept {
    return final_times_;
  }
  /// max over ranks of final_times() — the run's virtual makespan.
  [[nodiscard]] double elapsed() const noexcept;

  /// Fresh context id for a new communicator.
  int next_context_id() noexcept { return next_context_++; }

  /// Per-rank accounting of fiber-stack bytes (cooperative backend).
  /// Separate from mem_account() so channel-queue baselines keep their
  /// meaning; purely observational.
  [[nodiscard]] const obs::MemAccount& stack_account() const noexcept {
    return stack_account_;
  }

 private:
  friend class Ctx;

  int nranks_;
  WorldOptions options_;
  // Declared before world_comm_: channels credit their leftovers back to
  // the account on destruction, so it must outlive the communicator.
  obs::MemAccount mem_account_{nranks_};
  obs::MemAccount stack_account_{nranks_};
  support::CounterRng rng_;
  std::atomic<bool> aborted_{false};
  std::atomic<int> next_context_{0};
  std::vector<VirtualClock> clocks_;
  std::vector<double> final_times_;
  // Declared before world_comm_: channel/collsync WaitPoints deregister
  // from the executor on destruction, so it must outlive the communicator.
  std::unique_ptr<Executor> executor_;
  // After executor_ (one cache per worker), before world_comm_: channels
  // return their unmatched records on destruction.
  std::unique_ptr<RecordPools> records_;
  std::function<void()> deadlock_handler_;
  std::shared_ptr<CommImpl> world_comm_;
  /// Whether on_comm_create fired for the current world communicator (so a
  /// later run() knows to emit the matching on_comm_free).
  bool world_comm_announced_ = false;
  // Declared before extensions_: an extension that is also a tool (the
  // trace recorder) detaches from the stack in its destructor, so the
  // stack must outlive every extension.
  hooks::ToolStack tool_stack_;
  std::vector<std::shared_ptr<Extension>> extensions_;
  std::unique_ptr<faults::FaultEngine> fault_engine_;
};

/// Per-rank execution context; lives on the rank thread's stack for the
/// duration of one World::run.
class Ctx {
 public:
  Ctx(World& world, int world_rank, VirtualClock& clock) noexcept;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return world_.size(); }
  [[nodiscard]] World& world() noexcept { return world_; }
  [[nodiscard]] const MachineModel& machine() const noexcept {
    return world_.machine();
  }
  [[nodiscard]] VirtualClock& clock() noexcept { return clock_; }
  [[nodiscard]] double now() const noexcept { return clock_.now(); }

  /// Handle to the world communicator for this rank.
  [[nodiscard]] Comm world_comm() noexcept;

  /// Charge `seconds` of computation (plus the machine's multiplicative
  /// compute noise, drawn deterministically per rank/op, and any slow-rank
  /// factor from the fault plan). Doubles as a fault checkpoint, so it may
  /// throw Err::Killed under a kill plan.
  void compute(double seconds);
  /// Charge `flops` of computation through the machine model.
  void compute_flops(double flops);
  /// Charge an exact duration with no noise (fixtures/tests). Slow-rank
  /// factors from the fault plan still apply — injected degradation is
  /// deterministic, not noise, and must be inescapable.
  void compute_exact(double seconds) noexcept;

  /// Per-rank monotonically increasing operation id — the RNG counter for
  /// everything this rank draws.
  [[nodiscard]] std::uint64_t next_op_id() noexcept { return op_counter_++; }

  /// Per-rank nonblocking-request id, starting at 1 (0 = "no request" in
  /// CallInfo). Tools key outstanding operations by (world rank, id).
  [[nodiscard]] std::uint64_t next_request_id() noexcept {
    return ++req_counter_;
  }

  /// MPI_Pcontrol: notifies the attached tools (IPM-style phase baseline).
  void pcontrol(int level, const char* label = nullptr);

  /// Fault checkpoint: charge any due stall and raise Err::Killed when a
  /// kill rule has come due. Called on compute charges and on entry to
  /// every intercepted MPI call; no-op without a fault engine.
  void fault_checkpoint();

 private:
  World& world_;
  int rank_;
  VirtualClock& clock_;
  std::uint64_t op_counter_ = 0;
  std::uint64_t req_counter_ = 0;
};

}  // namespace mpisect::mpisim
