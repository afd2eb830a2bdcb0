// Virtual-time interval sampler — the fourth chained PMPI-style tool.
//
// TelemetrySampler attaches to a World exactly like the profiler, checker
// and trace recorder: it registers with the world's hooks::ToolStack, so
// the tools stack in any order without hand-rolled chaining.
// It divides the virtual timeline into fixed Δt intervals and, per rank,
// accumulates into the current interval:
//   * busy seconds per section (top-of-stack attribution — exclusive
//     slices, so nested sections never double-count);
//   * seconds spent inside MPI calls;
//   * deltas of every Rank-scope registry scalar (messages, bytes,
//     eager/rendezvous split, collective entries, MiniOMP charges, ...).
//
// There is no timer: virtual time only advances at modelled charges, so
// interval boundaries are detected at hook/tap events — "while the next
// boundary is <= now, flush the window". Compute stretches between events
// are split across the windows they span when the next event arrives.
// Samples land in per-rank ring buffers (oldest evicted beyond capacity,
// eviction counted).
//
// Zero perturbation by construction: handlers never charge virtual time,
// never draw RNG, never block. Installing the sampler leaves final virtual
// times, profiler aggregates and recorded .mpst bytes bit-identical.
// Because every sampled input is a pure function of per-rank program
// order, exported time series are themselves bit-identical across
// scheduler backends and worker counts (the telemetry determinism tests
// compare bytes).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/sections/labels.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"
#include "telemetry/registry.hpp"

namespace mpisect::telemetry {

/// Ids of the built-in instruments (all Scope::Rank unless noted).
struct StandardInstruments {
  InstrumentId msgs_sent = 0;
  InstrumentId bytes_sent = 0;
  InstrumentId msgs_eager = 0;        ///< bytes <= net.eager_threshold
  InstrumentId msgs_rendezvous = 0;
  InstrumentId recvs_posted = 0;
  InstrumentId msgs_received = 0;
  InstrumentId bytes_received = 0;
  InstrumentId probes = 0;
  InstrumentId coll_entries = 0;
  InstrumentId nbc_posted = 0;     ///< nonblocking collectives posted
  InstrumentId nbc_completed = 0;  ///< nonblocking collective fences done
  /// MPI_Test polls. Process scope: poll counts depend on scheduling
  /// (yield interleaving), so a per-rank series would break cross-backend
  /// byte determinism of the exported CSV.
  InstrumentId test_calls = 0;
  InstrumentId mpi_calls = 0;
  InstrumentId section_enters = 0;
  InstrumentId omp_regions = 0;
  InstrumentId omp_compute_s = 0;
  InstrumentId omp_imbalance_s = 0;
  InstrumentId omp_overhead_s = 0;
  /// Fault-injection counters (Scope::Rank: TapFault events fire on the
  /// owning rank in program order, so these are deterministic).
  InstrumentId fault_drops = 0;           ///< dropped wire attempts
  InstrumentId fault_lost = 0;            ///< messages lost for good
  InstrumentId fault_duplicates = 0;      ///< duplicate deliveries
  InstrumentId fault_retransmit_s = 0;    ///< retransmit delay charged
  InstrumentId fault_stalls = 0;          ///< stall events taken
  InstrumentId fault_stall_s = 0;         ///< stall seconds charged
  InstrumentId fault_kills = 0;           ///< rank kills fired
  /// Process scope: channel backlog observed at deposit/post time —
  /// wall-clock-order dependent, Prometheus/live view only.
  InstrumentId send_queue_depth = 0;
  InstrumentId recv_queue_depth = 0;
};

struct SamplerOptions {
  /// Interval width in virtual seconds. <= 0 disables window sampling
  /// (the registry still counts). The default trades resolution against
  /// overhead: ~hundreds of windows for the repo's benchmark makespans.
  double dt = 0.05;
  /// Per-rank ring capacity in samples; oldest evicted beyond it.
  std::size_t ring_capacity = 1 << 16;
  /// Attribution depth: 0 = top-of-stack (exclusive leaf slices); k > 0 =
  /// truncate attribution at stack depth k (flame-graph style), so busy
  /// time rolls up into the depth-k ancestor. MPI_MAIN sits at depth 0,
  /// so 2 reproduces the paper's phase view of Lulesh (LagrangeNodal /
  /// LagrangeElements under LagrangeLeapFrog). Either way every instant
  /// lands in exactly one section — Eq. 6's numerator stays a partition.
  int phase_depth = 0;
  /// Register the StandardInstruments set and wire the mpisim/minomp
  /// hooks that feed it.
  bool standard_instruments = true;
};

class TelemetrySampler : public mpisim::Extension,
                         public mpisim::hooks::Tool {
 public:
  /// Install (or return the already-installed sampler of) `world`.
  static std::shared_ptr<TelemetrySampler> install(mpisim::World& world,
                                                   SamplerOptions options = {});
  TelemetrySampler(mpisim::World& world, SamplerOptions options);
  ~TelemetrySampler() override;

  /// Unregister from the world's ToolStack. Idempotent.
  void detach();

  [[nodiscard]] Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const Registry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const StandardInstruments& instruments() const noexcept {
    return std_;
  }
  [[nodiscard]] double dt() const noexcept { return options_.dt; }
  [[nodiscard]] int nranks() const noexcept {
    return static_cast<int>(ranks_.size());
  }
  [[nodiscard]] const sections::LabelRegistry& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] mpisim::World& world() noexcept { return *world_; }

  /// One flushed interval of one rank. `sections` maps interned label ->
  /// busy seconds, sorted by label id (ids are interning-order; exporters
  /// must key by *name* for cross-run stability).
  struct Sample {
    std::uint64_t interval = 0;  ///< window [interval*dt, (interval+1)*dt)
    std::vector<std::pair<sections::LabelId, double>> sections;
    double mpi_seconds = 0.0;
    /// Delta of each registry rank_scalars() instrument over this window.
    std::vector<double> deltas;
  };

  /// Snapshot of one rank's ring (copy, lock held briefly — safe while the
  /// simulation is running; this is what the live view polls).
  [[nodiscard]] std::vector<Sample> samples(int rank) const;
  /// Samples evicted from `rank`'s ring so far.
  [[nodiscard]] std::uint64_t dropped(int rank) const;

  // Extension lifecycle (rank threads).
  void on_rank_init(mpisim::Ctx& ctx) override;
  void on_rank_finalize(mpisim::Ctx& ctx) override;

  // Tool interface (invoked by the world's ToolStack).
  void on_call_begin(mpisim::Ctx& ctx, const mpisim::CallInfo& info) override;
  void on_call_end(mpisim::Ctx& ctx, const mpisim::CallInfo& info) override;
  void on_section_enter(mpisim::Ctx& ctx, mpisim::Comm& comm,
                        const char* label, char* data) override;
  void on_section_leave(mpisim::Ctx& ctx, mpisim::Comm& comm,
                        const char* label, char* data) override;
  void on_send_post(mpisim::Ctx& ctx, const mpisim::TapSend& tap) override;
  void on_recv_post(mpisim::Ctx& ctx, const mpisim::TapRecvPost& tap) override;
  void on_recv_wait(mpisim::Ctx& ctx, const mpisim::TapRecvWait& tap) override;
  void on_probe(mpisim::Ctx& ctx, const mpisim::TapProbe& tap) override;
  void on_coll_entry(mpisim::Ctx& ctx, std::uint64_t op,
                     double t_before) override;
  void on_request_test(mpisim::Ctx& ctx,
                       const mpisim::TapRequestTest& tap) override;
  void on_nbc_post(mpisim::Ctx& ctx, const mpisim::TapNbcPost& tap) override;
  void on_nbc_complete(mpisim::Ctx& ctx,
                       const mpisim::TapNbcComplete& tap) override;
  void on_omp_region(mpisim::Ctx& ctx, const mpisim::TapOmpRegion& r) override;
  void on_fault(mpisim::Ctx& ctx, const mpisim::TapFault& f) override;

 private:
  struct RankState {
    double t_last = 0.0;
    std::uint64_t window = 0;
    bool active = false;
    std::vector<sections::LabelId> stack;
    int call_depth = 0;
    /// Current window's busy seconds, indexed by LabelId (flat: the hot
    /// path runs once per hook event, a map lookup there dominates the
    /// sampler's overhead). `touched` lists the nonzero ids.
    std::vector<double> busy;
    std::vector<sections::LabelId> touched;
    double mpi_seconds = 0.0;
    std::vector<double> last_snapshot;
    std::vector<double> scratch;
    std::uint64_t dropped = 0;
    std::deque<Sample> ring;
    mutable std::mutex mu;  ///< guards ring + dropped only
  };

  [[nodiscard]] RankState& state(const mpisim::Ctx& ctx) {
    return *ranks_[static_cast<std::size_t>(ctx.rank())];
  }
  /// Attribute elapsed time up to `t`, flushing every crossed boundary.
  void advance(RankState& rs, int rank, double t);
  void attribute(RankState& rs, double d);
  void flush_window(RankState& rs, int rank);

  mpisim::World* world_;
  SamplerOptions options_;
  Registry registry_;
  StandardInstruments std_;
  sections::LabelRegistry labels_;
  std::size_t eager_threshold_ = 0;
  bool attached_ = false;
  std::vector<std::unique_ptr<RankState>> ranks_;
};

}  // namespace mpisect::telemetry
