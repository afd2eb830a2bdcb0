// A section-aware profiling tool (the paper's MALP-style consumer).
//
// SectionProfiler attaches to a World purely through the PMPI-analogue
// HookTable — it never requires application changes, demonstrating the
// paper's central claim: once the runtime standardizes MPIX_Section events,
// *any* tool can consume phase semantics for free.
//
// What it demonstrates / provides:
//   * uses the 32-byte section payload (Fig. 2) to carry its own entry
//     timestamp from enter to leave — no tool-side shadow stack needed for
//     timing;
//   * per-rank, lock-free accumulation (each rank thread owns its slot);
//   * inclusive and exclusive per-section times;
//   * attribution of MPI-call time to the enclosing section (on_call hooks),
//     so a report can say "this phase is 95% communication";
//   * optional instance retention for Fig. 3 cross-rank metrics
//     (Tmin/Tmax/imbalance) on small runs;
//   * post-run reports in text/CSV form (see profiler/report.hpp).
//
//   SectionProfiler prof(world, {.keep_instances = true});
//   world.run(app);
//   std::cout << render_text(prof.report());
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sections/labels.hpp"
#include "core/sections/metrics.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/lane_table.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"

namespace mpisect::profiler {

struct ProfilerOptions {
  /// Retain every (rank, instance) span for cross-rank Fig. 3 metrics.
  /// O(ranks * instances) memory — enable on small runs only.
  bool keep_instances = false;
  /// Attribute MPI-call time to the enclosing section.
  bool track_mpi_calls = true;
};

/// Per-(communicator,label) accumulation on one rank.
struct LabelStats {
  long count = 0;              ///< completed instances on this rank
  double inclusive = 0.0;      ///< sum of (t_out - t_in)
  double exclusive = 0.0;      ///< inclusive minus nested-child inclusive
  double mpi_time = 0.0;       ///< MPI-call time inside this section
  long mpi_calls = 0;
  long p2p_calls = 0;
  long collective_calls = 0;
  double min_instance = 0.0;
  double max_instance = 0.0;
};

/// One retained instance span (keep_instances mode).
struct InstanceSpan {
  std::uint32_t label = 0;
  std::uint64_t instance = 0;
  int comm_context = 0;
  double t_in = 0.0;
  double t_out = 0.0;
  int depth = 0;
};

class SectionProfiler : public mpisim::hooks::Tool {
 public:
  SectionProfiler(mpisim::World& world, ProfilerOptions options = {});
  ~SectionProfiler() override;

  SectionProfiler(const SectionProfiler&) = delete;
  SectionProfiler& operator=(const SectionProfiler&) = delete;

  /// Remove the tool from the world's stack (accumulated data survives).
  void detach();

  [[nodiscard]] const sections::LabelRegistry& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] int nranks() const noexcept {
    return static_cast<int>(ranks_.size());
  }

  /// Post-run: per-rank stats for (comm context, label); nullptr if never
  /// observed on that rank.
  [[nodiscard]] const LabelStats* rank_stats(int rank, int comm_context,
                                             std::string_view label) const;

  struct SectionTotals {
    std::string label;
    int comm_context = 0;
    long instances = 0;       ///< max per-rank count (collective sections:
                              ///< identical on every rank)
    int ranks_seen = 0;
    double total_time = 0.0;  ///< sum over ranks of inclusive time
    double mean_per_process = 0.0;
    double exclusive_total = 0.0;
    double mpi_time = 0.0;
    long mpi_calls = 0;
  };
  /// Aggregated totals for every observed section, outer sections first.
  [[nodiscard]] std::vector<SectionTotals> totals() const;
  /// Totals for one label on the world communicator context.
  [[nodiscard]] SectionTotals totals_for(std::string_view label) const;

  /// Mean over ranks of the MPI_MAIN inclusive time — the run's walltime
  /// as a tool would report it.
  [[nodiscard]] double main_time() const;

  /// keep_instances mode: Fig. 3 metrics of instance `k` of a label
  /// (cross-rank pairing by instance id; collective semantics guarantee
  /// the id agrees across ranks).
  [[nodiscard]] sections::InstanceMetrics instance_metrics(
      int comm_context, std::string_view label, std::uint64_t instance) const;
  /// keep_instances mode: aggregation over all instances of a label.
  [[nodiscard]] sections::AggregatedMetrics aggregated_metrics(
      int comm_context, std::string_view label) const;
  /// Number of instances retained for a label (0 in aggregate mode).
  [[nodiscard]] std::uint64_t instance_count(int comm_context,
                                             std::string_view label) const;

  /// keep_instances mode: raw per-rank trace, time-ordered per rank.
  [[nodiscard]] const std::vector<InstanceSpan>& trace(int rank) const;

  // Tool interface (invoked by the world's ToolStack).
  void on_section_enter(mpisim::Ctx& ctx, mpisim::Comm& comm,
                        const char* label, char* data) override;
  void on_section_leave(mpisim::Ctx& ctx, mpisim::Comm& comm,
                        const char* label, char* data) override;
  void on_call_begin(mpisim::Ctx& ctx, const mpisim::CallInfo& info) override;
  void on_call_end(mpisim::Ctx& ctx, const mpisim::CallInfo& info) override;

 private:
  struct OpenSection {
    std::uint32_t label = 0;
    std::uint64_t instance = 0;
    int comm_context = 0;
    double t_in = 0.0;
    double child_inclusive = 0.0;  ///< accumulated nested time
    double mpi_time = 0.0;
    long mpi_calls = 0;
    long p2p_calls = 0;
    long coll_calls = 0;
  };
  struct RankData {
    std::vector<OpenSection> stack;
    /// Both keyed by sections::occurrence_key(context, label).
    mpisim::LaneTable<LabelStats> stats;
    mpisim::LaneTable<std::uint64_t> occurrences;
    std::vector<InstanceSpan> spans;
    double call_begin_time = 0.0;
    int call_depth = 0;
  };

  mpisim::World* world_;
  ProfilerOptions options_;
  sections::LabelRegistry labels_;
  std::vector<RankData> ranks_;
};

}  // namespace mpisect::profiler
