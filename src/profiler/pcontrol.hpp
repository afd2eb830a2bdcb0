// IPM-style MPI_Pcontrol phase profiling — the related-work baseline
// (paper Sec. 6): "the IPM tool provides MPI level phase outlining by
// relying on the MPI_Pcontrol function call ... as the Pcontrol semantic is
// not defined by the MPI standard, actions have to be manually encoded and
// therefore dependent from the target tool."
//
// This tool encodes the common IPM convention:
//   MPI_Pcontrol(1, "label")  -> start phase "label"
//   MPI_Pcontrol(-1, "label") -> end phase "label"
//   MPI_Pcontrol(0, ...)      -> ignored (tracing toggle in IPM)
//
// Deliberately *local*: no collective semantics, no nesting enforcement, no
// cross-rank instance identity — phases are per-rank intervals, which is
// exactly the limitation the MPI_Section proposal removes. The ablation
// bench contrasts the two on the same run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/sections/labels.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"

namespace mpisect::profiler {

/// A hooks::Tool at kOrderProfiler: attaches on construction, detaches on
/// destruction.
class PcontrolPhases final : public mpisim::hooks::Tool {
 public:
  explicit PcontrolPhases(mpisim::World& world);
  ~PcontrolPhases() override;
  PcontrolPhases(const PcontrolPhases&) = delete;
  PcontrolPhases& operator=(const PcontrolPhases&) = delete;

  struct PhaseStats {
    long count = 0;
    double total = 0.0;  ///< summed per-rank interval durations
    long unmatched_starts = 0;
    long unmatched_ends = 0;
  };

  /// Per-rank stats for one phase label.
  [[nodiscard]] const PhaseStats* rank_phase(int rank,
                                             std::string_view label) const;
  /// Sum over ranks.
  [[nodiscard]] PhaseStats total_phase(std::string_view label) const;
  [[nodiscard]] std::vector<std::string> phase_labels() const;
  /// Total protocol misuse observed (unmatched starts/ends) — sections
  /// would have rejected these; Pcontrol silently mis-measures.
  [[nodiscard]] long protocol_errors() const;

 private:
  void on_pcontrol(mpisim::Ctx& ctx, int level, const char* label) override;

  struct RankData {
    std::map<std::string, double> open;  ///< label -> start time
    std::map<std::string, PhaseStats> stats;
  };

  mpisim::World& world_;
  std::vector<RankData> ranks_;
};

}  // namespace mpisect::profiler
