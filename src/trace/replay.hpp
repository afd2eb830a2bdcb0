// Virtual-time what-if replay of a recorded trace.
//
// The replayer re-executes the recorded communication skeleton without the
// application: compute gaps are re-charged from the recorded clock values
// (optionally rescaled), and every message, collective entry and
// rendezvous is re-costed through a caller-chosen MachineModel using the
// *recorded* RNG keys — so the what-if machine sees the same logical
// jitter draws the original machine did, just with different parameters.
//
// One walk advances frame 0 plus K what-if frames per rank:
//   frame 0    re-simulates the recorded machine. It reproduces the
//              recorded clock exactly (bit for bit) by induction, which
//              lets gap events restore absolute recorded times and doubles
//              as an integrity check: a recorded timestamp behind frame 0
//              means the trace and its header model disagree.
//   frame 1..K each run one what-if point: its machine, compute scale,
//              progress model and fault plan. When a point's model equals
//              the recorded one (and compute_scale is 1) its frame stays in
//              lockstep with frame 0 and is bit-identical to the original
//              run.
// replay() of one point is a walk with K = 1; replay() of many points
// walks once per batch of up to 8 points, and each point's result equals
// its own one-point replay. Verify is a frame-0-only walk: with the
// recorded model a what-if frame would be frame 0 bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/sections/metrics.hpp"
#include "mpisim/faults/plan.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/progress.hpp"
#include "trace/file.hpp"

namespace mpisect::trace {

struct ReplayOptions {
  /// Multiplier applied to recorded compute gaps (e.g. 0.5 = CPU twice as
  /// fast). 1.0 keeps recorded compute time.
  double compute_scale = 1.0;
  /// Collect per-instance section metrics (Fig. 3 statistics).
  bool collect_metrics = true;
  /// Keep a merged, time-ordered section timeline (chrome export, tests).
  bool timeline = false;
  /// Fault plan re-costed onto the what-if frame: drop/delay/degrade rules
  /// perturb wire costs, slow rules scale compute gaps, stall rules charge
  /// at the first event past their trigger. Messages lost for good (retry
  /// budget exhausted) and kill rules make the recorded skeleton
  /// unsatisfiable and throw TraceError. Empty = no faults.
  mpisim::faults::FaultPlan faults = {};
  /// Seed for the plan's fault draws; 0 = the trace header's recorded
  /// seed, so a replay under the original run's plan re-draws identically.
  std::uint64_t fault_seed = 0;
  /// Progress model for the what-if frame. Unset = the trace header's own
  /// model (no change; pre-v4 traces recorded blocking-only). The caller
  /// must pass a `machine` whose overheads are already folded for this
  /// model — see fold_progress().
  std::optional<mpisim::ProgressModel> progress = std::nullopt;
};

/// Adjust a what-if machine's per-message CPU overheads for a change of
/// progress model: remove the recorded run's opportunistic entry-poll fold
/// (a recorded header machine already carries it) and apply the what-if
/// model's. `machine_is_recorded` says whether `m` came from a trace
/// header (folded for `rec`) or is a pristine preset (unfolded).
[[nodiscard]] mpisim::MachineModel fold_progress(
    mpisim::MachineModel m, const mpisim::ProgressModel& rec,
    const mpisim::ProgressModel& cur, bool machine_is_recorded);

/// Per-(comm, label) section statistics of the replayed timeline.
struct ReplaySectionStat {
  std::string label;
  int comm = 0;
  int ranks = 0;               ///< ranks that entered the section
  std::uint64_t instances = 0; ///< entries summed over ranks
  double total_inclusive = 0.0;  ///< inclusive seconds summed over ranks
  double mean_per_process = 0.0; ///< total_inclusive / ranks
  sections::AggregatedMetrics agg;  ///< Tmin/Tmax span, imbalance, ...
};

/// One section boundary in the merged timeline (sorted by (t, rank)).
struct TimelineEntry {
  double t = 0.0;
  int rank = 0;
  int comm = 0;
  std::uint32_t label = 0;
  bool enter = false;
  int depth = 0;        ///< nesting depth at the boundary
  long instance = 0;    ///< per-rank instance ordinal
};

struct ReplayResult {
  int nranks = 0;
  std::vector<double> final_times;
  double makespan = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t collectives = 0;
  std::uint64_t bytes_sent = 0;
  std::vector<std::string> labels;  ///< copied from the trace
  std::vector<ReplaySectionStat> sections;  ///< sorted by (comm, label)
  /// Per-rank (comm, label) totals in recorded footer order — compared
  /// against the trace footer by verify.
  std::vector<std::vector<SectionTotal>> rank_totals;
  std::vector<TimelineEntry> timeline;  ///< only when options.timeline
};

/// Replay `tf` under `machine`. Throws TraceError on dependency stalls
/// (truncated or internally inconsistent traces) and on integrity-check
/// failures of the recorded-model frame.
[[nodiscard]] ReplayResult replay(const TraceFile& tf,
                                  const mpisim::MachineModel& machine,
                                  const ReplayOptions& options = {});

/// One what-if point of a batched replay.
struct WhatIfPoint {
  mpisim::MachineModel machine;
  ReplayOptions options;
};

/// Replay every point, one walk per batch of up to 8 points. Results come
/// in point order, each equal to replay(tf, p.machine, p.options). Throws
/// TraceError when any point's replay would; which point's error is
/// reported when several fail is unspecified.
[[nodiscard]] std::vector<ReplayResult> replay(
    const TraceFile& tf, std::span<const WhatIfPoint> points);

/// Same-model, scale-1 replay with exact comparison against the recorded
/// footer (per-rank final times and section totals).
struct VerifyResult {
  bool ok = true;
  std::string detail;  ///< first mismatch, empty when ok
};
[[nodiscard]] VerifyResult verify_roundtrip(const TraceFile& tf);

}  // namespace mpisect::trace
