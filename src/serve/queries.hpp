// The shared what-if query engine: one implementation of the
// info/replay/sweep/timeline/analyze queries, used by BOTH the offline
// CLIs (mpisect-replay, mpisect-analyze) and the mpisect-serve daemon.
// Queries are plain parameter structs; each run_* renders the final
// output string, so a served result is byte-identical to the CLI's by
// construction rather than by parallel re-implementation.
//
// Every run_* throws trace::TraceError on bad parameters (unknown model,
// malformed grids, unknown export format); callers map that to a CLI
// diagnostic or a protocol error response.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mpisim/machine.hpp"
#include "trace/file.hpp"

namespace mpisect::serve {

/// "recorded | preset1 | preset2 | ..." — shared help/errors text.
[[nodiscard]] std::string model_choices();

/// Machine-model selection plus the per-link/jitter/compute overrides a
/// what-if replay charges against.
struct ModelParams {
  std::string model = "recorded";  ///< "recorded" or a preset name
  double latency = 0.0;            ///< absolute link latency override (s)
  double bandwidth = 0.0;          ///< absolute bandwidth override (B/s)
  double latency_scale = 1.0;
  double bandwidth_scale = 1.0;
  double jitter_scale = 1.0;
  bool no_jitter = false;
  std::uint64_t eager = 0;  ///< eager/rendezvous threshold override
  std::string compute_scale = "1";  ///< positive float or "auto"
  /// Progress-model spec for the what-if frame: "recorded" (the trace
  /// header's own model) or a mpisim::ProgressModel::parse() spec.
  std::string progress = "recorded";
};

/// Lower end of a double-valued param's range; every one must be finite.
enum class NumRange {
  Positive,     ///< > 0: latency_scale, bandwidth_scale, jitter_scale
  NonNegative,  ///< >= 0: latency, bandwidth (0 = no override), tseq, dt
};
/// `v` if it is finite and in `range`, else a TraceError naming `name`.
double check_num(const char* name, double v, NumRange range);
/// check_num every double of p. The daemon's request params and the CLI
/// flags fill ModelParams alike; both reject the same values.
void check_model_params(const ModelParams& p);

struct ResolvedModel {
  mpisim::MachineModel machine;  ///< overheads already folded for progress
  double compute_scale = 1.0;
  mpisim::ProgressModel progress;  ///< resolved what-if progress model
};

/// Resolve the model name against the trace header and apply overrides.
[[nodiscard]] ResolvedModel resolve_model(const trace::TraceFile& tf,
                                          const ModelParams& p);

struct ReplayQuery {
  ModelParams model;
  std::string faults;  ///< fault plan spec, "" = none
  std::uint64_t fault_seed = 0;
  std::string format = "text";  ///< text | csv | json | chrome
  double tseq = 0.0;  ///< sequential reference time (0 = no Eq. 6 bounds)
};

struct TimelineQuery {
  ModelParams model;
  std::string faults;
  std::uint64_t fault_seed = 0;
  double dt = 0.0;  ///< window width (0 = header telemetry-dt, else /100)
  std::string format = "csv";  ///< csv | json | chrome
};

struct SweepQuery {
  std::vector<std::string> models{"recorded"};
  std::vector<double> latency_scales{1.0};
  std::vector<double> bandwidth_scales{1.0};
  std::vector<std::string> compute_scales{"1"};
  std::vector<double> drop_rates{0.0};
  /// Progress-model axis: each entry is "recorded" or a ProgressModel spec;
  /// the sweep CSV gains a `progress` column with the canonical spelling.
  std::vector<std::string> progress{"recorded"};
  std::uint64_t fault_seed = 0;
  double tseq = 0.0;
};

/// Largest sweep grid run_sweep evaluates (daemon request or CLI). A
/// sweep's time, memory and output bytes grow linearly with its points;
/// the largest documented grid has 36.
inline constexpr std::uint64_t kMaxSweepPoints = 1024;

/// Points in q's grid (the product of its six list lengths), saturating at
/// kMaxSweepPoints + 1 so that no product overflows.
[[nodiscard]] std::uint64_t sweep_points(const SweepQuery& q);
/// Throws TraceError when q's grid has more than kMaxSweepPoints points.
void check_sweep_grid(const SweepQuery& q);

struct AnalyzeQuery {
  std::string format = "text";  ///< text | csv | json
};

[[nodiscard]] std::string run_info(const trace::TraceFile& tf);
[[nodiscard]] std::string run_replay(const trace::TraceFile& tf,
                                     const ReplayQuery& q);
[[nodiscard]] std::string run_timeline(const trace::TraceFile& tf,
                                       const TimelineQuery& q);
[[nodiscard]] std::string run_sweep(const trace::TraceFile& tf,
                                    const SweepQuery& q);
/// `findings` (optional) receives the analyzer's finding count — the CLI
/// turns it into exit status 2.
[[nodiscard]] std::string run_analyze(const trace::TraceFile& tf,
                                      const AnalyzeQuery& q,
                                      std::size_t* findings = nullptr);

// Canonical cache-key forms: a deterministic, exhaustive rendering of
// every parameter that can change the answer. Two queries with equal
// canonical forms produce identical results for the same trace digest.
[[nodiscard]] std::string canonical(const ModelParams& p);
[[nodiscard]] std::string canonical(const ReplayQuery& q);
[[nodiscard]] std::string canonical(const TimelineQuery& q);
[[nodiscard]] std::string canonical(const SweepQuery& q);
[[nodiscard]] std::string canonical(const AnalyzeQuery& q);

}  // namespace mpisect::serve
