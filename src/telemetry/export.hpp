// Telemetry exporters: CSV / JSON time series, chrome-trace counter
// tracks, and the Prometheus text page of the registry and the obs
// counters.
//
// Every format leads with the build provenance (support::provenance):
// CSV as `# ` comment lines, JSON under a "provenance" key, chrome-trace
// under "otherData", Prometheus as leading comments. Deliberately no
// wall-clock timestamps — the determinism tests compare exported bytes
// across scheduler backends and worker counts. Rows are keyed by section
// *name* and emitted in name order (never by interned label id, whose
// assignment order is wall-clock dependent).
#pragma once

#include <string>
#include <string_view>

#include "support/provenance.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/timeline.hpp"

namespace mpisect::telemetry {

/// Per-(window, section) rows:
///   interval,t_start,t_end,section,ranks,total,per_process,max_rank,
///   min_rank,imbalance,binding,bound
/// preceded by provenance comments and a `# dt=... nranks=... dropped=...`
/// meta comment.
[[nodiscard]] std::string timeline_csv(
    const Timeline& tl,
    const support::Provenance& p = support::build_provenance());

/// Per-window counter deltas (rank-scope instruments summed over ranks):
///   interval,t_start,counter,value  — plus mpi seconds as counter
///   "mpi.seconds".
[[nodiscard]] std::string counters_csv(
    const Timeline& tl,
    const support::Provenance& p = support::build_provenance());

/// Full timeline as one JSON document (windows, sections, counters,
/// section totals, overall Eq. 6 attribution).
[[nodiscard]] std::string timeline_json(
    const Timeline& tl,
    const support::Provenance& p = support::build_provenance());

/// chrome://tracing counter tracks ("ph":"C"): one track per section
/// (busy seconds per window), one for MPI seconds, one for the windowed
/// Eq. 6 bound. Load alongside the replay's duration events.
[[nodiscard]] std::string chrome_counters(
    const Timeline& tl,
    const support::Provenance& p = support::build_provenance());

/// Prometheus text exposition of the registry's current state: scalars as
/// `mpisect_<name>{rank="r"} v` (+ an aggregate sample without the rank
/// label), distributions as cumulative histograms. A pure function of the
/// registry (mpisect-analyze --telemetry is byte-compared).
[[nodiscard]] std::string prometheus_text(
    const Registry& reg,
    const support::Provenance& p = support::build_provenance());

/// The metrics page: prometheus_text() followed by every obs_* series
/// (span tracer health, codec and trace-writer throughput, scheduler and
/// memory totals of the process; wall-clock, so never deterministic).
/// Serve's {"op":"stats"} answers it; mpisect-top --export prom prints it.
[[nodiscard]] std::string metrics_page(
    const Registry& reg,
    const support::Provenance& p = support::build_provenance());

/// Parse a timeline_csv() document back into a Timeline (provenance and
/// counter series are not recovered). Used by `mpisect-top --post`.
/// Throws std::runtime_error on malformed input.
[[nodiscard]] Timeline timeline_from_csv(std::string_view csv);

}  // namespace mpisect::telemetry
