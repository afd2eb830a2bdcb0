// Recorded-frame interpretation of a .mpst trace for offline analysis.
//
// Re-derives, without re-execution, everything the happens-before passes
// need from the recorded event skeleton. It is a one-frame trace::Walker
// over the recorded machine and progress model, the same walk and cost
// arithmetic as trace::replay's recorded frame:
//
//   * per-event virtual completion times under the *recorded* machine
//     model, equal to replay's recorded frame event for event (so section
//     enter/exit times sum to the recorded footer totals, and the critical
//     path's total time equals the replay makespan exactly);
//   * the binding predecessor of every event — the (rank, event) whose
//     completion the event's time actually derives from when a cross-rank
//     term wins the max (message delivery, rendezvous sync, comm-sync
//     barrier). Walking binding predecessors backwards from the last rank
//     to finish yields the critical path;
//   * per-rank vector clocks (Lamport/Mattern) capturing the happens-before
//     partial order: program order, send -> receive completion, rendezvous
//     receive-post -> send-wait, probed send -> probe, and comm-sync
//     barrier joins. Collectives are already lowered to internal p2p in the
//     trace, so no extra edges are needed;
//   * the channel database: every send keyed by (comm, src, dst, seq) with
//     its recorded matching receive, and every receive with its *posted*
//     envelope (v3 traces) — the raw material of ISP/MUST-style match sets.
//
// Vector clocks are only materialized when the trace contains wildcard
// receives (the only consumers); deterministic traces skip the O(ranks)
// per-event cost entirely.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "trace/file.hpp"

namespace mpisect::analysis {

inline constexpr std::uint32_t kNoSection = 0xFFFFFFFFu;

/// Offline view of one recorded event after interpretation.
struct EventInfo {
  double t = 0.0;  ///< recorded-frame virtual clock after this event
  /// Cross-rank binding predecessor: the event this one's time derives
  /// from when a remote term won the max. parent_rank < 0 means the
  /// binding is local (program order).
  int parent_rank = -1;
  std::uint32_t parent_idx = 0;
  /// Innermost section label at this event (kNoSection outside sections).
  std::uint32_t section = kNoSection;
  int section_comm = -1;
};

/// FIFO channel identity: every (communicator, src, dst) triple carries an
/// independent sequence-numbered message stream.
struct ChannelKey {
  int comm = 0;
  int src = 0;
  int dst = 0;
  auto operator<=>(const ChannelKey&) const = default;
};

/// One recorded send and its recorded match.
struct SendInfo {
  std::uint64_t seq = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  std::uint32_t event_idx = 0;  ///< SendPost index in the sender's stream
  bool rendezvous = false;
  bool matched = false;          ///< a RecvPost claimed this message
  std::uint32_t recv_post_idx = 0;
  bool completed = false;        ///< the matching RecvWait was recorded
  std::uint32_t recv_wait_idx = 0;
};

/// One recorded receive (post + optional completion).
struct RecvInfo {
  int rank = -1;                 ///< destination world rank
  int comm = 0;
  std::uint32_t post_idx = 0;    ///< RecvPost index in the stream
  bool completed = false;
  std::uint32_t wait_idx = 0;    ///< RecvWait index (valid if completed)
  int post_src = 0;              ///< posted source (kAnySource = wildcard)
  int post_tag = 0;              ///< posted tag (kAnyTag = wildcard)
  int matched_src = 0;           ///< recorded matched source world rank
  std::uint64_t seq = 0;         ///< recorded matched wire sequence
};

struct InterpResult {
  /// times[rank][event] — parallel to TraceFile::ranks[rank].events.
  std::vector<std::vector<EventInfo>> times;
  std::vector<double> t0;  ///< per-rank clock at MPI_Init (start skew)
  std::vector<double> final_times;
  double makespan = 0.0;
  int last_rank = -1;  ///< argmax of final_times (smallest on ties)

  std::map<ChannelKey, std::vector<SendInfo>> channels;  ///< seq-ordered
  std::vector<RecvInfo> recvs;  ///< walk order (per rank: post order)
  std::vector<std::vector<std::size_t>> rank_recvs;  ///< rank -> recvs[] slots

  /// clocks[rank][event] — vector clocks (empty unless wildcards present
  /// and the trace recorded posted envelopes, i.e. format v3).
  std::vector<std::vector<std::vector<std::uint64_t>>> clocks;
  bool has_wildcard = false;
  bool envelopes_recorded = true;  ///< false for pre-v3 traces

  /// context id -> member world ranks observed using it (sorted).
  std::map<int, std::vector<int>> comm_members;

  /// True iff event a (identified by rank+index) happens-before event b.
  /// Only valid when clocks are materialized.
  [[nodiscard]] bool happens_before(int rank_a, std::uint32_t idx_a,
                                    int rank_b, std::uint32_t idx_b) const;
};

/// Interpret the recorded frame. Throws trace::TraceError on structurally
/// inconsistent traces (bad backrefs, dependency stalls, footer mismatch).
[[nodiscard]] InterpResult interpret(const trace::TraceFile& tf);

}  // namespace mpisect::analysis
