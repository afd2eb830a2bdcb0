// Message and posted-receive records for the matching engine.
//
// A Message may carry a real payload (Full-fidelity apps) or only a modelled
// byte count (bench sweeps) — the charge/execute decoupling described in
// DESIGN.md. Virtual-time fields record when the send started, when an eager
// message becomes available at the receiver, and (once matched) when the
// transfer completes.
//
// Both records have two parties: the rank that created it (sender or
// receiver) and the channel that matches it. In a World they come from the
// world's record pools (record_pool.hpp) and go back when both parties are
// done: each party bumps `parties_done` under the matching channel's mutex,
// the one that sets it to 2 returns the record. A creator that saw the
// channel's part end under that mutex (a match reported by deposit, a
// completed wait) is the second party by construction and returns the
// record without the count (Channel::release).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpisect::mpisim {

/// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// User tags must be in [0, kTagUb); higher values are reserved for the
/// runtime's internal collective algorithms.
inline constexpr int kTagUb = 1 << 20;
inline constexpr int kInternalTagBase = kTagUb;

/// Completion record returned by receive operations.
struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;     ///< size of the message that matched
  double t_complete = 0.0;   ///< virtual completion time
  /// Wire sequence number of the matched message on its (comm,src,dst)
  /// edge — the jitter-draw key trace tools need to re-cost the transfer.
  std::uint64_t seq = 0;
};

struct Message {
  int src = 0;               ///< rank in the communicator
  int tag = 0;
  std::uint64_t seq = 0;     ///< per-(src,dst) sequence in this comm
  std::size_t bytes = 0;     ///< modelled size
  std::vector<std::byte> payload;  ///< empty when modelled-only

  double t_send_start = 0.0; ///< sender clock when the wire transfer begins
  double wire_cost = 0.0;    ///< latency + bytes/bw (+ jitter), precomputed
  double t_avail = 0.0;      ///< eager: arrival time at the receiver
  bool rendezvous = false;

  // Injected-fault transport flags (set by the fault engine, consumed by
  // the channel): a lost message is black-holed at deposit; a duplicate
  // copy is suppressed when the retransmit policy dedups.
  bool fault_lost = false;
  bool fault_duplicate = false;

  // Set at match time:
  bool delivered = false;
  /// Sender and channel done with the record (guarded by the channel).
  std::uint8_t parties_done = 0;
  double t_deliver = 0.0;
};

struct PostedRecv {
  int src = kAnySource;      ///< requested source (or kAnySource)
  int tag = kAnyTag;         ///< requested tag (or kAnyTag)
  double t_post = 0.0;       ///< receiver clock when the receive was posted
  void* buf = nullptr;       ///< destination buffer (nullptr = discard)
  std::size_t max_bytes = 0;

  // Set at match time:
  bool completed = false;
  bool truncated = false;
  /// Receiver and channel done with the record (guarded by the channel).
  std::uint8_t parties_done = 0;
  Status status;
};

}  // namespace mpisect::mpisim
