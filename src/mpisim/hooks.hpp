// Event descriptors of the PMPI-style tool interface.
//
// Real MPI tools interpose at link time: the tool defines MPI_Send, the
// runtime provides PMPI_Send. MiniMPI reproduces that contract with a
// per-World hooks::ToolStack (toolstack.hpp): every public entry point
// notifies the attached tools, and the *application never names a tool* —
// exactly the decoupling the paper's MPI_Section proposal relies on ("A
// profiling tool redefining those functions is able to intercept Section
// events in a straightforward manner").
//
// This header holds what the tools are told. Two event families:
//   * the PMPI view: call begin/end notifications carrying a CallInfo
//     descriptor (what a PMPI wrapper library sees, with collective-
//     internal traffic hidden), communicator lifecycle, MPI_Pcontrol and
//     the paper's Figure 2 section callbacks,
//     MPIX_Section_enter_cb / MPIX_Section_leave_cb(comm, label, data[32]),
//     with the 32-byte tool payload preserved between enter and leave;
//   * the message-level view: one Tap* descriptor per modelled message,
//     collective entry, MiniOMP region and injected fault.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpisect::mpisim {

class Ctx;
class Comm;

/// Which MPI entry point a CallInfo describes.
enum class MpiCall {
  Send,
  Recv,
  Isend,
  Irecv,
  Wait,
  Sendrecv,
  Probe,
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Scatter,
  Scatterv,
  Gather,
  Gatherv,
  Allgather,
  Alltoall,
  CommSplit,
  CommDup,
  CommFree,
  Init,
  Finalize,
  Pcontrol,
  // Appended after Pcontrol: recorded CollBegin events store the numeric
  // MpiCall value, so existing values must never be renumbered.
  Test,
  Iallreduce,
  Ibarrier,
};

/// Number of distinct MpiCall values (for exhaustive tables/tests).
inline constexpr int kMpiCallCount = static_cast<int>(MpiCall::Ibarrier) + 1;

[[nodiscard]] const char* mpi_call_name(MpiCall c) noexcept;
[[nodiscard]] bool is_collective(MpiCall c) noexcept;
[[nodiscard]] bool is_point_to_point(MpiCall c) noexcept;
/// True for calls whose begin/end bracket may block the caller waiting on
/// other ranks (the wait-for-graph candidates of correctness tools).
[[nodiscard]] bool is_blocking(MpiCall c) noexcept;

/// Descriptor passed to the generic begin/end hooks.
struct CallInfo {
  MpiCall call = MpiCall::Init;
  int comm_context = 0;   ///< communicator context id
  int rank = 0;           ///< caller's rank in that communicator
  int comm_size = 1;
  int peer = -1;          ///< destination/source/root; -1 if n/a
  int tag = -1;
  std::size_t bytes = 0;  ///< payload size this rank sends/receives
  double t_virtual = 0.0; ///< caller's virtual clock at hook time
  /// Nonblocking-operation id (per rank, starting at 1): set on Isend/Irecv
  /// and on the Wait that completes the same operation. 0 = no request.
  std::uint64_t request = 0;
};

/// Descriptor for communicator-lifecycle notifications (MUST-style tools
/// track groups and resources through these, not through app cooperation).
struct CommLifecycle {
  int context = 0;          ///< new communicator's context id
  int parent_context = -1;  ///< context it was derived from; -1 for world
  int rank = 0;             ///< caller's rank in the new communicator
  int size = 1;
  /// Member world ranks, indexed by comm rank. Borrowed pointer, valid only
  /// for the duration of the callback — copy to retain.
  const std::vector<int>* world_ranks = nullptr;
};

/// Size of the tool payload carried across a section's lifetime (Fig. 2).
inline constexpr std::size_t kSectionDataBytes = 32;

// ---------------------------------------------------------------------------
// Message-level descriptors
// ---------------------------------------------------------------------------
//
// The PMPI view above hides collective-internal traffic. Trace capture
// needs the opposite view — every modelled message, with the logical
// identifiers (per-edge sequence number, per-rank op id) that key the
// deterministic jitter draws. The Tap* descriptors expose exactly those
// identifiers so a recorded skeleton can be re-costed under a different
// MachineModel and, on the recorded model, reproduce the original virtual
// timeline bit for bit. Tools observe them and never charge virtual time.

/// A send entered the matching engine. `t_before` is the sender clock before
/// the send-side CPU overhead was charged with op id `op`.
struct TapSend {
  const void* token = nullptr;  ///< correlates with the matching TapSendWait
  int comm_context = 0;
  int src_world = 0;
  int dst_world = 0;
  int tag = 0;
  std::size_t bytes = 0;
  std::uint64_t seq = 0;  ///< per-(comm,src,dst) wire sequence (jitter key)
  std::uint64_t op = 0;   ///< sender overhead draw key
  double t_before = 0.0;
  /// Unmatched messages queued in the destination channel right after this
  /// deposit (0 = matched an already-posted receive). Wall-clock-order
  /// dependent — observability only, never a replay input.
  std::size_t queue_depth = 0;
};

/// A send completed locally (rendezvous senders have synced to delivery).
struct TapSendWait {
  const void* token = nullptr;
  double t_before = 0.0;  ///< clock before any rendezvous sync
};

/// A receive was posted (clock untouched).
struct TapRecvPost {
  const void* token = nullptr;  ///< correlates with the matching TapRecvWait
  int comm_context = 0;
  /// Unmatched posted receives in this rank's channel right after the post
  /// (0 = matched a queued message). Observability only.
  std::size_t queue_depth = 0;
  /// Posted envelope: requested source world rank (kAnySource for a
  /// wildcard) and tag (kAnyTag for a wildcard). Offline match-set
  /// analysis needs the envelope as posted, not as matched.
  int src_posted = 0;
  int tag_posted = 0;
};

/// A receive completed: matched message identity plus the receive-side
/// overhead op id. `t_before` is the clock before the delivery sync.
struct TapRecvWait {
  const void* token = nullptr;
  int comm_context = 0;
  int src_world = 0;
  std::uint64_t seq = 0;
  std::size_t bytes = 0;
  std::uint64_t op = 0;
  double t_before = 0.0;
};

/// A probe returned a matching envelope (identified by src/seq).
struct TapProbe {
  int comm_context = 0;
  int src_world = 0;
  std::uint64_t seq = 0;
  double t_before = 0.0;
  /// Probed envelope as requested: source world rank (kAnySource for a
  /// wildcard) and tag (kAnyTag for a wildcard).
  int src_posted = 0;
  int tag_posted = 0;
};

/// A Request::test() completion poll ran. Observational only: test never
/// charges virtual time (its spin count is scheduling-dependent), so the
/// recorder deliberately ignores this tap to keep traces deterministic.
struct TapRequestTest {
  std::uint64_t request = 0;  ///< the polled request's id
  bool completed = false;     ///< this poll's outcome
  double t = 0.0;             ///< caller's (unchanged) clock
};

/// A nonblocking collective was posted: the rank deposited its contribution
/// and returned without blocking. `op` keys the collective-entry overhead
/// charged before the deposit; `t_before` is the clock before that charge.
struct TapNbcPost {
  int comm_context = 0;
  std::uint64_t gen = 0;  ///< per-(comm,rank) nonblocking-collective ordinal
  MpiCall call = MpiCall::Ibarrier;
  int members = 0;        ///< communicator size (the fence quorum)
  std::size_t bytes = 0;
  std::uint64_t op = 0;
  double t_before = 0.0;
};

/// A nonblocking collective completed at its wait fence: every member's
/// contribution had arrived and the completion time was charged.
struct TapNbcComplete {
  int comm_context = 0;
  std::uint64_t gen = 0;
  double t_before = 0.0;   ///< clock before the completion sync
  double t_complete = 0.0; ///< modelled completion time synced to
};

/// A split/dup metadata rendezvous synchronized this communicator:
/// leave time = max member entry time + rounds * inter-node latency.
struct TapCommSync {
  int comm_context = 0;
  std::uint64_t gen = 0;  ///< per-comm rendezvous generation
  int members = 0;
  int rounds = 0;
  double t_before = 0.0;  ///< caller clock at rendezvous entry
};

/// A MiniOMP worksharing region charged its modelled parallel time on the
/// calling rank's clock. Fired by Team::charge_region after the charge; the
/// breakdown is deterministic per rank (pure function of the model inputs).
struct TapOmpRegion {
  int threads = 0;
  double serial_seconds = 0.0;  ///< serial duration being parallelized
  double compute = 0.0;         ///< charged parallel compute time
  double imbalance = 0.0;       ///< charged schedule-imbalance time
  double overhead = 0.0;        ///< charged fork/join overhead
  double t_before = 0.0;        ///< clock before the region's charges
};

/// Kind of injected-fault event a TapFault describes.
enum class FaultKind {
  Drop,       ///< transmissions dropped then recovered by retransmit
  Loss,       ///< retry budget exhausted: the message will never arrive
  Duplicate,  ///< a duplicate copy was put on the wire
  Stall,      ///< a straggler stall charged lost progress on a rank
  Kill,       ///< the rank is about to retire mid-run
};

/// An injected fault materialized. Fired on the rank that owns the event
/// (the sender for wire faults, the faulting rank for stall/kill), so
/// fault telemetry stays deterministic. Observational only — by the time
/// the tap fires, the cost/decision has already been applied.
struct TapFault {
  FaultKind kind = FaultKind::Drop;
  int comm_context = -1;   ///< -1 for rank-level faults
  int src_world = -1;
  int dst_world = -1;
  std::uint64_t seq = 0;
  int attempts = 1;        ///< wire transmissions modelled (Drop/Loss)
  double seconds = 0.0;    ///< retransmit delay / stall duration
  double t = 0.0;          ///< owning rank's clock at the event
};

}  // namespace mpisect::mpisim
