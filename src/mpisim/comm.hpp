// Groups, communicators and the per-rank Comm handle.
//
// A CommImpl is the shared state of one communicator: the member group, a
// matching Channel per member, per-rank sequence counters and the metadata
// rendezvous used by split/dup. A Comm is the cheap per-rank *handle*
// through which application code performs every MPI operation; it carries
// the caller's Ctx so operations can charge the right virtual clock.
//
// Collectives are implemented over the runtime's own point-to-point layer
// (binomial broadcast/reduce, dissemination barrier, linear rooted
// scatter/gather, ring allgather, pairwise alltoall) on a reserved tag
// range, exactly like a real MPI library — so their virtual-time costs
// emerge from message mechanics instead of being special-cased, and tools
// hooked on the public entry points never see the internal traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpisim/channel.hpp"
#include "mpisim/collsync.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/hooks.hpp"
#include "mpisim/message.hpp"
#include "mpisim/nbcsync.hpp"
#include "mpisim/op.hpp"

namespace mpisect::mpisim {

class World;
class Ctx;
class CommImpl;

/// An ordered set of world ranks; index in the vector = rank in the group.
class Group {
 public:
  Group() = default;
  explicit Group(std::vector<int> world_ranks);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(world_ranks_.size());
  }
  [[nodiscard]] int world_rank(int group_rank) const;
  /// Rank of a world rank in this group, or -1 if not a member.
  [[nodiscard]] int rank_of_world(int world_rank) const noexcept;
  [[nodiscard]] const std::vector<int>& world_ranks() const noexcept {
    return world_ranks_;
  }

 private:
  std::vector<int> world_ranks_;
};

/// Per-rank handle to a communicator. Cheap to copy; not thread-portable
/// (it is bound to the owning rank's Ctx).
class Comm {
 public:
  Comm() = default;

  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;
  [[nodiscard]] int context_id() const noexcept;
  [[nodiscard]] int world_rank_of(int comm_rank) const;
  [[nodiscard]] Ctx& ctx() const noexcept { return *ctx_; }

  /// Caller's virtual time (MPI_Wtime).
  [[nodiscard]] double wtime() const noexcept;

  // --- point-to-point ------------------------------------------------------
  /// Blocking standard-mode send. buf may be nullptr for a modelled-only
  /// message of `bytes` (charge/execute decoupling).
  void send(const void* buf, std::size_t bytes, int dst, int tag);
  /// Blocking receive. buf may be nullptr to model without storing.
  Status recv(void* buf, std::size_t max_bytes, int src, int tag);
  /// Combined send+receive without deadlock (internally isend + recv).
  Status sendrecv(const void* sendbuf, std::size_t send_bytes, int dst,
                  int send_tag, void* recvbuf, std::size_t recv_bytes,
                  int src, int recv_tag);
  /// Blocking probe for a matching envelope (does not consume it).
  Status probe(int src, int tag);

  class Request;
  Request isend(const void* buf, std::size_t bytes, int dst, int tag);
  Request irecv(void* buf, std::size_t max_bytes, int src, int tag);

  // --- nonblocking collectives ----------------------------------------------
  /// Post a nonblocking allreduce: deposits this rank's contribution and
  /// returns immediately; the reduction completes (and `recvbuf` is filled)
  /// at the returned request's wait() fence. All members must post the same
  /// sequence of nonblocking collectives on a communicator. Buffers may be
  /// nullptr for a modelled-only reduction.
  Request iallreduce(const void* sendbuf, void* recvbuf, int count,
                     Datatype type, ReduceOp op);
  /// Post a nonblocking barrier; wait() blocks until every member posted.
  Request ibarrier();

  // --- typed convenience ----------------------------------------------------
  template <typename T>
  void send(std::span<const T> data, int dst, int tag) {
    send(data.data(), data.size_bytes(), dst, tag);
  }
  template <typename T>
  Status recv(std::span<T> data, int src, int tag) {
    return recv(data.data(), data.size_bytes(), src, tag);
  }

  // --- collectives ----------------------------------------------------------
  void barrier();
  void bcast(void* buf, std::size_t bytes, int root);
  /// Rooted reduction; `recvbuf` is significant only at root. Buffers may be
  /// nullptr for a modelled-only reduction (no data combined).
  void reduce(const void* sendbuf, void* recvbuf, int count, Datatype type,
              ReduceOp op, int root);
  void allreduce(const void* sendbuf, void* recvbuf, int count, Datatype type,
                 ReduceOp op);
  /// Equal-chunk scatter: root sends bytes_per_rank to every rank.
  void scatter(const void* sendbuf, std::size_t bytes_per_rank, void* recvbuf,
               int root);
  /// Variable scatter with per-rank byte counts and displacements. counts
  /// and displs are read only at the root, which must pass at least size()
  /// entries of each (Err::Arg otherwise); other ranks may pass empty spans.
  void scatterv(const void* sendbuf, std::span<const std::size_t> counts,
                std::span<const std::size_t> displs, void* recvbuf,
                std::size_t recv_bytes, int root);
  void gather(const void* sendbuf, std::size_t bytes_per_rank, void* recvbuf,
              int root);
  /// Variable gather; counts and displs follow the scatterv contract (read
  /// only at the root, empty spans are fine elsewhere).
  void gatherv(const void* sendbuf, std::size_t send_bytes, void* recvbuf,
               std::span<const std::size_t> counts,
               std::span<const std::size_t> displs, int root);
  void allgather(const void* sendbuf, std::size_t bytes_per_rank,
                 void* recvbuf);
  void alltoall(const void* sendbuf, std::size_t bytes_per_rank,
                void* recvbuf);

  template <typename T>
  T allreduce_one(T value, ReduceOp op) {
    T out{};
    allreduce(&value, &out, 1, datatype_of<T>, op);
    return out;
  }

  // --- communicator management ----------------------------------------------
  /// Collective: partition members by color, order by (key, rank).
  /// color < 0 means "not a member of any new communicator" (returns an
  /// invalid Comm for that caller).
  Comm split(int color, int key);
  Comm dup();
  /// MPI_Comm_free: release this rank's handle (sets it invalid). Local in
  /// MiniMPI — the shared state dies with the last handle — but fires the
  /// CommFree hook so resource-tracking tools see the lifecycle event.
  /// Freeing the world communicator is an error.
  void free();

  /// Metadata rendezvous: exchange one uint64 with every member, returning
  /// (values, max entry virtual time). Used by the sections layer's
  /// optional validation; synchronizes in real time, charges nothing.
  std::pair<std::vector<std::uint64_t>, double> collsync_u64(
      std::uint64_t value);

  // Internals used by the runtime ---------------------------------------------
  Comm(Ctx* ctx, std::shared_ptr<CommImpl> impl, int rank) noexcept
      : ctx_(ctx), impl_(std::move(impl)), rank_(rank) {}
  [[nodiscard]] CommImpl& impl() const noexcept { return *impl_; }

 private:
  // Hook-free internals used by collective algorithms.
  void send_internal(const void* buf, std::size_t bytes, int dst, int tag);
  Status recv_internal(void* buf, std::size_t max_bytes, int src, int tag);
  void sendrecv_internal(const void* sendbuf, std::size_t send_bytes, int dst,
                         void* recvbuf, std::size_t recv_bytes, int src,
                         int tag);
  /// Next reserved tag for one collective invocation on this comm.
  int next_internal_tag();
  /// Charge a jittered CPU overhead for entering a collective.
  void charge_collective_entry();
  /// Shared post path for iallreduce/ibarrier: fire the call hooks, charge
  /// the entry overhead, deposit into the NbcSync round, return the request.
  Request nbc_post(MpiCall call, const void* sendbuf, void* recvbuf,
                   int count, Datatype type, ReduceOp op, std::size_t bytes);

  void bcast_binomial(void* buf, std::size_t bytes, int root, int tag);
  void reduce_binomial(const void* sendbuf, void* recvbuf, int count,
                       Datatype type, ReduceOp op, int root, int tag);
  void scatter_linear(const void* sendbuf, std::size_t bytes_per_rank,
                      void* recvbuf, int root, int tag);
  void scatter_binomial(const void* sendbuf, std::size_t bytes_per_rank,
                        void* recvbuf, int root, int tag);
  void gather_linear(const void* sendbuf, std::size_t bytes_per_rank,
                     void* recvbuf, int root, int tag);
  void gather_binomial(const void* sendbuf, std::size_t bytes_per_rank,
                       void* recvbuf, int root, int tag);

  Ctx* ctx_ = nullptr;
  std::shared_ptr<CommImpl> impl_;
  int rank_ = -1;
};

/// Nonblocking-operation handle (shared state, copyable).
class Comm::Request {
 public:
  Request() = default;
  [[nodiscard]] bool valid() const noexcept { return s_ != nullptr; }
  /// Complete the operation; syncs the caller's clock. Idempotent.
  Status wait();
  /// True if the operation has already completed (does not sync the clock).
  [[nodiscard]] bool test();

 private:
  friend class Comm;
  friend void waitall(std::span<Comm::Request>);
  enum class Kind { Send, Recv, Coll };
  /// Extra state for a nonblocking-collective request (Kind::Coll).
  struct NbcState {
    MpiCall call = MpiCall::Ibarrier;
    std::uint64_t gen = 0;       ///< NbcSync round on the communicator
    std::size_t bytes = 0;       ///< per-rank contribution size
    int count = 0;
    Datatype type{};
    ReduceOp op{};
    void* recvbuf = nullptr;     ///< filled at the wait fence (iallreduce)
  };
  struct State {
    Kind kind = Kind::Send;
    MessagePtr msg;
    PostedRecvPtr recv;
    Channel* channel = nullptr;  ///< null for Kind::Coll
    std::shared_ptr<CommImpl> impl;  ///< keeps group mapping alive for wait
    Ctx* ctx = nullptr;
    int peer = -1;
    int comm_context = -1;
    int comm_rank = -1;
    int comm_size = 1;
    std::uint64_t id = 0;  ///< rank-local request id (CallInfo::request)
    bool done = false;
    /// Consecutive failed test() polls; after the spin budget the next
    /// poll parks on the completion event instead of yielding.
    int test_spins = 0;
    std::unique_ptr<NbcState> nbc;
    Status status;
  };
  explicit Request(std::shared_ptr<State> s) noexcept : s_(std::move(s)) {}
  std::shared_ptr<State> s_;
};

/// Complete all requests. Under the blocking-only progress model this waits
/// strictly in index order (the historical, bit-compatible semantics). The
/// progress engines complete receives first, then sends and collective
/// fences — so a rendezvous send parked at a low index can never delay
/// dating a receive that already completed earlier in virtual time, and the
/// final times are independent of where each request sits in the array.
void waitall(std::span<Comm::Request> requests);

/// Shared communicator state. Owned via shared_ptr by every member's handle.
class CommImpl {
 public:
  CommImpl(World& world, Group group, int context_id);
  ~CommImpl();

  [[nodiscard]] int size() const noexcept { return group_.size(); }
  [[nodiscard]] int context_id() const noexcept { return context_id_; }
  [[nodiscard]] const Group& group() const noexcept { return group_; }
  [[nodiscard]] World& world() noexcept { return world_; }
  /// The matching channel of comm_rank, created on first touch (lazily:
  /// a 65k-rank communicator materializes channels only for ranks that
  /// actually see traffic). Thread-safe — senders touch destination
  /// channels from other ranks' threads.
  [[nodiscard]] Channel& channel(int comm_rank);

  /// Sparse per-destination send-sequence counters. A rank talks to O(log p)
  /// partners (halo neighbours, binomial-tree edges), so the dense
  /// p-entry vector per rank — p² counters per communicator — was the first
  /// structure to die at 65k ranks. A linear probe over the touched
  /// destinations beats a hash map at the observed degree (a Lulesh rank's
  /// 26 halo neighbours plus its collective-tree edges stay well under
  /// kLinearMax). A rank that fans out wider (the root of a linear scatter
  /// sends to p-1 ranks) moves its counters into a hash map past
  /// kLinearMax destinations, so the fan-out costs O(p) lookups instead of
  /// O(p²) probes.
  class SendSeq {
   public:
    static constexpr std::size_t kLinearMax = 64;

    [[nodiscard]] std::uint64_t& operator[](int dst) {
      if (wide_) return (*wide_)[dst];
      for (auto& e : entries_) {
        if (e.dst == dst) return e.count;
      }
      if (entries_.size() == kLinearMax) return widen(dst);
      entries_.push_back({dst, 0});
      return entries_.back().count;
    }
    /// Destinations this rank has ever sent to (diagnostics).
    [[nodiscard]] std::size_t destinations() const noexcept {
      return wide_ ? wide_->size() : entries_.size();
    }

   private:
    struct Entry {
      int dst = 0;
      std::uint64_t count = 0;
    };
    /// Move the entries into wide_ and return dst's (new) counter.
    std::uint64_t& widen(int dst);

    std::vector<Entry> entries_;
    std::unique_ptr<std::unordered_map<int, std::uint64_t>> wide_;
  };

  /// Per-rank mutable state; each slot is touched only by its owner thread.
  struct RankState {
    SendSeq send_seq;           ///< per-destination counters (sparse)
    std::uint64_t coll_seq = 0; ///< collective ordinal
    std::uint64_t sync_gen = 0; ///< CollSync generation
    std::uint64_t nbc_gen = 0;  ///< nonblocking-collective ordinal
  };
  [[nodiscard]] RankState& rank_state(int comm_rank);

  struct SplitItem {
    int color = 0;
    int key = 0;
  };
  CollSync<SplitItem>& split_sync() noexcept { return split_sync_; }
  using CommMap = std::shared_ptr<std::vector<std::shared_ptr<CommImpl>>>;
  CollSync<CommMap>& publish_sync() noexcept { return publish_sync_; }
  CollSync<std::uint64_t>& u64_sync() noexcept { return u64_sync_; }
  /// Split-phase rendezvous backing Iallreduce/Ibarrier; the payload is the
  /// posting rank's raw contribution bytes (empty for barrier/modelled).
  NbcSync<std::vector<std::byte>>& nbc_sync() noexcept { return nbc_sync_; }

 private:
  World& world_;
  Group group_;
  int context_id_;
  /// Lazily-created channels, one slot per member. Acquire-load on the hot
  /// path; creation double-checks under chan_mu_.
  std::unique_ptr<std::atomic<Channel*>[]> channels_;
  std::mutex chan_mu_;
  std::vector<RankState> rank_states_;
  CollSync<SplitItem> split_sync_;
  CollSync<CommMap> publish_sync_;
  CollSync<std::uint64_t> u64_sync_;
  NbcSync<std::vector<std::byte>> nbc_sync_;
};

}  // namespace mpisect::mpisim
