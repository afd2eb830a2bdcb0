// Per-destination matching engine.
//
// Each communicator owns one Channel per member rank; senders deposit into
// the destination's channel, receivers post into their own. Matching follows
// MPI's rules: a posted receive matches the earliest queued message whose
// (source, tag) is compatible, and messages from one source never overtake
// each other because a sender deposits in program order.
//
// Two interchangeable engines implement those rules:
//
//   * Hashed (default): O(1) amortized matching. Posted receives live in
//     exactly one of four lanes keyed by their wildcard class — (src,tag),
//     (src,ANY), (ANY,tag), (ANY,ANY) — each lane a FIFO; every receive
//     carries a global post ordinal, and a deposit takes the minimum-ordinal
//     head across the four candidate lanes, which is precisely "first
//     compatible receive in post order". Unexpected messages are one node
//     linked into four index lists (by pair, by source, by tag, arrival
//     order), so a posting receive of any wildcard class finds its
//     earliest-arrival candidate at a list head and a match unlinks in O(1)
//     with no tombstones. Keyed lanes sit in flat LaneTables
//     (lane_table.hpp): a short vector scanned linearly, indexed by an
//     open-addressing hash past a few keys, and a lane is erased as soon as
//     it drains, so cycling internal collective tags leave no empty lanes.
//   * Legacy: the original linear scans over two deques, kept as the
//     differential-testing reference. Virtual times are bit-identical
//     between the engines by construction; tests enforce it.
//
// Matching is where virtual time crosses rank boundaries:
//   eager:       t_deliver = max(t_post, t_avail)
//   rendezvous:  t_deliver = max(t_send_start, t_post) + wire_cost
// Probe reports the completion time of a hypothetical receive posted at
// t_probe, so it follows the same two formulas with t_post := t_probe.
// The second party to arrive performs the match under the channel mutex and
// wakes any rank blocked on it through a WaitPoint — the executor parks the
// rank until delivery, with no polling; World::abort() wakes all waiters so
// one rank's failure cannot deadlock the world.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "mpisim/lane_table.hpp"
#include "mpisim/message.hpp"
#include "mpisim/scheduler.hpp"
#include "obs/memory.hpp"

namespace mpisect::mpisim {

/// Which matching engine a Channel uses.
enum class MatchMode {
  Hashed,  ///< per-(src,tag) lanes + wildcard lists (default)
  Legacy,  ///< linear deque scans (differential reference)
};

/// Matching-engine selection plus its tuning knobs, in the shared
/// `preset[:key=value,...]` spec vocabulary (the `--match` flag):
///
///   hashed                 O(1) engine, lanes sized on demand
///   hashed:buckets=64      reserve room for 64 lanes per lane table
///   legacy                 linear-scan reference engine
struct MatchModel {
  MatchMode mode = MatchMode::Hashed;
  std::size_t buckets = 0;  ///< initial lane reservation per lane table

  bool operator==(const MatchModel&) const = default;

  [[nodiscard]] const char* name() const noexcept;
  /// Canonical spec string; MatchModel::parse(spec()) == *this.
  [[nodiscard]] std::string spec() const;
  /// Parse a spec string. Throws MpiError(Err::Arg) on unknown presets,
  /// unknown options, or options on the legacy engine.
  static MatchModel parse(const std::string& spec);
  static std::string choices();
};

class Channel {
 public:
  /// `rendezvous_extra` is added to every rendezvous delivery time — the
  /// progress model's completion-publication latency (a progress thread
  /// hands the delivery to the application `thread_latency` after the wire
  /// finishes; zero for synchronous progress).
  ///
  /// `mem` is the owning rank's memory-accounting slot (nullptr = no
  /// accounting, e.g. channels constructed directly by unit tests): every
  /// byte queued in this channel is charged there and credited back on
  /// match, giving an exact per-rank high-water mark. Accounting observes,
  /// never decides — matching and delivery times are unaffected.
  ///
  /// `match` picks the engine; both produce identical matches and times.
  Channel(Executor& exec, const std::atomic<bool>* abort_flag,
          double rendezvous_extra = 0.0,
          obs::MemAccount::RankMem* mem = nullptr,
          MatchModel match = {}) noexcept
      : abort_(abort_flag), rendezvous_extra_(rendezvous_extra), mem_(mem),
        wp_(exec, mu_) {
    if (match.mode == MatchMode::Legacy) {
      legacy_ = std::make_unique<LegacyQueues>();
    } else if (match.buckets > 0) {
      reserve_tables(match.buckets);
    }
  }

  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Sender side: enqueue a message, matching an already-posted receive if
  /// one is compatible. Returns the number of unmatched queued messages
  /// after the call (0 = matched immediately) — a telemetry gauge, computed
  /// under the mutex the call already holds. Messages flagged fault_lost by
  /// the fault engine are black-holed: never queued, never matched.
  std::size_t deposit(const MessagePtr& msg);

  /// Receiver side: register a receive; matches immediately against queued
  /// messages when possible. Returns the number of unmatched posted
  /// receives after the call (0 = matched immediately).
  std::size_t post(const PostedRecvPtr& recv);

  /// Block until the posted receive completes. Throws Err::Aborted if the
  /// world aborts and Err::Truncate if the matched message was larger than
  /// the receive buffer's declared size.
  Status wait_recv(const PostedRecvPtr& recv);

  /// Non-blocking completion test (finalizes nothing; pair with
  /// wait_recv once true to collect the status).
  [[nodiscard]] bool test_recv(const PostedRecvPtr& recv);

  /// Non-blocking completion test, sender side: true once the message needs
  /// no further progress (eager always; rendezvous once delivered).
  [[nodiscard]] bool test_send(const MessagePtr& msg);

  /// Park the caller until the channel sees traffic that may have completed
  /// `recv` (returns immediately if it already has). One blocking wait, no
  /// predicate loop: spurious wakeups return early and the caller's test
  /// loop re-polls. Throws Err::Aborted on an abort wake. Request::test()
  /// parks here after its spin budget so a pure test loop reaches exact
  /// quiescence instead of spinning forever.
  void park_recv_incomplete(const PostedRecvPtr& recv);
  /// Sender-side twin of park_recv_incomplete.
  void park_send_incomplete(const MessagePtr& msg);

  /// Block until a rendezvous message has been delivered (sender side).
  /// Returns the delivery time to sync the sender clock to.
  double wait_delivered(const MessagePtr& msg);

  /// Blocking probe: wait until a message matching (src, tag) is queued and
  /// return its envelope without consuming it. t_probe is the prober's
  /// current virtual time; t_complete is when a receive posted at t_probe
  /// would deliver (eager: max(t_probe, t_avail); rendezvous:
  /// max(t_send_start, t_probe) + wire_cost).
  Status probe(int src, int tag, double t_probe);

  /// Number of queued (unmatched) messages — diagnostic for tests.
  [[nodiscard]] std::size_t pending_messages();
  /// Number of unmatched posted receives — diagnostic for tests.
  [[nodiscard]] std::size_t pending_recvs();

 private:
  // --- hashed-engine stores -----------------------------------------------
  // One node per unexpected message, linked into four index lists at once.
  // Index 0: (src,tag) pair bucket; 1: per-source; 2: per-tag; 3: arrival
  // order (all messages). Every list preserves arrival order, so each
  // list's head is the earliest compatible message for that wildcard class.
  // Indices 1 and 2 serve only (src,ANY) and (ANY,tag) receives and probes,
  // so they are built from the arrival list on the first such call and
  // kept from then on; a channel that only sees exact receives never pays
  // for them.
  struct MsgNode {
    MessagePtr msg;
    MsgNode* prev[4] = {nullptr, nullptr, nullptr, nullptr};
    MsgNode* next[4] = {nullptr, nullptr, nullptr, nullptr};
  };
  struct MsgList {
    MsgNode* head = nullptr;
    MsgNode* tail = nullptr;
  };
  /// A posted receive lives in exactly one lane (its wildcard class); `ord`
  /// is the channel-global post ordinal that totally orders receives across
  /// lanes.
  struct RecvNode {
    PostedRecvPtr recv;
    std::uint64_t ord = 0;
    RecvNode* next = nullptr;
  };
  struct RecvList {
    RecvNode* head = nullptr;
    RecvNode* tail = nullptr;
  };

  /// The legacy engine's queues, allocated only in MatchMode::Legacy.
  struct LegacyQueues {
    std::deque<MessagePtr> unexpected;
    std::deque<PostedRecvPtr> posted;
  };

  static bool compatible(const PostedRecv& r, const Message& m) noexcept;
  /// Pair up msg and recv: compute times, copy payload, flag completion.
  /// Caller holds the mutex.
  void complete_match(const MessagePtr& msg, const PostedRecvPtr& recv) const;
  void check_abort() const;
  void reserve_tables(std::size_t lanes);

  static std::uint64_t pair_key(int src, int tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }
  static std::uint64_t one_key(int v) noexcept {
    return static_cast<std::uint32_t>(v);
  }

  // Hashed-engine helpers (caller holds the mutex).
  std::size_t deposit_hashed(const MessagePtr& msg);
  std::size_t post_hashed(const PostedRecvPtr& recv);
  /// The message index a (src, tag) receive or probe would match from
  /// (nullptr: no lane, so nothing queued for that key).
  MsgList* probe_lane(int src, int tag);
  void link_msg(const MessagePtr& msg);
  void unlink_msg(MsgNode* n);
  /// Build the per-source and per-tag indices over the queued messages.
  void index_wildcards();
  static void append(MsgList& list, MsgNode* n, int k) noexcept;
  static void remove(MsgList& list, MsgNode* n, int k) noexcept;
  /// remove() from the lane under `key`, erasing the lane if it drains.
  static void remove_keyed(LaneTable<MsgList>& table, std::uint64_t key,
                           MsgNode* n, int k) noexcept;
  MsgNode* alloc_msg_node();
  void free_msg_node(MsgNode* n);
  RecvNode* alloc_recv_node();
  void free_recv_node(RecvNode* n);

  /// Accounted footprint of a queued unexpected message.
  static std::size_t queued_bytes(const Message& m) noexcept {
    return sizeof(Message) + m.payload.size();
  }

  std::mutex mu_;
  std::unique_ptr<LegacyQueues> legacy_;  ///< null unless MatchMode::Legacy
  // Hashed engine state.
  LaneTable<MsgList> um_by_pair_;
  LaneTable<MsgList> um_by_src_;
  LaneTable<MsgList> um_by_tag_;
  MsgList um_all_;
  LaneTable<RecvList> pr_by_pair_;
  LaneTable<RecvList> pr_by_src_;  ///< (src, ANY)
  LaneTable<RecvList> pr_by_tag_;  ///< (ANY, tag)
  RecvList pr_any_;                ///< (ANY, ANY)
  MsgNode* msg_free_ = nullptr;   ///< node freelist (allocation reuse)
  RecvNode* recv_free_ = nullptr;
  std::size_t um_count_ = 0;  ///< unmatched queued messages (hashed)
  std::size_t pr_count_ = 0;  ///< unmatched posted receives (hashed)
  std::uint64_t pr_ord_ = 0;  ///< next post ordinal
  bool wild_index_ = false;   ///< um_by_src_/um_by_tag_ are maintained

  const std::atomic<bool>* abort_;
  double rendezvous_extra_;
  obs::MemAccount::RankMem* mem_;
  WaitPoint wp_;
};

}  // namespace mpisect::mpisim
