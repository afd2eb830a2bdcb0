// One dependency-resolving walk over the rank streams of a trace, shared
// by replay and the offline analyzer.
//
// Each rank's cursor advances until it reaches an event whose remote half
// has not happened yet (a receive whose send is still ahead, a rendezvous
// whose receive is not posted, a barrier or nonblocking-collective fence
// short of its quorum); round-robin sweeps resolve those dependencies. The
// Walker owns the cursors and back-references, the in-flight message
// table, the comm-sync and NBC rounds, the section stack, the blocking
// rules and the stall diagnostic, and advances N clock frames with one copy
// of the cost arithmetic. Frame 0 re-simulates the recorded machine: each
// timestamped event adopts the recorded clock, which reproduces the
// recording bit for bit and checks it. Frames 1..N-1 are what-if frames:
// they re-charge recorded compute gaps (rescaled per frame by the
// observer) and cost messages through their own machine and progress model.
//
// Jitter draws come from a draw tape. A draw depends only on (seed,
// JitterModel, rank, event), never on walk order, so the constructor makes
// every draw of the trace up front into one allocation, rank by rank on
// support::parallel_for; the fan-out runs inline for a trace of fewer than
// kParallelMinWork events, a single rank or one usable core. A
// rank's tape holds, in event order, one double (the factor) per CPU draw
// of a SendPost, RecvWait, CollBegin or NbcPost and two (factor, additive)
// per transfer draw of a SendPost: 24 B per sent message and 8 B per other
// drawing event, for each frame that owns its draws (about 1.2 MB for the
// 196,880-event Lulesh p = 512 trace). A frame whose network has the same
// seed and jitter as an earlier frame does not own draws; it reads that
// frame's column of the tape, so what-if frames that only rescale links or
// compute cost little beyond the first. step() reads the tape through a
// per-rank draw cursor; there is no other draw path.
//
// In-flight messages live in a MsgTable: records in fixed blocks that
// never move, recycled through a free list and found through an
// open-addressing index of (MsgKey, slot). A rank remembers its posts as
// event indices (4 B each) and rebuilds a message's key from the post.
// Every read of a rank's recorded events goes through events(r).
//
// Whatever a caller keeps beyond the clocks lives in an observer passed to
// run() (hooks: WalkObserver); `Extra` adds observer fields to every
// message record and barrier round instead of a second table.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpisim/netmodel.hpp"
#include "mpisim/progress.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "trace/file.hpp"

namespace mpisect::trace {

/// Identity of one message: its (communicator, src, dst) channel and the
/// per-channel wire sequence number.
struct MsgKey {
  int comm = 0;
  int src = 0;
  int dst = 0;
  std::uint64_t seq = 0;
  bool operator==(const MsgKey&) const = default;
  [[nodiscard]] bool null() const noexcept { return comm < 0; }
  static MsgKey none() noexcept { return MsgKey{-1, 0, 0, 0}; }
};

struct MsgKeyHash {
  std::size_t operator()(const MsgKey& k) const noexcept {
    return static_cast<std::size_t>(support::stream_id(
        static_cast<std::uint64_t>(k.comm) << 32 |
            static_cast<std::uint32_t>(k.src),
        static_cast<std::uint64_t>(k.dst), k.seq));
  }
};

/// In-flight message records keyed by MsgKey. Records live in blocks of
/// kBlock that never move: growth adds a block and copies no record, and
/// an erased record's slot goes on a free list for the next message. An
/// open-addressing index (linear probing, at most half full, backward-shift
/// erase) maps a key to its record's slot.
template <class Rec>
class MsgTable {
 public:
  /// `key`'s record, or nullptr.
  [[nodiscard]] Rec* find(const MsgKey& key) noexcept {
    if (index_.empty()) return nullptr;
    const Entry& e = index_[probe(key)];
    return e.slot == kNone ? nullptr : &at(e.slot);
  }

  /// `key`'s record, a default-constructed one on first sight.
  Rec& operator[](const MsgKey& key) {
    if (2 * (size_ + 1) > index_.size()) grow();
    Entry& e = index_[probe(key)];
    if (e.slot != kNone) return at(e.slot);
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      at(slot) = Rec{};
    } else {
      if (next_ % kBlock == 0) {
        blocks_.push_back(std::make_unique<Rec[]>(kBlock));
      }
      slot = next_++;
    }
    e = Entry{key.comm, key.src, key.dst, slot, key.seq};
    ++size_;
    return at(slot);
  }

  /// Drop `key`'s record, which must exist.
  void erase(const MsgKey& key) {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = probe(key);
    free_.push_back(index_[hole].slot);
    // Pull later entries of the probe run back over the hole unless that
    // would move one in front of its home position.
    for (std::size_t j = (hole + 1) & mask; index_[j].slot != kNone;
         j = (j + 1) & mask) {
      const std::size_t home = MsgKeyHash{}(index_[j].key()) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole].slot = kNone;
    --size_;
  }

 private:
  static constexpr std::uint32_t kBlock = 128;
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// A MsgKey and its record's slot, packed into the key's padding.
  struct Entry {
    int comm = 0, src = 0, dst = 0;
    std::uint32_t slot = kNone;
    std::uint64_t seq = 0;
    [[nodiscard]] MsgKey key() const noexcept { return {comm, src, dst, seq}; }
  };

  Rec& at(std::uint32_t slot) noexcept {
    return blocks_[slot / kBlock][slot % kBlock];
  }

  /// The index position holding `key`, else the empty one ending its run.
  [[nodiscard]] std::size_t probe(const MsgKey& key) const noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = MsgKeyHash{}(key) & mask;
    for (;; i = (i + 1) & mask) {
      const Entry& e = index_[i];
      if (e.slot == kNone || (e.seq == key.seq && e.src == key.src &&
                              e.dst == key.dst && e.comm == key.comm)) {
        return i;
      }
    }
  }

  void grow() {
    std::vector<Entry> old(std::max<std::size_t>(64, 2 * index_.size()));
    old.swap(index_);
    const std::size_t mask = index_.size() - 1;
    for (const Entry& e : old) {
      if (e.slot == kNone) continue;
      std::size_t i = MsgKeyHash{}(e.key()) & mask;
      while (index_[i].slot != kNone) i = (i + 1) & mask;
      index_[i] = e;
    }
  }

  std::vector<Entry> index_;  ///< size is zero or a power of two
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<Rec[]>> blocks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t next_ = 0;  ///< slots handed out so far
};

/// Outcome of one attempt to advance a rank. Progress: state changed (a
/// barrier arrival) but the cursor stayed on the event.
enum class Step : std::uint8_t { Advanced, Progress, Blocked };

/// Arrival count of a comm-sync barrier or a nonblocking-collective round.
struct Quorum {
  int members = 0;
  int arrived = 0;
  [[nodiscard]] bool met() const noexcept { return arrived >= members; }
};

/// Round-robin run loop: step every unfinished rank until it blocks or
/// finishes, and sweep again while a sweep made progress. `Rank` needs a
/// `done` flag; `step(r)` returns a Step. True once every rank is done,
/// false when a whole sweep made no progress.
template <class Rank, class StepFn>
bool run_to_quiescence(std::vector<Rank>& ranks, StepFn&& step) {
  for (;;) {
    bool any_active = false;
    bool progress = false;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      if (ranks[r].done) continue;
      any_active = true;
      for (;;) {
        const Step s = step(static_cast<int>(r));
        if (s == Step::Advanced) {
          progress = true;
          if (ranks[r].done) break;
          continue;
        }
        if (s == Step::Progress) progress = true;
        break;
      }
    }
    if (!any_active) return true;
    if (!progress) return false;
  }
}

/// One clock frame: the network that costs its messages and its progress
/// model (rendezvous surcharge, nonblocking-collective fence rule).
struct Frame {
  const mpisim::NetworkModel* net = nullptr;
  mpisim::ProgressModel progress;
};

/// Observer hooks with no-op defaults; observers derive and hide the ones
/// they need. Hooks run in walk order, which is deterministic.
struct WalkObserver {
  /// Before each step of a rank (also steps that end up blocked).
  void before_step(int, auto& /*clocks*/) {}
  /// Multiplier of a recorded compute gap in what-if frame `frame`, given
  /// the frame's clock before the gap.
  double gap_scale(int, std::size_t /*frame*/, double) { return 1.0; }
  /// A send was posted; the observer may still perturb its wire costs.
  void on_send(int, const Event&, auto& /*msg*/) {}
  /// A receive was posted (matched or not) at event `idx`.
  void on_recv_post(int, const Event&, std::uint32_t /*idx*/) {}
  /// Receive `back` (index into the rank's posts) completed at event `idx`.
  void on_recv_wait(int, std::uint32_t /*idx*/, std::size_t /*back*/,
                    const MsgKey&, const auto& /*msg*/) {}
  /// The rank arrived at a comm-sync barrier or posted an NBC round.
  void on_arrive(int, auto& /*round*/) {}
  /// Event st.cursor is done: its clocks are final. The section stack
  /// still holds the section the event belongs to (the outer one for an
  /// enter, the exited one for an exit).
  void on_event(int, const auto& /*st*/, const Event&, const auto& /*link*/) {}
};

/// No per-message or per-round observer fields.
struct NoExtra {
  struct Msg {};
  struct Round {};
};

template <std::size_t N, class Extra = NoExtra>
class Walker {
  static_assert(N >= 1, "frame 0 is the recorded frame");

 public:
  using Clocks = std::array<double, N>;

  /// Every frame's view of one in-flight message, and its endpoints (a
  /// rank of -1 means that side has not happened yet).
  struct Msg {
    Clocks start{}, wire{}, post{};  ///< an eager send is in at start + wire
    std::array<bool, N> rend{};
    std::array<bool, N> lost{};  ///< dropped for good in that frame
    int consumed = 0;  ///< SendWait + RecvWait; erased at 2
    int send_rank = -1;
    std::uint32_t send_idx = 0;
    int post_rank = -1;
    std::uint32_t post_idx = 0;
    [[no_unique_address]] typename Extra::Msg x;
  };

  /// A comm-sync barrier (keyed by the per-comm ordinal) or a nonblocking
  /// collective round (keyed by generation): arrivals accumulate the
  /// latest arrival clock per frame, departures stall on the quorum.
  struct Round : Quorum {
    int departed = 0;
    std::uint64_t rounds = 0;  ///< comm-sync metadata exchange rounds
    std::uint64_t bytes = 0;   ///< largest NBC contribution
    Clocks max{};
    int max_rank = -1;  ///< latest frame-0 arrival (the first one on ties)
    std::uint32_t max_idx = 0;
    [[no_unique_address]] typename Extra::Round x;
  };

  struct OpenSection {
    int comm = 0;
    std::uint32_t label = 0;
    Clocks t_in{};
  };

  struct RankState {
    std::size_t cursor = 0;
    Clocks t{};  ///< final once done
    std::size_t draw = 0;  ///< tape row of the next unread draw
    /// Event index of every SendPost and RecvPost so far, in post order.
    std::vector<std::uint32_t> send_posts, recv_posts;
    bool sync_entered = false;
    std::pair<int, std::uint64_t> sync_key{0, 0};
    std::map<int, std::uint64_t> sync_ordinal;  ///< per-comm CommSync count
    std::vector<OpenSection> stack;
    bool done = false;
  };

  /// The cross-rank term a completed event joined, in frame 0.
  struct Link {
    int rank = -1;  ///< the remote endpoint's rank; -1 when purely local
    std::uint32_t idx = 0;
    bool binds = false;  ///< the remote term set the frame-0 clock
    const Round* round = nullptr;  ///< the barrier or NBC round joined
  };

  /// `who` names the caller in errors ("<who> failed at rank ...").
  Walker(const TraceFile& tf, const std::array<Frame, N>& frames,
         const char* who)
      : tf_(tf), frames_(frames), who_(who), ranks_(tf.ranks.size()) {
    if (tf.ranks.size() != static_cast<std::size_t>(tf.header.nranks)) {
      throw TraceError("trace rank streams do not match header rank count");
    }
    std::array<const mpisim::NetworkModel*, N> owners{};
    for (std::size_t f = 0; f < N; ++f) {
      const mpisim::NetworkModel& net = *frames_[f].net;
      column_[f] = owners_;
      for (std::size_t g = 0; g < f; ++g) {
        const mpisim::NetworkModel& other = *frames_[g].net;
        if (other.seed == net.seed && other.jitter == net.jitter) {
          column_[f] = column_[g];
          break;
        }
      }
      if (column_[f] == owners_) owners[owners_++] = &net;
    }
    std::size_t draws = 0;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      RankState& st = ranks_[r];
      st.t.fill(tf.ranks[r].t0);
      st.draw = draws;
      std::size_t sends = 0, recvs = 0;
      for (const Event& ev : events(r)) {
        draws += draw_width(ev.kind);
        sends += ev.kind == EventKind::SendPost ? 1 : 0;
        recvs += ev.kind == EventKind::RecvPost ? 1 : 0;
      }
      st.send_posts.reserve(sends);
      st.recv_posts.reserve(recvs);
    }
    tape_ = std::make_unique_for_overwrite<double[]>(draws * owners_);
    support::parallel_for(ranks_.size(), tf.total_events(), [&](std::size_t r) {
      fill_tape(r, {owners.data(), owners_});
    });
  }

  [[nodiscard]] const std::vector<RankState>& ranks() const { return ranks_; }

  /// Walk every stream to its end. Throws TraceError on structural errors
  /// and when no rank can advance.
  template <class Obs>
  void run(Obs& obs) {
    if (run_to_quiescence(ranks_, [&](int r) { return step(r, obs); })) return;
    std::string stuck;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      if (ranks_[r].done) continue;
      if (!stuck.empty()) stuck += ", ";
      stuck += std::to_string(r) + "@" + std::to_string(ranks_[r].cursor);
      if (stuck.size() > 120) break;
    }
    throw TraceError(std::string(who_) +
                     " dependency stall (truncated or inconsistent trace); "
                     "blocked ranks: " +
                     stuck);
  }

 private:
  using RoundMap = std::map<std::pair<int, std::uint64_t>, Round>;

  /// Rank r's recorded events: the walk's only access to the streams.
  [[nodiscard]] std::span<const Event> events(std::size_t r) const noexcept {
    return tf_.ranks[r].events;
  }

  [[noreturn]] void fail(int r, const Event& ev, const std::string& why) const {
    throw TraceError(std::string(who_) + " failed at rank " +
                     std::to_string(r) + " event #" +
                     std::to_string(ranks_[static_cast<std::size_t>(r)].cursor) +
                     " (" + event_kind_name(ev.kind) + "): " + why);
  }

  /// Re-charge the compute gap before `ev`. Frame 0 adopts the recorded
  /// absolute clock; a what-if frame adds the scaled delta, or adopts it
  /// too while it is in bitwise lockstep with frame 0.
  template <class Obs>
  void charge_gap(int r, RankState& st, const Event& ev, Obs& obs) {
    if (!ev.has_time) return;
    if (ev.t_before < st.t[0]) {
      fail(r, ev,
           "recorded clock behind replayed clock (trace/model mismatch)");
    }
    for (std::size_t f = 1; f < N; ++f) {
      const double scale = obs.gap_scale(r, f, st.t[f]);
      if (scale == 1.0 && st.t[f] == st.t[0]) {
        st.t[f] = ev.t_before;
      } else {
        st.t[f] += (ev.t_before - st.t[0]) * scale;
      }
    }
    st.t[0] = ev.t_before;
  }

  /// Tape rows (one double per owner each) an event of kind `k` draws: a
  /// CPU factor for every jittered call overhead, plus a transfer factor
  /// and additive term for a send.
  static constexpr std::size_t draw_width(EventKind k) noexcept {
    switch (k) {
      case EventKind::SendPost:
        return 3;
      case EventKind::RecvWait:
      case EventKind::CollBegin:
      case EventKind::NbcPost:
        return 1;
      default:
        return 0;
    }
  }

  /// Draw rank r's tape: per drawing event and draw, one column per owner,
  /// in the order step() reads them. The salts mirror mpisim::Comm: 0 for
  /// a send, 1 for a receive, 2 for a collective entry.
  void fill_tape(std::size_t r,
                 std::span<const mpisim::NetworkModel* const> owners) {
    const int rank = static_cast<int>(r);
    double* out = tape_.get() + ranks_[r].draw * owners.size();
    const auto cpu = [&](std::uint64_t op, std::uint64_t salt) {
      for (const mpisim::NetworkModel* net : owners) {
        *out++ = net->cpu_jitter(rank, op, salt).factor;
      }
    };
    for (const Event& ev : events(r)) {
      switch (ev.kind) {
        case EventKind::SendPost:
          cpu(ev.op, 0);
          for (const mpisim::NetworkModel* net : owners) {
            const mpisim::JitterDraw d = net->transfer_jitter(rank, ev.peer,
                                                              ev.seq);
            *out++ = d.factor;
            *out++ = d.additive;
          }
          break;
        case EventKind::RecvWait:
          cpu(ev.op, 1);
          break;
        case EventKind::CollBegin:
        case EventKind::NbcPost:
          cpu(ev.op, 2);
          break;
        default:
          break;
      }
    }
  }

  /// The next `width` rows of st's tape, one column per owner each.
  const double* take(RankState& st, std::size_t width) const noexcept {
    const double* d = tape_.get() + st.draw * owners_;
    st.draw += width;
    return d;
  }

  /// Charge the jittered CPU overhead of a call in every frame.
  void charge_overhead(RankState& st, double mpisim::NetworkModel::*base) {
    const double* jit = take(st, 1);
    for (std::size_t f = 0; f < N; ++f) {
      const mpisim::NetworkModel& net = *frames_[f].net;
      st.t[f] += std::max(
          net.cpu_overhead(net.*base, mpisim::JitterDraw{jit[column_[f]], 0.0}),
          0.0);
    }
  }

  template <class Obs>
  void arrive(int r, std::uint32_t idx, const RankState& st, Round& round,
              Obs& obs) {
    if (round.arrived == 0 || st.t[0] > round.max[0]) {
      round.max_rank = r;
      round.max_idx = idx;
    }
    for (std::size_t f = 0; f < N; ++f) {
      round.max[f] =
          round.arrived == 0 ? st.t[f] : std::max(round.max[f], st.t[f]);
    }
    obs.on_arrive(r, round);
    ++round.arrived;
  }

  void consume(const MsgKey& key, Msg& ms) {
    if (++ms.consumed >= 2) msgs_.erase(key);
  }

  /// The key of the message a rank-r SendPost or RecvPost names; null for
  /// a receive that never matched.
  static MsgKey send_key(int r, const Event& post) noexcept {
    return {post.comm, r, post.peer, post.seq};
  }
  static MsgKey recv_key(int r, const Event& post) noexcept {
    return post.peer == Event::kUnmatched
               ? MsgKey::none()
               : MsgKey{post.comm, post.peer, r, post.seq};
  }

  /// Rendezvous completion in frame f: both sides are in and the wire is
  /// done, plus the progress model's delivery surcharge.
  double rendezvous_done(const Msg& ms, std::size_t f) const noexcept {
    return std::max(ms.start[f], ms.post[f]) + ms.wire[f] +
           frames_[f].progress.rendezvous_extra();
  }

  /// Fail when a fault plan lost `ms` for good in some frame: the recorded
  /// event waiting for it can never complete. An eager send completes
  /// locally, so its wait only cares when `rendezvous_only`.
  void check_delivered(int r, const Event& ev, const MsgKey& key,
                       const Msg& ms, bool rendezvous_only) const {
    for (std::size_t f = 0; f < N; ++f) {
      if (!ms.lost[f] || (rendezvous_only && !ms.rend[f])) continue;
      fail(r, ev,
           "message " + std::to_string(key.src) + "->" +
               std::to_string(key.dst) + " seq " + std::to_string(key.seq) +
               " lost under the fault plan (retransmit budget exhausted); "
               "the recorded " + event_kind_name(ev.kind) +
               " can never complete");
    }
  }

  template <class Obs>
  Step step(int r, Obs& obs) {
    RankState& st = ranks_[static_cast<std::size_t>(r)];
    const std::span<const Event> stream = events(static_cast<std::size_t>(r));
    if (st.cursor >= stream.size()) {
      st.done = true;  // no Finalize recorded (aborted run): stop here
      return Step::Advanced;
    }
    const Event& ev = stream[st.cursor];
    const auto idx = static_cast<std::uint32_t>(st.cursor);
    obs.before_step(r, st.t);
    Link link;
    auto fenced = nbc_rounds_.end();  // NBC round to drop after on_event
    switch (ev.kind) {
      case EventKind::SendPost: {
        charge_gap(r, st, ev, obs);
        charge_overhead(st, &mpisim::NetworkModel::send_overhead);
        Msg& ms = msgs_[send_key(r, ev)];
        const auto nbytes = static_cast<std::size_t>(ev.bytes);
        const double* jit = take(st, 2);
        for (std::size_t f = 0; f < N; ++f) {
          const mpisim::NetworkModel& net = *frames_[f].net;
          const double* d = jit + 2 * column_[f];
          ms.start[f] = st.t[f];
          ms.wire[f] = net.transfer_cost(r, ev.peer, nbytes,
                                         mpisim::JitterDraw{d[0], d[1]});
          ms.rend[f] = nbytes > net.eager_threshold;
        }
        ms.send_rank = r;
        ms.send_idx = idx;
        obs.on_send(r, ev, ms);
        st.send_posts.push_back(idx);
        break;
      }
      case EventKind::SendWait: {
        if (ev.op >= st.send_posts.size()) fail(r, ev, "bad send backref");
        const MsgKey key = send_key(
            r, stream[st.send_posts[st.send_posts.size() - 1 - ev.op]]);
        Msg* const found = msgs_.find(key);
        if (found == nullptr) {
          // Already fully consumed: wait() was a no-op re-wait.
          charge_gap(r, st, ev, obs);
          break;
        }
        Msg& ms = *found;
        check_delivered(r, ev, key, ms, true);
        const bool rend = std::ranges::find(ms.rend, true) != ms.rend.end();
        if (rend && ms.post_rank < 0) return Step::Blocked;
        charge_gap(r, st, ev, obs);
        if (ms.rend[0]) link = {ms.post_rank, ms.post_idx, false, nullptr};
        for (std::size_t f = 0; f < N; ++f) {
          if (!ms.rend[f]) continue;
          const double sync = rendezvous_done(ms, f);
          if (f == 0) {
            // The receiver's post gated the sync.
            link.binds = sync > st.t[0] && ms.post[0] >= ms.start[0];
          }
          st.t[f] = std::max(st.t[f], sync);
        }
        consume(key, ms);
        break;
      }
      case EventKind::RecvPost: {
        charge_gap(r, st, ev, obs);
        if (ev.peer != Event::kUnmatched) {
          Msg& ms = msgs_[recv_key(r, ev)];
          ms.post = st.t;
          ms.post_rank = r;
          ms.post_idx = idx;
        }
        st.recv_posts.push_back(idx);
        obs.on_recv_post(r, ev, idx);
        break;
      }
      case EventKind::RecvWait: {
        if (ev.seq >= st.recv_posts.size()) fail(r, ev, "bad recv backref");
        const std::size_t back = st.recv_posts.size() - 1 - ev.seq;
        const MsgKey key = recv_key(r, stream[st.recv_posts[back]]);
        if (key.null()) fail(r, ev, "wait on a receive that never matched");
        Msg* const found = msgs_.find(key);
        if (found == nullptr || found->send_rank < 0) return Step::Blocked;
        Msg& ms = *found;
        check_delivered(r, ev, key, ms, false);
        charge_gap(r, st, ev, obs);
        link = {ms.send_rank, ms.send_idx, false, nullptr};
        for (std::size_t f = 0; f < N; ++f) {
          const double del =
              ms.rend[f] ? rendezvous_done(ms, f)
                         : std::max(ms.post[f], ms.start[f] + ms.wire[f]);
          if (f == 0) {
            const double in = ms.rend[0] ? ms.start[0] : ms.start[0] + ms.wire[0];
            link.binds = del > st.t[0] && in >= ms.post[0];  // sender gated
          }
          st.t[f] = std::max(st.t[f], del);
        }
        charge_overhead(st, &mpisim::NetworkModel::recv_overhead);
        obs.on_recv_wait(r, idx, back, key, ms);
        consume(key, ms);
        break;
      }
      case EventKind::Probe: {
        const MsgKey key{ev.comm, ev.peer, r, ev.seq};
        const Msg* const found = msgs_.find(key);
        if (found == nullptr || found->send_rank < 0) return Step::Blocked;
        const Msg& ms = *found;
        check_delivered(r, ev, key, ms, false);
        charge_gap(r, st, ev, obs);
        // Mirror of Channel::probe: the completion time of a hypothetical
        // receive posted at the prober's current time (rendezvous pays its
        // wire cost, eager is availability-bound).
        link = {ms.send_rank, ms.send_idx,
                ms.rend[0] ? ms.start[0] >= st.t[0]
                           : ms.start[0] + ms.wire[0] > st.t[0],
                nullptr};
        for (std::size_t f = 0; f < N; ++f) {
          st.t[f] = ms.rend[f] ? std::max(ms.start[f], st.t[f]) + ms.wire[f] +
                                     frames_[f].progress.rendezvous_extra()
                               : std::max(st.t[f], ms.start[f] + ms.wire[f]);
        }
        break;
      }
      case EventKind::CollBegin:
        charge_gap(r, st, ev, obs);
        charge_overhead(st, &mpisim::NetworkModel::send_overhead);
        break;
      case EventKind::CollEnd:
      case EventKind::Pcontrol:
      case EventKind::SectionEnter:
        charge_gap(r, st, ev, obs);
        break;
      case EventKind::SectionExit:
        charge_gap(r, st, ev, obs);
        if (st.stack.empty()) fail(r, ev, "section exit with empty stack");
        break;
      case EventKind::CommSync: {
        if (!st.sync_entered) {
          charge_gap(r, st, ev, obs);
          st.sync_key = {ev.comm, st.sync_ordinal[ev.comm]++};
          Round& sy = syncs_[st.sync_key];
          sy.members = ev.peer;
          sy.rounds = ev.seq;
          arrive(r, idx, st, sy, obs);
          st.sync_entered = true;
          if (!sy.met()) return Step::Progress;
        }
        const Round& sy = syncs_[st.sync_key];
        if (!sy.met()) return Step::Blocked;
        const auto rounds = static_cast<double>(sy.rounds);
        link = {sy.max_rank, sy.max_idx, false, &sy};
        for (std::size_t f = 0; f < N; ++f) {
          const double leave =
              sy.max[f] + rounds * frames_[f].net->inter_node.latency;
          if (f == 0) link.binds = leave > st.t[0] && sy.max_rank != r;
          st.t[f] = std::max(st.t[f], leave);
        }
        st.sync_entered = false;
        break;
      }
      case EventKind::NbcPost: {
        charge_gap(r, st, ev, obs);
        // Entry overhead on the collective-entry jitter stream (salt 2),
        // mirroring Comm::nbc_post.
        charge_overhead(st, &mpisim::NetworkModel::send_overhead);
        Round& nb = nbc_rounds_[{ev.comm, ev.seq}];
        nb.members = ev.peer;
        nb.bytes = std::max(nb.bytes, ev.bytes);
        arrive(r, idx, st, nb, obs);
        break;
      }
      case EventKind::NbcComplete: {
        const auto it = nbc_rounds_.find({ev.comm, ev.seq});
        if (it == nbc_rounds_.end() || !it->second.met()) {
          return Step::Blocked;  // fence stalls until the post quorum
        }
        charge_gap(r, st, ev, obs);
        Round& nb = it->second;
        link = {nb.max_rank, nb.max_idx, false, &nb};
        for (std::size_t f = 0; f < N; ++f) {
          const double done = frames_[f].progress.nbc_complete_time(
              st.t[f], nb.max[f], frames_[f].net->nbc_cost(nb.members, nb.bytes));
          // The latest poster gated the fence.
          if (f == 0) link.binds = done > st.t[0] && nb.max_rank != r;
          st.t[f] = done;
        }
        if (++nb.departed == nb.members) fenced = it;
        break;
      }
      case EventKind::Finalize:
        charge_gap(r, st, ev, obs);
        if (st.t[0] != tf_.ranks[static_cast<std::size_t>(r)].t_final) {
          fail(r, ev, "recorded-frame final time mismatch (corrupt trace?)");
        }
        st.done = true;
        break;
    }
    obs.on_event(r, st, ev, link);
    if (ev.kind == EventKind::SectionEnter) {
      st.stack.push_back({ev.comm, ev.label, st.t});
    } else if (ev.kind == EventKind::SectionExit) {
      st.stack.pop_back();
    }
    if (fenced != nbc_rounds_.end()) nbc_rounds_.erase(fenced);
    ++st.cursor;
    return Step::Advanced;
  }

  const TraceFile& tf_;
  std::array<Frame, N> frames_;
  /// Frames that own their draws; the tape has a column per owner.
  std::size_t owners_ = 0;
  /// The tape column each frame reads (shared with an earlier frame of the
  /// same seed and jitter).
  std::array<std::size_t, N> column_{};
  const char* who_;
  std::vector<RankState> ranks_;
  /// Every rank's draws, rank by rank; RankState::draw indexes its row.
  std::unique_ptr<double[]> tape_;
  MsgTable<Msg> msgs_;
  RoundMap syncs_;
  RoundMap nbc_rounds_;
};

}  // namespace mpisect::trace
