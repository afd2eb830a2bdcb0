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
// What the walk derives from the events alone is kept with the trace
// (TraceFile::kept, see KeptWalkState) and built by the first walk:
// - the WalkPlan: each rank's draw-row offset, the event indices of its
//   sends and receives, each comm-sync's ordinal, and a dense message id
//   for every SendPost, matched RecvPost and Probe (one id per distinct
//   MsgKey);
// - one draw tape per (seed, JitterModel) of a jittered frame. A draw
//   depends only on (seed, JitterModel, rank, event), never on walk order,
//   so a tape holds every draw of the trace in walk order: per rank, in
//   event order, one double (the factor) per CPU draw of a SendPost,
//   RecvWait, CollBegin or NbcPost and two (factor, additive) per transfer
//   draw of a SendPost, 24 B per sent message and 8 B per other drawing
//   event (about 1.2 MB for the 196,880-event Lulesh p = 512 trace). It is
//   filled rank by rank on support::parallel_for (inline for a trace of
//   fewer than kParallelMinWork events, a single rank or one usable core).
// An unjittered frame (JitterModel::Kind::None) has no tape: its draws are
// the constants of kNoJitter. Every frame reads a draw as its tape at the
// rank's draw cursor masked by its row mask, which is 0 for an unjittered
// frame; there is no other draw path. Frames of the same seed and jitter
// read one tape, so what-if frames that only rescale links or compute cost
// little beyond the first, and a walk of a trace walked before under the
// same networks draws nothing. The kept state describes the events as the
// first walk saw them: edit a copy of a trace, never a walked trace.
//
// In-flight messages live in a MsgTable: records in fixed blocks that
// never move, recycled through a free list and found by message id. A
// rank keeps counters of its posts; a wait finds its post's message id in
// the plan through its back-reference. Every read of a rank's recorded
// events goes through events(r).
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
};

/// Tape rows an event of kind `k` draws: a CPU factor for every jittered
/// call overhead, plus a transfer factor and additive term for a send.
constexpr std::size_t draw_width(EventKind k) noexcept {
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

/// The draws of an unjittered network, laid out as a SendPost's rows (CPU
/// factor, transfer factor, transfer additive); a one-row event reads the
/// first.
inline constexpr double kNoJitter[3] = {1.0, 1.0, 0.0};

/// What a walk derives from a trace's events alone, built once per trace
/// (KeptWalkState::plan). Per rank, in event order: the draw-row offset,
/// and for every SendPost, RecvPost, Probe and CommSync what the walk
/// looks up when it steps or back-references it.
struct WalkPlan {
  /// Message id of a RecvPost that never matched.
  static constexpr std::uint32_t kNoMsg =
      std::numeric_limits<std::uint32_t>::max();

  struct Rank {
    std::size_t draw = 0;  ///< tape row of the rank's first draw
    /// Per SendPost: its event index and message id.
    std::vector<std::uint32_t> send_idx, send_msg;
    /// Per RecvPost: its event index and message id (kNoMsg: unmatched).
    std::vector<std::uint32_t> recv_idx, recv_msg;
    std::vector<std::uint32_t> probe_msg;  ///< per Probe: its message id
    /// Per CommSync: how many CommSyncs on its comm the rank made before.
    std::vector<std::uint64_t> sync_ordinal;
  };

  std::vector<Rank> ranks;
  std::size_t draws = 0;       ///< tape rows of the whole trace
  std::uint32_t messages = 0;  ///< ids are [0, messages)

  /// Throws TraceError when the trace has 2^32 - 1 messages or more.
  [[nodiscard]] static WalkPlan build(const TraceFile& tf);
};

/// In-flight message records keyed by message id. Records live in blocks
/// of kBlock that never move: growth adds a block and copies no record,
/// and an erased record's slot goes on a free list for the next message.
/// `slot_of` maps an id to its record's slot.
template <class Rec>
class MsgTable {
 public:
  explicit MsgTable(std::uint32_t ids) : slot_of_(ids, kNone) {}

  /// id's record, or nullptr.
  [[nodiscard]] Rec* find(std::uint32_t id) noexcept {
    const std::uint32_t slot = slot_of_[id];
    return slot == kNone ? nullptr : &at(slot);
  }

  /// id's record, a default-constructed one on first sight.
  Rec& operator[](std::uint32_t id) {
    std::uint32_t& slot = slot_of_[id];
    if (slot != kNone) return at(slot);
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
    return at(slot);
  }

  /// Drop id's record, which must exist.
  void erase(std::uint32_t id) {
    free_.push_back(slot_of_[id]);
    slot_of_[id] = kNone;
  }

 private:
  static constexpr std::uint32_t kBlock = 128;
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  Rec& at(std::uint32_t slot) noexcept {
    return blocks_[slot / kBlock][slot % kBlock];
  }

  std::vector<std::uint32_t> slot_of_;
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
                    const auto& /*msg*/) {}
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
    /// SendPosts, RecvPosts, Probes and CommSyncs stepped so far: the
    /// positions of the next ones in the rank's WalkPlan::Rank lists.
    std::uint32_t sends = 0, recvs = 0, probes = 0, syncs = 0;
    bool sync_entered = false;
    std::pair<int, std::uint64_t> sync_key{0, 0};
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
      : tf_(tf),
        frames_(frames),
        who_(who),
        plan_(checked(tf).kept.plan(tf)),
        ranks_(tf.ranks.size()),
        msgs_(plan_.messages) {
    for (std::size_t f = 0; f < N; ++f) {
      const mpisim::NetworkModel& net = *frames_[f].net;
      tape_[f] = kNoJitter;
      if (net.jitter.kind == mpisim::JitterModel::Kind::None) continue;
      mask_[f] = ~std::size_t{0};
      // The first frame of each seed and jitter takes the tape.
      std::size_t g = 0;
      while (g < f && (held_[g] == nullptr || frames_[g].net->seed != net.seed ||
                       !(frames_[g].net->jitter == net.jitter))) {
        ++g;
      }
      if (g == f) held_[f] = tf.kept.tape(tf, net);
      tape_[f] = held_[g].get();
    }
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      ranks_[r].t.fill(tf.ranks[r].t0);
      ranks_[r].draw = plan_.ranks[r].draw;
    }
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

  /// tf, once its rank streams match the header's rank count.
  static const TraceFile& checked(const TraceFile& tf) {
    if (tf.ranks.size() != static_cast<std::size_t>(tf.header.nranks)) {
      throw TraceError("trace rank streams do not match header rank count");
    }
    return tf;
  }

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

  /// Take the next `width` tape rows of st; returns the first.
  static std::size_t take(RankState& st, std::size_t width) noexcept {
    const std::size_t row = st.draw;
    st.draw += width;
    return row;
  }

  /// Frame f's draws at tape row `row`: the row of its tape, or kNoJitter.
  [[nodiscard]] const double* draws(std::size_t f, std::size_t row) const
      noexcept {
    return tape_[f] + (row & mask_[f]);
  }

  /// Charge the jittered CPU overhead of a call in every frame, drawn at
  /// tape row `row`.
  void charge_overhead(RankState& st, std::size_t row,
                       double mpisim::NetworkModel::*base) {
    for (std::size_t f = 0; f < N; ++f) {
      const mpisim::NetworkModel& net = *frames_[f].net;
      st.t[f] += std::max(
          net.cpu_overhead(net.*base, mpisim::JitterDraw{*draws(f, row), 0.0}),
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

  void consume(std::uint32_t id, Msg& ms) {
    if (++ms.consumed >= 2) msgs_.erase(id);
  }

  /// Rendezvous completion in frame f: both sides are in and the wire is
  /// done, plus the progress model's delivery surcharge.
  double rendezvous_done(const Msg& ms, std::size_t f) const noexcept {
    return std::max(ms.start[f], ms.post[f]) + ms.wire[f] +
           frames_[f].progress.rendezvous_extra();
  }

  /// Fail when a fault plan lost `ms` for good in some frame: the recorded
  /// event waiting for it can never complete. An eager send completes
  /// locally, so its wait only cares when `rendezvous_only`. `key()` names
  /// the message.
  template <class KeyFn>
  void check_delivered(int r, const Event& ev, const Msg& ms,
                       bool rendezvous_only, KeyFn&& key) const {
    for (std::size_t f = 0; f < N; ++f) {
      if (!ms.lost[f] || (rendezvous_only && !ms.rend[f])) continue;
      const MsgKey k = key();
      fail(r, ev,
           "message " + std::to_string(k.src) + "->" + std::to_string(k.dst) +
               " seq " + std::to_string(k.seq) +
               " lost under the fault plan (retransmit budget exhausted); "
               "the recorded " + event_kind_name(ev.kind) +
               " can never complete");
    }
  }

  template <class Obs>
  Step step(int r, Obs& obs) {
    RankState& st = ranks_[static_cast<std::size_t>(r)];
    const WalkPlan::Rank& plan = plan_.ranks[static_cast<std::size_t>(r)];
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
        const std::size_t row = take(st, 3);
        charge_overhead(st, row, &mpisim::NetworkModel::send_overhead);
        Msg& ms = msgs_[plan.send_msg[st.sends++]];
        const auto nbytes = static_cast<std::size_t>(ev.bytes);
        for (std::size_t f = 0; f < N; ++f) {
          const mpisim::NetworkModel& net = *frames_[f].net;
          const double* d = draws(f, row) + 1;
          ms.start[f] = st.t[f];
          ms.wire[f] = net.transfer_cost(r, ev.peer, nbytes,
                                         mpisim::JitterDraw{d[0], d[1]});
          ms.rend[f] = nbytes > net.eager_threshold;
        }
        ms.send_rank = r;
        ms.send_idx = idx;
        obs.on_send(r, ev, ms);
        break;
      }
      case EventKind::SendWait: {
        if (ev.op >= st.sends) fail(r, ev, "bad send backref");
        const std::size_t back = st.sends - 1 - ev.op;
        const std::uint32_t id = plan.send_msg[back];
        Msg* const found = msgs_.find(id);
        if (found == nullptr) {
          // Already fully consumed: wait() was a no-op re-wait.
          charge_gap(r, st, ev, obs);
          break;
        }
        Msg& ms = *found;
        check_delivered(r, ev, ms, true, [&] {
          const Event& post = stream[plan.send_idx[back]];
          return MsgKey{post.comm, r, post.peer, post.seq};
        });
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
        consume(id, ms);
        break;
      }
      case EventKind::RecvPost: {
        charge_gap(r, st, ev, obs);
        const std::uint32_t id = plan.recv_msg[st.recvs++];
        if (id != WalkPlan::kNoMsg) {
          Msg& ms = msgs_[id];
          ms.post = st.t;
          ms.post_rank = r;
          ms.post_idx = idx;
        }
        obs.on_recv_post(r, ev, idx);
        break;
      }
      case EventKind::RecvWait: {
        if (ev.seq >= st.recvs) fail(r, ev, "bad recv backref");
        const std::size_t back = st.recvs - 1 - ev.seq;
        const std::uint32_t id = plan.recv_msg[back];
        if (id == WalkPlan::kNoMsg) {
          fail(r, ev, "wait on a receive that never matched");
        }
        Msg* const found = msgs_.find(id);
        if (found == nullptr || found->send_rank < 0) return Step::Blocked;
        Msg& ms = *found;
        check_delivered(r, ev, ms, false, [&] {
          const Event& post = stream[plan.recv_idx[back]];
          return MsgKey{post.comm, post.peer, r, post.seq};
        });
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
        charge_overhead(st, take(st, 1), &mpisim::NetworkModel::recv_overhead);
        obs.on_recv_wait(r, idx, back, ms);
        consume(id, ms);
        break;
      }
      case EventKind::Probe: {
        const Msg* const found = msgs_.find(plan.probe_msg[st.probes]);
        if (found == nullptr || found->send_rank < 0) return Step::Blocked;
        const Msg& ms = *found;
        check_delivered(r, ev, ms, false,
                        [&] { return MsgKey{ev.comm, ev.peer, r, ev.seq}; });
        charge_gap(r, st, ev, obs);
        ++st.probes;
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
        charge_overhead(st, take(st, 1), &mpisim::NetworkModel::send_overhead);
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
          st.sync_key = {ev.comm, plan.sync_ordinal[st.syncs++]};
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
        charge_overhead(st, take(st, 1), &mpisim::NetworkModel::send_overhead);
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
  const char* who_;
  const WalkPlan& plan_;
  /// The tapes this walk reads, held until it ends: held_[f] is set for
  /// the first jittered frame of each (seed, JitterModel).
  std::array<std::shared_ptr<const double[]>, N> held_{};
  /// Frame f reads row k of its draws at tape_[f][k & mask_[f]]: its tape
  /// (mask all ones) or kNoJitter (mask 0).
  std::array<const double*, N> tape_{};
  std::array<std::size_t, N> mask_{};
  std::vector<RankState> ranks_;
  MsgTable<Msg> msgs_;
  RoundMap syncs_;
  RoundMap nbc_rounds_;
};

}  // namespace mpisect::trace
