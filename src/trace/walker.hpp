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
// Frames share jitter draws: the draws are keyed on logical ids and depend
// only on a model's seed and JitterModel, so a frame whose network has the
// same seed and jitter as an earlier frame reuses that frame's draws for
// every message and CPU overhead instead of drawing again. Most of a
// frame's cost is its draws, so what-if frames that only rescale links or
// compute cost little beyond the first.
//
// Whatever a caller keeps beyond the clocks lives in an observer passed to
// run() (hooks: WalkObserver); `Extra` adds observer fields to every
// message record and barrier round instead of a second table.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpisim/netmodel.hpp"
#include "mpisim/progress.hpp"
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
    std::vector<MsgKey> send_keys, recv_keys;
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
    for (std::size_t f = 0; f < N; ++f) {
      const mpisim::NetworkModel& net = *frames_[f].net;
      draws_from_[f] = f;
      for (std::size_t g = 0; g < f; ++g) {
        const mpisim::NetworkModel& other = *frames_[g].net;
        if (other.seed == net.seed && other.jitter == net.jitter) {
          draws_from_[f] = g;
          break;
        }
      }
    }
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      ranks_[r].t.fill(tf.ranks[r].t0);
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

  /// Every frame's jitter draw for one key: `draw(net)` in a frame that
  /// owns its draws, the earlier frame's draw in a frame that shares them.
  template <class DrawFn>
  std::array<mpisim::JitterDraw, N> jitter(DrawFn&& draw) const {
    std::array<mpisim::JitterDraw, N> out;
    out[0] = draw(*frames_[0].net);
    for (std::size_t f = 1; f < N; ++f) {
      out[f] = draws_from_[f] == f ? draw(*frames_[f].net)
                                   : out[draws_from_[f]];
    }
    return out;
  }

  /// Charge the jittered CPU overhead of a call in every frame.
  void charge_overhead(int r, RankState& st, double mpisim::NetworkModel::*base,
                       std::uint64_t op, std::uint64_t salt) {
    const auto jit = jitter([&](const mpisim::NetworkModel& net) {
      return net.cpu_jitter(r, op, salt);
    });
    for (std::size_t f = 0; f < N; ++f) {
      const mpisim::NetworkModel& net = *frames_[f].net;
      st.t[f] += std::max(net.cpu_overhead(net.*base, jit[f]), 0.0);
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
    const RankStream& stream = tf_.ranks[static_cast<std::size_t>(r)];
    if (st.cursor >= stream.events.size()) {
      st.done = true;  // no Finalize recorded (aborted run): stop here
      return Step::Advanced;
    }
    const Event& ev = stream.events[st.cursor];
    const auto idx = static_cast<std::uint32_t>(st.cursor);
    obs.before_step(r, st.t);
    Link link;
    auto fenced = nbc_rounds_.end();  // NBC round to drop after on_event
    switch (ev.kind) {
      case EventKind::SendPost: {
        charge_gap(r, st, ev, obs);
        charge_overhead(r, st, &mpisim::NetworkModel::send_overhead, ev.op, 0);
        const MsgKey key{ev.comm, r, ev.peer, ev.seq};
        Msg& ms = msgs_[key];
        const auto nbytes = static_cast<std::size_t>(ev.bytes);
        const auto jit = jitter([&](const mpisim::NetworkModel& net) {
          return net.transfer_jitter(r, ev.peer, ev.seq);
        });
        for (std::size_t f = 0; f < N; ++f) {
          const mpisim::NetworkModel& net = *frames_[f].net;
          ms.start[f] = st.t[f];
          ms.wire[f] = net.transfer_cost(r, ev.peer, nbytes, jit[f]);
          ms.rend[f] = nbytes > net.eager_threshold;
        }
        ms.send_rank = r;
        ms.send_idx = idx;
        obs.on_send(r, ev, ms);
        st.send_keys.push_back(key);
        break;
      }
      case EventKind::SendWait: {
        if (ev.op >= st.send_keys.size()) fail(r, ev, "bad send backref");
        const MsgKey key = st.send_keys[st.send_keys.size() - 1 - ev.op];
        const auto it = msgs_.find(key);
        if (it == msgs_.end()) {
          // Already fully consumed: wait() was a no-op re-wait.
          charge_gap(r, st, ev, obs);
          break;
        }
        Msg& ms = it->second;
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
        if (ev.peer == Event::kUnmatched) {
          st.recv_keys.push_back(MsgKey::none());
        } else {
          const MsgKey key{ev.comm, ev.peer, r, ev.seq};
          Msg& ms = msgs_[key];
          ms.post = st.t;
          ms.post_rank = r;
          ms.post_idx = idx;
          st.recv_keys.push_back(key);
        }
        obs.on_recv_post(r, ev, idx);
        break;
      }
      case EventKind::RecvWait: {
        if (ev.seq >= st.recv_keys.size()) fail(r, ev, "bad recv backref");
        const std::size_t back = st.recv_keys.size() - 1 - ev.seq;
        const MsgKey key = st.recv_keys[back];
        if (key.null()) fail(r, ev, "wait on a receive that never matched");
        const auto it = msgs_.find(key);
        if (it == msgs_.end() || it->second.send_rank < 0) return Step::Blocked;
        Msg& ms = it->second;
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
        charge_overhead(r, st, &mpisim::NetworkModel::recv_overhead, ev.op, 1);
        obs.on_recv_wait(r, idx, back, key, ms);
        consume(key, ms);
        break;
      }
      case EventKind::Probe: {
        const MsgKey key{ev.comm, ev.peer, r, ev.seq};
        const auto it = msgs_.find(key);
        if (it == msgs_.end() || it->second.send_rank < 0) return Step::Blocked;
        const Msg& ms = it->second;
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
        charge_overhead(r, st, &mpisim::NetworkModel::send_overhead, ev.op, 2);
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
        charge_overhead(r, st, &mpisim::NetworkModel::send_overhead, ev.op, 2);
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
        if (st.t[0] != stream.t_final) {
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
  /// The frame whose jitter draws each frame reuses (itself if none).
  std::array<std::size_t, N> draws_from_{};
  const char* who_;
  std::vector<RankState> ranks_;
  std::unordered_map<MsgKey, Msg, MsgKeyHash> msgs_;
  RoundMap syncs_;
  RoundMap nbc_rounds_;
};

}  // namespace mpisect::trace
