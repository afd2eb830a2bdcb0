#include "analysis/interp.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "mpisim/message.hpp"
#include "trace/walker.hpp"

namespace mpisect::analysis {

namespace {

using trace::Event;
using trace::EventKind;

void join_vc(std::vector<std::uint64_t>& into,
             const std::vector<std::uint64_t>& other) {
  for (std::size_t i = 0; i < into.size(); ++i) {
    into[i] = std::max(into[i], other[i]);
  }
}

/// What the analyzer attaches to the walker's records: each send's
/// channel list and slot in it (std::map nodes never move, so the pointer
/// stays valid), and each barrier/NBC round's joined vector clock.
struct HbExtra {
  struct Msg {
    std::vector<SendInfo>* channel = nullptr;
    std::size_t channel_slot = 0;
  };
  struct Round {
    std::vector<std::uint64_t> joined;
  };
};
using HbWalker = trace::Walker<1, HbExtra>;

/// The analyzer's share of the walk (recorded frame only): per-event
/// times with binding parents and sections, vector clocks, and the
/// channel/receive database.
struct Interpreter : trace::WalkObserver {
  const trace::TraceFile& tf;
  InterpResult res;
  bool track_clocks = false;
  std::vector<std::vector<std::uint64_t>> vc;  ///< per-rank running clock

  explicit Interpreter(const trace::TraceFile& t) : tf(t) {
    const std::size_t n = tf.ranks.size();
    scan_envelopes();
    track_clocks = res.has_wildcard && res.envelopes_recorded;
    res.times.resize(n);
    if (track_clocks) {
      res.clocks.resize(n);
      vc.assign(n, std::vector<std::uint64_t>(n, 0));  // O(n^2): only if used
    }
    res.rank_recvs.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      res.t0.push_back(tf.ranks[r].t0);
      res.times[r].reserve(tf.ranks[r].events.size());
      if (track_clocks) res.clocks[r].reserve(tf.ranks[r].events.size());
    }
  }

  /// One pass over the raw streams: wildcard presence, envelope coverage,
  /// and communicator membership (every rank that touches a context). The
  /// pass visits ranks in order, so a rank is appended to a context's
  /// member list at its first event there and the lists come out sorted.
  void scan_envelopes() {
    std::size_t recv_posts = 0;
    std::vector<int> touched;  // contexts of the current rank
    for (const auto& rs : tf.ranks) {
      touched.clear();
      const auto touch = [&](int comm) {
        if (std::ranges::find(touched, comm) == touched.end()) {
          touched.push_back(comm);
        }
      };
      for (const Event& ev : rs.events) {
        switch (ev.kind) {
          case EventKind::RecvPost:
            ++recv_posts;
            [[fallthrough]];
          case EventKind::Probe:
            if (ev.post_src == Event::kNotRecorded) {
              res.envelopes_recorded = false;
            } else if (ev.post_src == mpisim::kAnySource ||
                       ev.tag == mpisim::kAnyTag) {
              res.has_wildcard = true;
            }
            touch(ev.comm);
            break;
          case EventKind::SendPost:
          case EventKind::CollBegin:
          case EventKind::CommSync:
          case EventKind::NbcPost:
          case EventKind::SectionEnter:
          case EventKind::SectionExit:
            touch(ev.comm);
            break;
          default:
            break;
        }
      }
      for (const int comm : touched) {
        res.comm_members[comm].push_back(rs.rank);
      }
    }
    // A stream's rank field out of order (a corrupt trace) still yields
    // sorted, distinct member lists.
    for (auto& [ctx, members] : res.comm_members) {
      if (std::ranges::adjacent_find(members, std::greater_equal<>()) !=
          members.end()) {
        std::ranges::sort(members);
        members.erase(std::ranges::unique(members).begin(), members.end());
      }
    }
    res.recvs.reserve(recv_posts);
  }

  void on_arrive(int r, HbWalker::Round& round) {
    if (!track_clocks) return;
    if (round.x.joined.empty()) round.x.joined.assign(vc.size(), 0);
    join_vc(round.x.joined, vc[static_cast<std::size_t>(r)]);
  }

  void on_send(int r, const Event& ev, HbWalker::Msg& ms) {
    auto& chan = res.channels[ChannelKey{ev.comm, r, ev.peer}];
    ms.x.channel = &chan;
    ms.x.channel_slot = chan.size();
    chan.push_back(SendInfo{ev.seq, ev.tag, ev.bytes, ms.send_idx, ms.rend[0],
                            false, 0, false, 0});
  }

  void on_recv_post(int r, const Event& ev, std::uint32_t idx) {
    res.rank_recvs[static_cast<std::size_t>(r)].push_back(res.recvs.size());
    res.recvs.push_back(RecvInfo{r, ev.comm, idx, false, 0, ev.post_src,
                                 ev.tag, ev.peer, ev.seq});
  }

  /// Mark the channel-side match so match sets can see consumption.
  void on_recv_wait(int r, std::uint32_t idx, std::size_t back,
                    const HbWalker::Msg& ms) {
    SendInfo& send = (*ms.x.channel)[ms.x.channel_slot];
    send.matched = true;
    send.recv_post_idx = ms.post_idx;
    send.completed = true;
    send.recv_wait_idx = idx;
    auto& ri = res.recvs[res.rank_recvs[static_cast<std::size_t>(r)][back]];
    ri.completed = true;
    ri.wait_idx = idx;
  }

  /// Commit one event: time, binding parent, section, vector clock.
  void on_event(int r, const HbWalker::RankState& st, const Event& /*ev*/,
                const HbWalker::Link& link) {
    const auto rank = static_cast<std::size_t>(r);
    EventInfo info;
    info.t = st.t[0];
    if (link.binds) {
      info.parent_rank = link.rank;
      info.parent_idx = link.idx;
    }
    if (!st.stack.empty()) {
      info.section_comm = st.stack.back().comm;
      info.section = st.stack.back().label;
    }
    res.times[rank].push_back(info);
    if (!track_clocks) return;
    std::vector<std::uint64_t>& clock = vc[rank];
    if (link.round != nullptr) {
      join_vc(clock, link.round->x.joined);
    } else if (link.rank >= 0) {
      join_vc(clock, res.clocks[static_cast<std::size_t>(link.rank)][link.idx]);
    }
    ++clock[rank];
    res.clocks[rank].push_back(clock);
  }

  void finalize(const HbWalker& walker) {
    res.makespan = -std::numeric_limits<double>::infinity();
    for (const auto& st : walker.ranks()) {
      if (st.t[0] > res.makespan) {
        res.makespan = st.t[0];
        res.last_rank = static_cast<int>(res.final_times.size());
      }
      res.final_times.push_back(st.t[0]);
    }
    if (res.final_times.empty()) res.makespan = 0.0;
  }
};

}  // namespace

bool InterpResult::happens_before(int rank_a, std::uint32_t idx_a, int rank_b,
                                  std::uint32_t idx_b) const {
  if (rank_a == rank_b) return idx_a < idx_b;
  const auto& va = clocks[static_cast<std::size_t>(rank_a)][idx_a];
  const auto& vb = clocks[static_cast<std::size_t>(rank_b)][idx_b];
  return va[static_cast<std::size_t>(rank_a)] <=
         vb[static_cast<std::size_t>(rank_a)];
}

InterpResult interpret(const trace::TraceFile& tf) {
  HbWalker walker(tf, {trace::Frame{&tf.header.machine.net, tf.header.progress}},
                  "analysis");
  Interpreter interp(tf);
  walker.run(interp);
  interp.finalize(walker);
  return std::move(interp.res);
}

}  // namespace mpisect::analysis
