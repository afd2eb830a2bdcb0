#include "analysis/latent.hpp"

#include <map>
#include <utility>

#include "checker/comm_registry.hpp"
#include "mpisim/message.hpp"
#include "trace/walker.hpp"

namespace mpisect::analysis {

namespace {

using trace::Event;
using trace::EventKind;
using trace::Quorum;
using trace::Step;

bool tag_compatible(int posted_tag, int tag) {
  if (posted_tag == mpisim::kAnyTag) return tag < mpisim::kInternalTagBase;
  return posted_tag == tag;
}

/// One deposited send during the simulation.
struct PendingSend {
  int src = -1;
  std::uint64_t seq = 0;
  int tag = 0;
  bool rendezvous = false;
  bool reserved = false;  ///< held for the forced receive only
  bool matched = false;
};

bool eligible(const PendingSend& ps, int post_tag) {
  return !ps.matched && !ps.reserved && tag_compatible(post_tag, ps.tag);
}

/// One posted receive during the simulation (its envelope is in
/// InterpResult::recvs).
struct PostedRecv {
  std::size_t recv_slot = 0;  ///< InterpResult::recvs index
  bool forced = false;
  bool matched = false;
};

struct SimRank {
  std::size_t cursor = 0;
  /// Program-order send identities for SendWait backrefs.
  std::vector<std::pair<ChannelKey, std::uint64_t>> sends;
  std::vector<std::size_t> posted;  ///< posted-receive indices, post order
  std::map<int, std::uint64_t> sync_done;  ///< per-comm completed CommSyncs
  bool sync_entered = false;
  bool done = false;
  checker::RankWaitState wait;  ///< the call the last blocked step sat in

  [[nodiscard]] std::uint64_t sync_ordinal(int comm) const {
    const auto it = sync_done.find(comm);
    return it == sync_done.end() ? 0 : it->second;
  }
};

/// Untimed greedy re-matching of the event skeleton with one forced pair.
struct Sim {
  const trace::TraceFile& tf;
  const InterpResult& in;
  std::size_t forced_slot;
  const AltSender& forced;

  std::vector<SimRank> ranks;
  std::map<ChannelKey, std::vector<PendingSend>> channels;
  std::vector<PostedRecv> posts;
  std::map<std::pair<int, std::uint64_t>, Quorum> syncs;
  /// Nonblocking-collective rounds keyed by (comm, generation): the post
  /// never blocks, the completion waits for every member's post.
  std::map<std::pair<int, std::uint64_t>, Quorum> nbc;
  std::uint64_t advanced = 0;

  Sim(const trace::TraceFile& t, const InterpResult& i, std::size_t slot,
      const AltSender& alt)
      : tf(t), in(i), forced_slot(slot), forced(alt), ranks(t.ranks.size()) {}

  PendingSend* find_send(const ChannelKey& key, std::uint64_t seq) {
    const auto it = channels.find(key);
    if (it == channels.end()) return nullptr;
    for (PendingSend& ps : it->second) {
      if (ps.seq == seq) return &ps;
    }
    return nullptr;
  }

  /// The send a receive posted as (post_src, post_tag) would match now:
  /// the first live compatible send of each channel (FIFO), lowest
  /// (src, seq) across channels.
  PendingSend* best_pending(int comm, int dst, int post_src, int post_tag) {
    PendingSend* best = nullptr;
    for (auto& [key, queue] : channels) {
      if (key.comm != comm || key.dst != dst) continue;
      if (post_src != mpisim::kAnySource && key.src != post_src) continue;
      for (PendingSend& ps : queue) {
        // Non-overtaking applies among matching envelopes only: consumed,
        // reserved, and tag-mismatched sends are scanned past.
        if (!eligible(ps, post_tag)) continue;
        if (best == nullptr || ps.src < best->src ||
            (ps.src == best->src && ps.seq < best->seq)) {
          best = &ps;
        }
        break;  // FIFO: first compatible live send per channel
      }
    }
    return best;
  }

  /// Greedy match policy: the forced receive takes only its reserved
  /// send; everything else prefers its recorded sender, then the lowest
  /// (src, seq) pending send — deterministic, so reports are byte-stable.
  bool try_match(int dst, PostedRecv& pr) {
    const RecvInfo& ri = in.recvs[pr.recv_slot];
    PendingSend* ps = nullptr;
    if (pr.forced) {
      ps = find_send(ChannelKey{ri.comm, forced.src, dst}, forced.seq);
      if (ps != nullptr && ps->matched) ps = nullptr;
    } else {
      if (ri.matched_src >= 0) {
        ps = find_send(ChannelKey{ri.comm, ri.matched_src, dst}, ri.seq);
        if (ps != nullptr && !eligible(*ps, ri.post_tag)) ps = nullptr;
      }
      if (ps == nullptr) {
        ps = best_pending(ri.comm, dst, ri.post_src, ri.post_tag);
      }
    }
    if (ps == nullptr) return false;
    ps->matched = true;
    pr.matched = true;
    return true;
  }

  void match_rank(int dst) {
    for (const std::size_t p : ranks[static_cast<std::size_t>(dst)].posted) {
      if (!posts[p].matched) (void)try_match(dst, posts[p]);
    }
  }

  /// Record what a blocked rank waits in, for snapshot().
  static Step block(SimRank& st, mpisim::MpiCall call, int comm, int peer,
                    bool collective = false, std::uint64_t ordinal = 0) {
    st.wait = {.call = call,
               .collective = collective,
               .comm_context = comm,
               .peer_world = peer,
               .coll_ordinal = ordinal,
               .coll_done = {}};
    return Step::Blocked;
  }

  /// Advance rank r by one event.
  Step step(int r) {
    SimRank& st = ranks[static_cast<std::size_t>(r)];
    const auto& events = tf.ranks[static_cast<std::size_t>(r)].events;
    if (st.cursor >= events.size()) {
      st.done = true;
      return Step::Advanced;
    }
    const Event& ev = events[st.cursor];
    switch (ev.kind) {
      case EventKind::SendPost: {
        const ChannelKey key{ev.comm, r, ev.peer};
        const RecvInfo& fr = in.recvs[forced_slot];
        const bool reserved = r == forced.src && ev.seq == forced.seq &&
                              ev.comm == fr.comm && ev.peer == fr.rank;
        channels[key].push_back(PendingSend{
            r, ev.seq, ev.tag,
            ev.bytes > tf.header.machine.net.eager_threshold, reserved,
            false});
        st.sends.emplace_back(key, ev.seq);
        match_rank(ev.peer);
        break;
      }
      case EventKind::SendWait: {
        if (ev.op >= st.sends.size()) {  // corrupt backref
          return block(st, mpisim::MpiCall::Init, -1, -1);
        }
        const auto& [key, seq] = st.sends[st.sends.size() - 1 - ev.op];
        const PendingSend* ps = find_send(key, seq);
        if (ps != nullptr && ps->rendezvous && !ps->matched) {
          return block(st, mpisim::MpiCall::Wait, key.comm, key.dst);
        }
        break;
      }
      case EventKind::RecvPost: {
        const std::size_t slot =
            in.rank_recvs[static_cast<std::size_t>(r)][st.posted.size()];
        posts.push_back(PostedRecv{slot, slot == forced_slot, false});
        st.posted.push_back(posts.size() - 1);
        match_rank(r);
        break;
      }
      case EventKind::RecvWait: {
        if (ev.seq >= st.posted.size()) {  // corrupt backref
          return block(st, mpisim::MpiCall::Init, -1, -1);
        }
        const PostedRecv& pr = posts[st.posted[st.posted.size() - 1 - ev.seq]];
        if (!pr.matched) {
          // The forced receive waits specifically for its reserved sender.
          const RecvInfo& ri = in.recvs[pr.recv_slot];
          return block(st, mpisim::MpiCall::Recv, ri.comm,
                       pr.forced ? forced.src : ri.post_src);
        }
        break;
      }
      case EventKind::Probe: {
        // Pre-v3 probes carry no posted envelope; fall back to the
        // recorded matched identity.
        const bool recorded = ev.post_src != Event::kNotRecorded;
        const int post_src = recorded ? ev.post_src : ev.peer;
        const int post_tag = recorded ? ev.tag : mpisim::kAnyTag;
        if (best_pending(ev.comm, r, post_src, post_tag) == nullptr) {
          return block(st, mpisim::MpiCall::Probe, ev.comm, post_src);
        }
        break;
      }
      case EventKind::CommSync: {
        const std::uint64_t ordinal = st.sync_ordinal(ev.comm);
        Quorum& sy = syncs[{ev.comm, ordinal}];
        if (sy.members == 0) sy.members = ev.peer;
        if (!st.sync_entered) {
          ++sy.arrived;
          st.sync_entered = true;
        }
        if (!sy.met()) {
          return block(st, mpisim::MpiCall::CommSplit, ev.comm, -1, true,
                       ordinal);
        }
        st.sync_entered = false;
        ++st.sync_done[ev.comm];
        break;
      }
      case EventKind::NbcPost: {
        Quorum& nb = nbc[{ev.comm, ev.seq}];
        if (nb.members == 0) nb.members = ev.peer;
        ++nb.arrived;
        break;
      }
      case EventKind::NbcComplete: {
        const auto it = nbc.find({ev.comm, ev.seq});
        if (it == nbc.end() || !it->second.met()) {
          return block(st, mpisim::MpiCall::Wait, ev.comm, -1, true, ev.seq);
        }
        break;
      }
      case EventKind::CollBegin:
      case EventKind::CollEnd:
      case EventKind::SectionEnter:
      case EventKind::SectionExit:
      case EventKind::Pcontrol:
        break;
      case EventKind::Finalize:
        st.done = true;
        break;
    }
    ++st.cursor;
    ++advanced;
    return Step::Advanced;
  }

  /// Run to completion or quiescence; true = everyone finished.
  bool run() {
    return trace::run_to_quiescence(ranks, [&](int r) { return step(r); });
  }

  /// Blocked-rank snapshot in checker::RankWaitState form.
  std::vector<checker::RankWaitState> snapshot() const {
    std::vector<checker::RankWaitState> states(ranks.size());
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      const SimRank& st = ranks[r];
      auto& ws = states[r];
      if (st.done) {
        ws.phase = checker::RankWaitState::Phase::Finished;
      } else {
        ws = st.wait;
        ws.phase = checker::RankWaitState::Phase::Blocked;
        // Observation time: the recorded clock of the last completed event.
        ws.t_virtual = st.cursor > 0 ? in.times[r][st.cursor - 1].t
                                     : tf.ranks[r].t0;
      }
      ws.coll_done = st.sync_done;
    }
    return states;
  }
};

/// CommRegistry holds a mutex (non-movable), so it is filled in place.
void fill_registry(const InterpResult& in, checker::CommRegistry& comms) {
  for (const auto& [ctx, members] : in.comm_members) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      comms.on_create({.context = ctx,
                       .parent_context = -1,
                       .rank = static_cast<int>(i),
                       .size = static_cast<int>(members.size()),
                       .world_ranks = &members},
                      0.0);
    }
  }
}

}  // namespace

std::vector<LatentDeadlock> find_latent_deadlocks(
    const trace::TraceFile& tf, const InterpResult& in,
    const std::vector<RaceFinding>& races) {
  std::vector<LatentDeadlock> out;
  if (races.empty()) return out;
  checker::CommRegistry comms;
  fill_registry(in, comms);
  for (const RaceFinding& race : races) {
    for (const AltSender& alt : race.alternates) {
      Sim sim(tf, in, race.recv_slot, alt);
      if (sim.run()) continue;  // alternate matching still completes
      LatentDeadlock ld;
      ld.recv_slot = race.recv_slot;
      ld.forced = alt;
      ld.states = sim.snapshot();
      ld.analysis = checker::WaitGraph::analyze(ld.states, comms);
      ld.events_replayed = sim.advanced;
      out.push_back(std::move(ld));
    }
  }
  return out;
}

}  // namespace mpisect::analysis
