// The walk state kept with a trace: WalkPlan::build, the draw-tape fill and
// KeptWalkState's once-per-key store.
#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "trace/walker.hpp"

namespace mpisect::trace {

namespace {

constexpr std::uint32_t kNoMsg = WalkPlan::kNoMsg;

/// One rank's sends by (comm, dst, seq): an open-addressing table (linear
/// probing, at most half full) of send ordinals, the first send of a key
/// owning it.
class SendIndex {
 public:
  /// Index the sends at `send_idx` of `events`; send_msg[i] becomes the
  /// ordinal of the first send with send i's key.
  void build(std::span<const Event> events,
             std::span<const std::uint32_t> send_idx,
             std::span<std::uint32_t> send_msg) {
    std::size_t size = 16;
    while (size < 2 * send_idx.size()) size *= 2;
    slots_.assign(size, Slot{});
    for (std::size_t i = 0; i < send_idx.size(); ++i) {
      const Event& ev = events[send_idx[i]];
      Slot& slot = slots_[probe(ev.comm, ev.peer, ev.seq)];
      if (slot.ordinal == kNoMsg) {
        slot = {ev.comm, ev.peer, static_cast<std::uint32_t>(i), ev.seq};
      }
      send_msg[i] = slot.ordinal;
    }
  }

  /// The ordinal owning (comm, dst, seq), or kNoMsg.
  [[nodiscard]] std::uint32_t find(int comm, int dst,
                                   std::uint64_t seq) const noexcept {
    return slots_[probe(comm, dst, seq)].ordinal;
  }

 private:
  struct Slot {
    int comm = 0, dst = 0;
    std::uint32_t ordinal = kNoMsg;
    std::uint64_t seq = 0;
  };

  /// The position holding the key, else the empty one ending its run.
  [[nodiscard]] std::size_t probe(int comm, int dst,
                                  std::uint64_t seq) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(support::stream_id(
                        static_cast<std::uint64_t>(comm) << 32 |
                            static_cast<std::uint32_t>(dst),
                        seq)) &
                    mask;
    for (;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.ordinal == kNoMsg ||
          (s.seq == seq && s.dst == dst && s.comm == comm)) {
        return i;
      }
    }
  }

  std::vector<Slot> slots_;
};

/// A receive or probe key no send of the trace carries (a corrupt or
/// truncated trace), and where its id goes.
struct Orphan {
  std::uint32_t* id;
  MsgKey key;
};

/// Fill rank r's rows of the tape of `net` from `out` on, in the order
/// Walker::step reads them. The salts mirror mpisim::Comm: 0 for a send, 1
/// for a receive, 2 for a collective entry.
void fill_rank(std::span<const Event> events, int rank,
               const mpisim::NetworkModel& net, double* out) {
  for (const Event& ev : events) {
    switch (ev.kind) {
      case EventKind::SendPost: {
        *out++ = net.cpu_jitter(rank, ev.op, 0).factor;
        const mpisim::JitterDraw d = net.transfer_jitter(rank, ev.peer, ev.seq);
        *out++ = d.factor;
        *out++ = d.additive;
        break;
      }
      case EventKind::RecvWait:
        *out++ = net.cpu_jitter(rank, ev.op, 1).factor;
        break;
      case EventKind::CollBegin:
      case EventKind::NbcPost:
        *out++ = net.cpu_jitter(rank, ev.op, 2).factor;
        break;
      default:
        break;
    }
  }
}

}  // namespace

WalkPlan WalkPlan::build(const TraceFile& tf) {
  WalkPlan plan;
  const std::size_t n = tf.ranks.size();
  const std::size_t work = tf.total_events();
  plan.ranks.resize(n);
  std::vector<std::size_t> draws(n);
  std::vector<SendIndex> index(n);
  // Per rank: the post lists, comm-sync ordinals, draw rows and the send
  // index, with send ids still rank-local ordinals.
  support::parallel_for(n, work, [&](std::size_t r) {
    const std::vector<Event>& events = tf.ranks[r].events;
    Rank& pr = plan.ranks[r];
    std::size_t sends = 0, recvs = 0, probes = 0, syncs = 0;
    for (const Event& ev : events) {
      draws[r] += draw_width(ev.kind);
      sends += ev.kind == EventKind::SendPost ? 1 : 0;
      recvs += ev.kind == EventKind::RecvPost ? 1 : 0;
      probes += ev.kind == EventKind::Probe ? 1 : 0;
      syncs += ev.kind == EventKind::CommSync ? 1 : 0;
    }
    pr.send_idx.reserve(sends);
    pr.recv_idx.reserve(recvs);
    pr.recv_msg.resize(recvs);
    pr.probe_msg.resize(probes);
    pr.sync_ordinal.reserve(syncs);
    std::vector<std::pair<int, std::uint64_t>> per_comm;  // CommSyncs so far
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& ev = events[i];
      const auto idx = static_cast<std::uint32_t>(i);
      if (ev.kind == EventKind::SendPost) {
        pr.send_idx.push_back(idx);
      } else if (ev.kind == EventKind::RecvPost) {
        pr.recv_idx.push_back(idx);
      } else if (ev.kind == EventKind::CommSync) {
        auto it = std::ranges::find(per_comm, ev.comm,
                                    &std::pair<int, std::uint64_t>::first);
        if (it == per_comm.end()) {
          it = per_comm.insert(per_comm.end(), {ev.comm, 0});
        }
        pr.sync_ordinal.push_back(it->second++);
      }
    }
    pr.send_msg.resize(sends);
    index[r].build(events, pr.send_idx, pr.send_msg);
  });

  // Rank r's sends get ids from base[r] on; receive and probe keys that
  // no send carries get ids past every send's.
  std::vector<std::size_t> base(n);
  std::size_t ids = 0;
  for (std::size_t r = 0; r < n; ++r) {
    plan.ranks[r].draw = plan.draws;
    plan.draws += draws[r];
    base[r] = ids;
    ids += plan.ranks[r].send_idx.size();
  }
  const auto too_many = [](std::size_t count) {
    if (count >= kNoMsg) {
      throw TraceError("trace has too many messages to walk (" +
                       std::to_string(count) + ")");
    }
  };
  too_many(ids);

  std::vector<std::vector<Orphan>> orphans(n);
  support::parallel_for(n, work, [&](std::size_t r) {
    const std::vector<Event>& events = tf.ranks[r].events;
    Rank& pr = plan.ranks[r];
    for (std::uint32_t& id : pr.send_msg) {
      id += static_cast<std::uint32_t>(base[r]);
    }
    const int rank = static_cast<int>(r);
    // The id of the message (comm, src, r, seq).
    const auto id_of = [&](const Event& ev, std::uint32_t& id) {
      const MsgKey key{ev.comm, ev.peer, rank, ev.seq};
      if (key.src >= 0 && static_cast<std::size_t>(key.src) < n) {
        const auto src = static_cast<std::size_t>(key.src);
        const std::uint32_t ordinal = index[src].find(key.comm, rank, key.seq);
        if (ordinal != kNoMsg) {
          id = static_cast<std::uint32_t>(base[src] + ordinal);
          return;
        }
      }
      orphans[r].push_back({&id, key});
    };
    for (std::size_t j = 0; j < pr.recv_idx.size(); ++j) {
      const Event& ev = events[pr.recv_idx[j]];
      pr.recv_msg[j] = kNoMsg;
      if (ev.peer != Event::kUnmatched) id_of(ev, pr.recv_msg[j]);
    }
    std::size_t k = 0;
    for (const Event& ev : events) {
      if (ev.kind == EventKind::Probe) id_of(ev, pr.probe_msg[k++]);
    }
  });
  std::map<std::tuple<int, int, int, std::uint64_t>, std::uint32_t> orphan_ids;
  for (const std::vector<Orphan>& list : orphans) {
    for (const Orphan& o : list) {
      const auto [it, fresh] = orphan_ids.try_emplace(
          {o.key.comm, o.key.src, o.key.dst, o.key.seq},
          static_cast<std::uint32_t>(ids));
      if (fresh) too_many(++ids);
      *o.id = it->second;
    }
  }
  plan.messages = static_cast<std::uint32_t>(ids);
  return plan;
}

struct KeptWalkState::Tape {
  std::uint64_t seed = 0;
  mpisim::JitterModel jitter;
  std::once_flag filled;
  std::unique_ptr<double[]> draws;

  [[nodiscard]] bool of(const mpisim::NetworkModel& net) const noexcept {
    return seed == net.seed && jitter == net.jitter;
  }
};

const WalkPlan& KeptWalkState::plan(const TraceFile& tf) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (plan_ == nullptr) {
    plan_ = std::make_shared<const WalkPlan>(WalkPlan::build(tf));
  }
  return *plan_;
}

std::shared_ptr<const double[]> KeptWalkState::tape(
    const TraceFile& tf, const mpisim::NetworkModel& net) const {
  const WalkPlan& p = plan(tf);
  std::shared_ptr<Tape> t;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::ranges::find_if(
        tapes_, [&](const std::shared_ptr<Tape>& k) { return k->of(net); });
    if (it != tapes_.end()) {
      t = *it;
      std::rotate(tapes_.begin(), it, it + 1);
    } else {
      t = std::make_shared<Tape>();
      t->seed = net.seed;
      t->jitter = net.jitter;
      tapes_.insert(tapes_.begin(), t);
      if (tapes_.size() > kKeptTapes) tapes_.pop_back();
    }
  }
  // Outside the lock, so walks needing other tapes go on; a second caller
  // of this key waits here for the first one's fill.
  std::call_once(t->filled, [&] {
    t->draws = std::make_unique_for_overwrite<double[]>(p.draws);
    support::parallel_for(tf.ranks.size(), tf.total_events(),
                          [&](std::size_t r) {
                            fill_rank(tf.ranks[r].events, static_cast<int>(r),
                                      net, t->draws.get() + p.ranks[r].draw);
                          });
  });
  return {t, t->draws.get()};
}

bool KeptWalkState::planned() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plan_ != nullptr;
}

std::size_t KeptWalkState::tapes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tapes_.size();
}

bool KeptWalkState::holds(const mpisim::NetworkModel& net) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::ranges::any_of(
      tapes_, [&](const std::shared_ptr<Tape>& t) { return t->of(net); });
}

}  // namespace mpisect::trace
