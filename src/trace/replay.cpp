#include "trace/replay.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "mpisim/faults/engine.hpp"
#include "mpisim/message.hpp"
#include "trace/walker.hpp"

namespace mpisect::trace {

namespace {

/// Frame 0 re-simulates the recording; frame 1 is the what-if machine.
constexpr std::size_t kWhatIf = 1;
using ReplayWalker = Walker<2>;
using SectionKey = std::pair<int, std::uint32_t>;

/// The replay's share of the walk: fault re-costing of the what-if frame,
/// counters, per-rank section totals, metrics spans and the timeline.
struct Replayer : WalkObserver {
  ReplayOptions opt;
  ReplayResult res;
  /// Compute-gap rescale of the what-if frame: recorded gaps already
  /// include the recorded model's core tax, so multiply by the ratio.
  double gap_factor = 1.0;
  std::unique_ptr<mpisim::faults::FaultEngine> fault_eng;
  /// Per rank: (comm, label) -> (count, inclusive seconds), and the next
  /// instance ordinal.
  std::vector<std::map<SectionKey, std::pair<std::uint64_t, double>>> totals;
  std::vector<std::map<SectionKey, long>> instance_idx;
  std::map<SectionKey, std::vector<std::vector<sections::RankSpan>>> spans;

  Replayer(const TraceFile& t, const ReplayOptions& o,
           const mpisim::ProgressModel& rec_prog,
           const mpisim::ProgressModel& cur_prog)
      : opt(o),
        gap_factor(opt.compute_scale *
                   (cur_prog.compute_factor() / rec_prog.compute_factor())),
        totals(t.ranks.size()),
        instance_idx(t.ranks.size()) {
    if (!opt.faults.empty()) {
      if (!opt.faults.kills.empty()) {
        throw TraceError(
            "fault plan contains kill rules, which are not replayable: the "
            "recorded skeleton assumes every rank completed");
      }
      const std::uint64_t seed =
          opt.fault_seed != 0 ? opt.fault_seed : t.header.seed;
      fault_eng = std::make_unique<mpisim::faults::FaultEngine>(
          opt.faults, seed, t.header.nranks);
    }
    res.nranks = t.header.nranks;
    res.labels = t.labels;
  }

  // Stall rules charge at the rank's first event past their trigger time
  // (mirror of the live engine's fault checkpoints).
  void before_step(int r, ReplayWalker::Clocks& t) {
    if (fault_eng) t[kWhatIf] += fault_eng->take_stall(r, t[kWhatIf]);
  }

  double gap_scale(int r, double t) {
    return fault_eng ? gap_factor * fault_eng->compute_factor(r, t) : gap_factor;
  }

  void on_send(int r, const Event& ev, ReplayWalker::Msg& ms) {
    if (fault_eng) {
      const mpisim::faults::WireFate fate = fault_eng->wire_fate(
          r, ev.peer, ev.seq, ms.start[kWhatIf],
          ev.tag >= mpisim::kInternalTagBase);
      ms.wire[kWhatIf] = ms.wire[kWhatIf] * fate.cost_factor +
                         fate.add_latency + fate.extra_delay;
      ms.lost[kWhatIf] = fate.lost;
    }
    ++res.messages;
    res.bytes_sent += ev.bytes;
  }

  void on_event(int r, const ReplayWalker::RankState& st, const Event& ev,
                const ReplayWalker::Link& /*link*/) {
    ++res.events;
    const auto rank = static_cast<std::size_t>(r);
    const double t = st.t[kWhatIf];
    switch (ev.kind) {
      case EventKind::CollBegin:
      case EventKind::NbcPost:
        ++res.collectives;
        break;
      case EventKind::SectionEnter:
        if (opt.timeline) {
          res.timeline.push_back({t, r, ev.comm, ev.label, true,
                                  static_cast<int>(st.stack.size()),
                                  instance_idx[rank][{ev.comm, ev.label}]});
        }
        break;
      case EventKind::SectionExit: {
        const auto& open = st.stack.back();
        const SectionKey key{open.comm, open.label};
        const double t_in = open.t_in[kWhatIf];
        auto& [count, inclusive] = totals[rank][key];
        ++count;
        inclusive += t - t_in;
        const long k = instance_idx[rank][key]++;
        if (opt.collect_metrics) {
          auto& per_instance = spans[key];
          if (per_instance.size() <= static_cast<std::size_t>(k)) {
            per_instance.resize(static_cast<std::size_t>(k) + 1);
          }
          per_instance[static_cast<std::size_t>(k)].push_back({r, t_in, t});
        }
        if (opt.timeline) {
          res.timeline.push_back({t, r, key.first, key.second, false,
                                  static_cast<int>(st.stack.size()) - 1, k});
        }
        break;
      }
      default:
        break;
    }
  }

  void finalize_result(const ReplayWalker& walker) {
    // Seed with -infinity, not 0.0: compute-rescale what-ifs can shift the
    // time base negative and a 0.0 seed would clamp the makespan.
    res.makespan = -std::numeric_limits<double>::infinity();
    for (const auto& st : walker.ranks()) {
      res.final_times.push_back(st.t[kWhatIf]);
      res.makespan = std::max(res.makespan, st.t[kWhatIf]);
    }
    if (res.final_times.empty()) res.makespan = 0.0;

    // Per-rank totals in footer order (sorted by (comm, label)), and the
    // section statistics aggregated across ranks.
    std::map<SectionKey, ReplaySectionStat> stats;
    res.rank_totals.resize(totals.size());
    for (std::size_t r = 0; r < totals.size(); ++r) {
      for (const auto& [key, val] : totals[r]) {
        const auto& [count, inclusive] = val;
        res.rank_totals[r].push_back(
            SectionTotal{key.first, key.second, count, inclusive});
        auto& s = stats[key];
        s.comm = key.first;
        s.label = key.second < res.labels.size()
                      ? res.labels[key.second]
                      : "label#" + std::to_string(key.second);
        ++s.ranks;
        s.instances += count;
        s.total_inclusive += inclusive;
      }
    }
    for (auto& [key, s] : stats) {
      s.mean_per_process = s.ranks > 0 ? s.total_inclusive / s.ranks : 0.0;
      // Ranks finish an instance in dependency order, not rank order; sort
      // so metric summation matches a rank-ordered profiler bit for bit.
      // (spans stays empty unless opt.collect_metrics.)
      if (const auto it = spans.find(key); it != spans.end()) {
        for (auto& instance : it->second) {
          std::ranges::sort(instance, {}, &sections::RankSpan::rank);
          if (!instance.empty()) s.agg.add(sections::compute_metrics(instance));
        }
      }
      res.sections.push_back(std::move(s));
    }

    if (opt.timeline) {
      std::stable_sort(res.timeline.begin(), res.timeline.end(),
                       [](const TimelineEntry& a, const TimelineEntry& b) {
                         if (a.t != b.t) return a.t < b.t;
                         return a.rank < b.rank;
                       });
    }
  }
};

}  // namespace

mpisim::MachineModel fold_progress(mpisim::MachineModel m,
                                   const mpisim::ProgressModel& rec,
                                   const mpisim::ProgressModel& cur,
                                   bool machine_is_recorded) {
  if (machine_is_recorded && rec.mode == mpisim::ProgressMode::Opportunistic) {
    m.net.send_overhead -= rec.entry_overhead;
    m.net.recv_overhead -= rec.entry_overhead;
  }
  if (cur.mode == mpisim::ProgressMode::Opportunistic) {
    m.net.send_overhead += cur.entry_overhead;
    m.net.recv_overhead += cur.entry_overhead;
  }
  return m;
}

ReplayResult replay(const TraceFile& tf, const mpisim::MachineModel& machine,
                    const ReplayOptions& options) {
  const mpisim::ProgressModel rec_prog = tf.header.progress;
  const mpisim::ProgressModel cur_prog = options.progress.value_or(rec_prog);
  ReplayWalker walker(tf,
                      {Frame{&tf.header.machine.net, rec_prog},
                       Frame{&machine.net, cur_prog}},
                      "replay");
  Replayer rep(tf, options, rec_prog, cur_prog);
  walker.run(rep);
  rep.finalize_result(walker);
  return std::move(rep.res);
}

VerifyResult verify_roundtrip(const TraceFile& tf) {
  const ReplayResult rr = replay(tf, tf.header.machine, {});
  for (std::size_t r = 0; r < tf.ranks.size(); ++r) {
    const RankStream& rec = tf.ranks[r];
    if (rr.final_times[r] != rec.t_final) {
      return {false, "rank " + std::to_string(r) +
                         ": final time diverged from recording"};
    }
    const auto& got = rr.rank_totals[r];
    if (got.size() != rec.totals.size()) {
      return {false, "rank " + std::to_string(r) +
                         ": section totals count mismatch"};
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto& a = got[i];
      const auto& b = rec.totals[i];
      if (a.comm != b.comm || a.label != b.label || a.count != b.count ||
          a.inclusive != b.inclusive) {
        const std::string name = b.label < tf.labels.size()
                                     ? tf.labels[b.label]
                                     : std::to_string(b.label);
        return {false, "rank " + std::to_string(r) + " section " + name +
                           ": totals diverged from recording"};
      }
    }
  }
  return {true, ""};
}

}  // namespace mpisect::trace
