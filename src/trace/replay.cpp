#include "trace/replay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "mpisim/faults/engine.hpp"
#include "mpisim/message.hpp"
#include "trace/walker.hpp"

namespace mpisect::trace {

namespace {

using SectionKey = std::pair<int, std::uint32_t>;

/// Points per what-if walk: frame 0 plus up to this many what-if frames.
constexpr std::size_t kBatch = 8;

/// One reported frame: its point's options, compute rescale and fault
/// engine, its section metric spans, and its result.
struct FrameReport {
  const ReplayOptions* opt = nullptr;
  /// Compute-gap rescale: recorded gaps already include the recorded
  /// model's core tax, so multiply by the ratio.
  double gap_factor = 1.0;
  std::unique_ptr<mpisim::faults::FaultEngine> fault_eng;
  /// [section id][instance] -> every rank's span (collect_metrics only).
  std::vector<std::vector<std::vector<sections::RankSpan>>> spans;
  ReplayResult res;
};

/// The replay's share of the walk: fault re-costing of the reported
/// frames, counters, per-rank section totals, metrics spans and the
/// timeline. Counters and instance ordinals are the same in every frame
/// and are kept once.
template <std::size_t N>
struct Replayer : WalkObserver {
  using ReplayWalker = Walker<N>;

  /// Per rank and (comm, label): the section's id, the instances exited so
  /// far (the next instance ordinal) and every frame's inclusive seconds.
  struct RankSection {
    std::size_t id = 0;
    long instances = 0;
    std::array<double, N> inclusive{};
  };

  std::size_t first;  ///< walker frame reported by frames[0]
  std::vector<FrameReport> frames;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t collectives = 0;
  std::uint64_t bytes_sent = 0;
  std::vector<std::map<SectionKey, RankSection>> sections;
  std::map<SectionKey, std::size_t> section_ids;
  bool timeline = false;  ///< some frame keeps a timeline
  bool nan_clock = false;  ///< frames[0] ended an event on a NaN clock

  Replayer(const TraceFile& t, std::size_t first_frame,
           std::span<const WhatIfPoint> points)
      : first(first_frame), frames(points.size()), sections(t.ranks.size()) {
    const mpisim::ProgressModel& rec = t.header.progress;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ReplayOptions& opt = points[i].options;
      FrameReport& fr = frames[i];
      fr.opt = &opt;
      fr.gap_factor = opt.compute_scale *
                      (opt.progress.value_or(rec).compute_factor() /
                       rec.compute_factor());
      if (!opt.faults.empty()) {
        if (!opt.faults.kills.empty()) {
          throw TraceError(
              "fault plan contains kill rules, which are not replayable: the "
              "recorded skeleton assumes every rank completed");
        }
        const std::uint64_t seed =
            opt.fault_seed != 0 ? opt.fault_seed : t.header.seed;
        fr.fault_eng = std::make_unique<mpisim::faults::FaultEngine>(
            opt.faults, seed, t.header.nranks);
      }
      fr.res.nranks = t.header.nranks;
      fr.res.labels = t.labels;
      timeline = timeline || opt.timeline;
    }
  }

  /// Rank r's entry for `key`, numbering the section on first sight.
  RankSection& section(int r, const SectionKey& key) {
    const auto [it, fresh] =
        sections[static_cast<std::size_t>(r)].try_emplace(key);
    if (fresh) {
      it->second.id = section_ids.try_emplace(key, section_ids.size())
                          .first->second;
    }
    return it->second;
  }

  // Stall rules charge at the rank's first event past their trigger time
  // (mirror of the live engine's fault checkpoints).
  void before_step(int r, typename ReplayWalker::Clocks& t) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (auto* eng = frames[i].fault_eng.get()) {
        t[first + i] += eng->take_stall(r, t[first + i]);
      }
    }
  }

  double gap_scale(int r, std::size_t f, double t) {
    if (f - first >= frames.size()) return 1.0;  // padding frame
    const FrameReport& fr = frames[f - first];
    return fr.fault_eng ? fr.gap_factor * fr.fault_eng->compute_factor(r, t)
                        : fr.gap_factor;
  }

  void on_send(int r, const Event& ev, typename ReplayWalker::Msg& ms) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      auto* eng = frames[i].fault_eng.get();
      if (eng == nullptr) continue;
      const std::size_t f = first + i;
      const mpisim::faults::WireFate fate =
          eng->wire_fate(r, ev.peer, ev.seq, ms.start[f],
                         ev.tag >= mpisim::kInternalTagBase);
      ms.wire[f] =
          ms.wire[f] * fate.cost_factor + fate.add_latency + fate.extra_delay;
      ms.lost[f] = fate.lost;
    }
    ++messages;
    bytes_sent += ev.bytes;
  }

  void on_event(int r, const typename ReplayWalker::RankState& st,
                const Event& ev, const typename ReplayWalker::Link& /*link*/) {
    ++events;
    if (std::isnan(st.t[first])) nan_clock = true;
    switch (ev.kind) {
      case EventKind::CollBegin:
      case EventKind::NbcPost:
        ++collectives;
        break;
      case EventKind::SectionEnter: {
        if (!timeline) break;
        const long k = section(r, {ev.comm, ev.label}).instances;
        for (std::size_t i = 0; i < frames.size(); ++i) {
          if (!frames[i].opt->timeline) continue;
          frames[i].res.timeline.push_back(
              {st.t[first + i], r, ev.comm, ev.label, true,
               static_cast<int>(st.stack.size()), k});
        }
        break;
      }
      case EventKind::SectionExit: {
        const auto& open = st.stack.back();
        const SectionKey key{open.comm, open.label};
        RankSection& sec = section(r, key);
        const long k = sec.instances++;
        for (std::size_t i = 0; i < frames.size(); ++i) {
          FrameReport& fr = frames[i];
          const std::size_t f = first + i;
          const double t = st.t[f];
          const double t_in = open.t_in[f];
          sec.inclusive[f] += t - t_in;
          if (fr.opt->collect_metrics) {
            if (fr.spans.size() <= sec.id) fr.spans.resize(sec.id + 1);
            auto& per_instance = fr.spans[sec.id];
            if (per_instance.size() <= static_cast<std::size_t>(k)) {
              per_instance.resize(static_cast<std::size_t>(k) + 1);
            }
            per_instance[static_cast<std::size_t>(k)].push_back({r, t_in, t});
          }
          if (fr.opt->timeline) {
            fr.res.timeline.push_back(
                {t, r, key.first, key.second, false,
                 static_cast<int>(st.stack.size()) - 1, k});
          }
        }
        break;
      }
      default:
        break;
    }
  }

  /// Append every reported frame's result to `out`, in frame order.
  void finish(const ReplayWalker& walker, std::vector<ReplayResult>& out) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const std::size_t f = first + i;
      FrameReport& fr = frames[i];
      ReplayResult& res = fr.res;
      res.events = events;
      res.messages = messages;
      res.collectives = collectives;
      res.bytes_sent = bytes_sent;
      // Seed with -infinity, not 0.0: compute-rescale what-ifs can shift
      // the time base negative and a 0.0 seed would clamp the makespan.
      res.makespan = -std::numeric_limits<double>::infinity();
      for (const auto& st : walker.ranks()) {
        res.final_times.push_back(st.t[f]);
        res.makespan = std::max(res.makespan, st.t[f]);
      }
      if (res.final_times.empty()) res.makespan = 0.0;

      // Per-rank totals in footer order (sorted by (comm, label)), and the
      // section statistics aggregated across ranks. An entry no instance
      // has exited yet (a timeline's open enter) is not a total.
      std::map<SectionKey, ReplaySectionStat> stats;
      res.rank_totals.resize(sections.size());
      for (std::size_t r = 0; r < sections.size(); ++r) {
        for (const auto& [key, sec] : sections[r]) {
          if (sec.instances == 0) continue;
          const auto count = static_cast<std::uint64_t>(sec.instances);
          res.rank_totals[r].push_back(
              SectionTotal{key.first, key.second, count, sec.inclusive[f]});
          auto& s = stats[key];
          s.comm = key.first;
          s.label = key.second < res.labels.size()
                        ? res.labels[key.second]
                        : "label#" + std::to_string(key.second);
          ++s.ranks;
          s.instances += count;
          s.total_inclusive += sec.inclusive[f];
        }
      }
      for (auto& [key, s] : stats) {
        s.mean_per_process = s.ranks > 0 ? s.total_inclusive / s.ranks : 0.0;
        // Ranks finish an instance in dependency order, not rank order;
        // sort so metric summation matches a rank-ordered profiler bit for
        // bit. (spans stays empty unless collect_metrics.)
        if (const std::size_t id = section_ids.at(key); id < fr.spans.size()) {
          for (auto& instance : fr.spans[id]) {
            std::ranges::sort(instance, {}, &sections::RankSpan::rank);
            if (!instance.empty()) {
              s.agg.add(sections::compute_metrics(instance));
            }
          }
        }
        res.sections.push_back(std::move(s));
      }

      if (fr.opt->timeline) {
        std::stable_sort(res.timeline.begin(), res.timeline.end(),
                         [](const TimelineEntry& a, const TimelineEntry& b) {
                           if (a.t != b.t) return a.t < b.t;
                           return a.rank < b.rank;
                         });
      }
      out.push_back(std::move(res));
    }
  }
};

/// One walk of frame 0 plus a what-if frame per point; frames past the
/// points are clones of frame 0 that no observer work touches. Appends
/// each point's result to `out`.
template <std::size_t N>
void replay_batch(const TraceFile& tf, std::span<const WhatIfPoint> points,
                  std::vector<ReplayResult>& out) {
  const mpisim::ProgressModel rec_prog = tf.header.progress;
  std::array<Frame, N> frames;
  frames.fill(Frame{&tf.header.machine.net, rec_prog});
  for (std::size_t i = 0; i < points.size(); ++i) {
    frames[i + 1] = Frame{&points[i].machine.net,
                          points[i].options.progress.value_or(rec_prog)};
  }
  Walker<N> walker(tf, frames, "replay");
  Replayer<N> rep(tf, 1, points);
  walker.run(rep);
  rep.finish(walker, out);
}

/// Compare a replay's per-rank final times and section totals with the
/// recorded footer.
VerifyResult compare_footer(const TraceFile& tf, const ReplayResult& rr) {
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
  const WhatIfPoint point{machine, options};
  std::vector<ReplayResult> out;
  replay_batch<2>(tf, {&point, 1}, out);
  return std::move(out.front());
}

std::vector<ReplayResult> replay(const TraceFile& tf,
                                 std::span<const WhatIfPoint> points) {
  std::vector<ReplayResult> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); i += kBatch) {
    const auto batch = points.subspan(i, std::min(kBatch, points.size() - i));
    if (batch.size() == 1) {
      replay_batch<2>(tf, batch, out);
    } else {
      replay_batch<kBatch + 1>(tf, batch, out);
    }
  }
  return out;
}

VerifyResult verify_roundtrip(const TraceFile& tf) {
  const mpisim::ProgressModel rec_prog = tf.header.progress;
  const WhatIfPoint recorded{tf.header.machine, {.collect_metrics = false}};
  Walker<1> walker(tf, {Frame{&tf.header.machine.net, rec_prog}}, "replay");
  Replayer<1> rep(tf, 0, {&recorded, 1});
  walker.run(rep);
  std::vector<ReplayResult> out;
  rep.finish(walker, out);
  // A same-model what-if frame equals frame 0 bit for bit while it stays in
  // lockstep. A NaN clock or a recorded progress model whose compute factor
  // does not divide to exactly 1 breaks the lockstep; then judge the
  // what-if frame, as a one-point replay does.
  const bool nan_start = std::ranges::any_of(
      tf.ranks, [](const RankStream& rs) { return std::isnan(rs.t0); });
  if (rep.nan_clock || nan_start || rep.frames.front().gap_factor != 1.0) {
    return compare_footer(tf, replay(tf, tf.header.machine, {}));
  }
  return compare_footer(tf, out.front());
}

}  // namespace mpisect::trace
