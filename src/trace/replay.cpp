#include "trace/replay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
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
  ReplayResult res;
};

/// The replay's share of the walk: fault re-costing of the reported
/// frames, counters, per-rank section totals, metrics spans and the
/// timeline. Counters and instance ordinals are the same in every frame
/// and are kept once. Everything the hooks write is rank r's own (its
/// RankLog); finish() merges the logs in rank order.
template <std::size_t N>
struct Replayer : WalkObserver {
  using ReplayWalker = Walker<N>;

  /// One section of one rank: the instances exited so far (the next
  /// instance ordinal) and every frame's inclusive seconds.
  struct RankSection {
    std::uint32_t id = 0;  ///< index into Replayer::keys
    long instances = 0;
    std::array<double, N> inclusive{};
  };

  /// A metric span of rank r's instance k of section `id`.
  struct SpanRow {
    double t_in = 0.0, t = 0.0;
    std::uint32_t id = 0;
    std::uint32_t k = 0;
  };

  /// What the hooks of one rank write.
  struct RankLog {
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    std::uint64_t collectives = 0;
    std::uint64_t bytes_sent = 0;
    bool nan_clock = false;  ///< an event of frames[0] ended on a NaN clock
    std::vector<SectionKey> keys;  ///< every section it enters, sorted
    std::vector<RankSection> sections;  ///< parallel to keys
    std::vector<std::vector<SpanRow>> spans;  ///< per reported frame
    std::vector<std::vector<TimelineEntry>> rows;  ///< per reported frame
  };

  std::size_t first;  ///< walker frame reported by frames[0]
  std::vector<FrameReport> frames;
  std::vector<SectionKey> keys;  ///< every entered section, sorted; ids
  std::vector<RankLog> logs;
  bool timeline = false;  ///< some frame keeps a timeline

  Replayer(const TraceFile& t, std::size_t first_frame,
           std::span<const WhatIfPoint> points)
      : first(first_frame), frames(points.size()), logs(t.ranks.size()) {
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
    // Number the sections before the walk: each rank's entered keys, then
    // their union in (comm, label) order. What a hook appends to is sized
    // here too, so the walk does not grow it.
    const bool spans = std::ranges::any_of(
        points, [](const WhatIfPoint& p) { return p.options.collect_metrics; });
    for (std::size_t r = 0; r < logs.size(); ++r) {
      RankLog& log = logs[r];
      std::size_t exits = 0;
      for (const Event& ev : t.ranks[r].events) {
        if (ev.kind == EventKind::SectionEnter) {
          log.keys.emplace_back(ev.comm, ev.label);
        }
        exits += ev.kind == EventKind::SectionExit ? 1 : 0;
      }
      const std::size_t enters = log.keys.size();
      std::ranges::sort(log.keys);
      log.keys.erase(std::ranges::unique(log.keys).begin(), log.keys.end());
      if (spans) log.spans.resize(frames.size());
      if (timeline) log.rows.resize(frames.size());
      for (std::size_t i = 0; i < frames.size(); ++i) {
        if (frames[i].opt->collect_metrics) log.spans[i].reserve(exits);
        if (frames[i].opt->timeline) log.rows[i].reserve(enters + exits);
      }
    }
    for (const RankLog& log : logs) {
      keys.insert(keys.end(), log.keys.begin(), log.keys.end());
    }
    std::ranges::sort(keys);
    keys.erase(std::ranges::unique(keys).begin(), keys.end());
    for (RankLog& log : logs) {
      log.sections.resize(log.keys.size());
      for (std::size_t i = 0; i < log.keys.size(); ++i) {
        log.sections[i].id = static_cast<std::uint32_t>(
            std::ranges::lower_bound(keys, log.keys[i]) - keys.begin());
      }
    }
  }

  /// Rank r's entry for `key`, a section the rank entered.
  RankSection& section(RankLog& log, const SectionKey& key) {
    return log.sections[static_cast<std::size_t>(
        std::ranges::lower_bound(log.keys, key) - log.keys.begin())];
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
    RankLog& log = logs[static_cast<std::size_t>(r)];
    ++log.messages;
    log.bytes_sent += ev.bytes;
  }

  void on_event(int r, const typename ReplayWalker::RankState& st,
                const Event& ev, const typename ReplayWalker::Link& /*link*/) {
    RankLog& log = logs[static_cast<std::size_t>(r)];
    ++log.events;
    if (std::isnan(st.t[first])) log.nan_clock = true;
    switch (ev.kind) {
      case EventKind::CollBegin:
      case EventKind::NbcPost:
        ++log.collectives;
        break;
      case EventKind::SectionEnter: {
        if (!timeline) break;
        const long k = section(log, {ev.comm, ev.label}).instances;
        for (std::size_t i = 0; i < frames.size(); ++i) {
          if (!frames[i].opt->timeline) continue;
          log.rows[i].push_back({st.t[first + i], r, ev.comm, ev.label, true,
                                 static_cast<int>(st.stack.size()), k});
        }
        break;
      }
      case EventKind::SectionExit: {
        const auto& open = st.stack.back();
        const SectionKey key{open.comm, open.label};
        RankSection& sec = section(log, key);
        const long k = sec.instances++;
        for (std::size_t i = 0; i < frames.size(); ++i) {
          FrameReport& fr = frames[i];
          const std::size_t f = first + i;
          const double t = st.t[f];
          const double t_in = open.t_in[f];
          sec.inclusive[f] += t - t_in;
          if (fr.opt->collect_metrics) {
            log.spans[i].push_back(
                {t_in, t, sec.id, static_cast<std::uint32_t>(k)});
          }
          if (fr.opt->timeline) {
            log.rows[i].push_back({t, r, key.first, key.second, false,
                                   static_cast<int>(st.stack.size()) - 1, k});
          }
        }
        break;
      }
      default:
        break;
    }
  }

  /// True when an event of frames[0] ended on a NaN clock.
  [[nodiscard]] bool nan_clock() const {
    return std::ranges::any_of(logs, &RankLog::nan_clock);
  }

  /// Append every reported frame's result to `out`, in frame order.
  void finish(const ReplayWalker& walker, std::vector<ReplayResult>& out) {
    std::uint64_t events = 0, messages = 0, collectives = 0, bytes_sent = 0;
    for (const RankLog& log : logs) {
      events += log.events;
      messages += log.messages;
      collectives += log.collectives;
      bytes_sent += log.bytes_sent;
    }
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

      // [section id][instance] -> every rank's span, in rank order (the
      // order a rank-ordered profiler sums metrics in).
      std::vector<std::vector<std::vector<sections::RankSpan>>> spans;
      if (fr.opt->collect_metrics) {
        spans.resize(keys.size());
        for (std::size_t r = 0; r < logs.size(); ++r) {
          for (const SpanRow& row : logs[r].spans[i]) {
            auto& per_instance = spans[row.id];
            if (per_instance.size() <= row.k) per_instance.resize(row.k + 1);
            per_instance[row.k].push_back(
                {static_cast<int>(r), row.t_in, row.t});
          }
          std::vector<SpanRow>().swap(logs[r].spans[i]);
        }
      }

      // Per-rank totals in footer order (sorted by (comm, label)), and the
      // section statistics aggregated across ranks. An entry no instance
      // has exited yet (a timeline's open enter) is not a total.
      std::vector<ReplaySectionStat> stats(keys.size());
      res.rank_totals.resize(logs.size());
      for (std::size_t r = 0; r < logs.size(); ++r) {
        const RankLog& log = logs[r];
        for (std::size_t j = 0; j < log.keys.size(); ++j) {
          const SectionKey& key = log.keys[j];
          const RankSection& sec = log.sections[j];
          if (sec.instances == 0) continue;
          const auto count = static_cast<std::uint64_t>(sec.instances);
          res.rank_totals[r].push_back(
              SectionTotal{key.first, key.second, count, sec.inclusive[f]});
          ReplaySectionStat& s = stats[sec.id];
          ++s.ranks;
          s.instances += count;
          s.total_inclusive += sec.inclusive[f];
        }
      }
      for (std::size_t id = 0; id < keys.size(); ++id) {
        ReplaySectionStat& s = stats[id];
        if (s.ranks == 0) continue;
        const SectionKey& key = keys[id];
        s.comm = key.first;
        s.label = key.second < res.labels.size()
                      ? res.labels[key.second]
                      : "label#" + std::to_string(key.second);
        s.mean_per_process = s.total_inclusive / s.ranks;
        if (id < spans.size()) {
          for (const auto& instance : spans[id]) {
            if (!instance.empty()) {
              s.agg.add(sections::compute_metrics(instance));
            }
          }
        }
        res.sections.push_back(std::move(s));
      }

      if (fr.opt->timeline) {
        // A rank's rows are in its event order; a stable (t, rank) sort
        // of the rank-ordered concatenation therefore equals the sort of
        // the rows in walk order.
        std::size_t rows = 0;
        for (const RankLog& log : logs) rows += log.rows[i].size();
        res.timeline.reserve(rows);
        for (RankLog& log : logs) {
          res.timeline.insert(res.timeline.end(), log.rows[i].begin(),
                              log.rows[i].end());
          std::vector<TimelineEntry>().swap(log.rows[i]);
        }
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
  if (rep.nan_clock() || nan_start || rep.frames.front().gap_factor != 1.0) {
    return compare_footer(tf, replay(tf, tf.header.machine, {}));
  }
  return compare_footer(tf, out.front());
}

}  // namespace mpisect::trace
