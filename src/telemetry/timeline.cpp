#include "telemetry/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/speedup/partial_bound.hpp"

namespace mpisect::telemetry {
namespace {

bool excluded(const TimelineOptions& options, const std::string& label) {
  return std::find(options.exclude.begin(), options.exclude.end(), label) !=
         options.exclude.end();
}

/// Builder state: window -> section name -> per-rank busy seconds.
struct WindowAccum {
  std::map<std::string, std::map<int, double>> sections;
  double mpi_total = 0.0;
  std::vector<double> counters;
};

Timeline reduce(std::map<std::uint64_t, WindowAccum>& accum, double dt,
                int nranks, std::vector<std::string> counter_names,
                std::uint64_t dropped, const TimelineOptions& options) {
  Timeline tl;
  tl.dt = dt;
  tl.nranks = nranks;
  tl.counter_names = std::move(counter_names);
  tl.dropped = dropped;

  std::map<std::string, Timeline::SectionTotal> totals;
  for (auto& [interval, wa] : accum) {
    Window w;
    w.interval = interval;
    w.t_start = static_cast<double>(interval) * dt;
    w.t_end = w.t_start + dt;
    w.mpi_total = wa.mpi_total;
    w.counters = std::move(wa.counters);
    w.counters.resize(tl.counter_names.size(), 0.0);

    for (auto& [label, per_rank] : wa.sections) {
      SectionWindow sw;
      sw.label = label;
      sw.min_rank = std::numeric_limits<double>::infinity();
      for (const auto& [rank, seconds] : per_rank) {
        (void)rank;
        if (seconds <= 0.0) continue;
        ++sw.ranks;
        sw.total += seconds;
        sw.max_rank = std::max(sw.max_rank, seconds);
        sw.min_rank = std::min(sw.min_rank, seconds);
      }
      if (sw.ranks == 0) continue;
      sw.per_process = sw.total / nranks;
      sw.imbalance = sw.max_rank - sw.per_process;
      w.busy_total += sw.total;
      w.sections.push_back(std::move(sw));
    }
    bool counters_active = false;
    for (double c : w.counters) counters_active |= c != 0.0;
    if (w.sections.empty() && w.mpi_total <= 0.0 && !counters_active &&
        !options.keep_empty) {
      continue;
    }

    // Eq. 6, windowed: binding section = argmax mean-per-process time.
    double max_per_process = 0.0;
    for (const SectionWindow& sw : w.sections) {
      auto& tot = totals[sw.label];
      tot.label = sw.label;
      tot.total += sw.total;
      tot.per_process += sw.per_process;
      tot.max_window_imbalance =
          std::max(tot.max_window_imbalance, sw.imbalance);
      if (excluded(options, sw.label)) continue;
      if (sw.per_process > max_per_process) {
        max_per_process = sw.per_process;
        w.binding = sw.label;
      }
    }
    if (!w.binding.empty()) {
      w.bound = speedup::partial_bound(w.busy_total, max_per_process);
    }
    tl.windows.push_back(std::move(w));
  }

  double busy_sum = 0.0;
  double max_per_process = 0.0;
  for (auto& [label, tot] : totals) {
    busy_sum += tot.total;
    if (!excluded(options, label) && tot.per_process > max_per_process) {
      max_per_process = tot.per_process;
      tl.binding = label;
    }
    tl.section_totals.push_back(std::move(tot));
  }
  if (!tl.binding.empty()) {
    tl.bound = speedup::partial_bound(busy_sum, max_per_process);
  }
  return tl;
}

}  // namespace

Timeline build_timeline(const TelemetrySampler& sampler,
                        const TimelineOptions& options) {
  const Registry& reg = sampler.registry();
  std::vector<std::string> counter_names;
  counter_names.reserve(reg.rank_scalars().size());
  for (InstrumentId id : reg.rank_scalars()) {
    counter_names.push_back(reg.desc(id).name);
  }

  std::map<std::uint64_t, WindowAccum> accum;
  std::uint64_t dropped = 0;
  for (int rank = 0; rank < sampler.nranks(); ++rank) {
    dropped += sampler.dropped(rank);
    for (const TelemetrySampler::Sample& s : sampler.samples(rank)) {
      WindowAccum& wa = accum[s.interval];
      for (const auto& [label, seconds] : s.sections) {
        wa.sections[sampler.labels().name(label)][rank] += seconds;
      }
      wa.mpi_total += s.mpi_seconds;
      wa.counters.resize(counter_names.size(), 0.0);
      for (std::size_t i = 0; i < s.deltas.size() && i < wa.counters.size();
           ++i) {
        wa.counters[i] += s.deltas[i];
      }
    }
  }
  return reduce(accum, sampler.dt(), sampler.nranks(),
                std::move(counter_names), dropped, options);
}

Timeline timeline_from_replay(const trace::ReplayResult& res, double dt,
                              const TimelineOptions& options) {
  std::map<std::uint64_t, WindowAccum> accum;
  if (dt <= 0.0 || res.nranks <= 0) return {};

  struct RankCursor {
    double t_last = 0.0;
    std::uint64_t window = 0;
    std::vector<std::uint32_t> stack;
    std::map<std::uint32_t, double> busy;
  };
  std::vector<RankCursor> cursors(static_cast<std::size_t>(res.nranks));

  auto flush = [&](RankCursor& rc, int rank) {
    for (const auto& [label, seconds] : rc.busy) {
      const std::string& name = label < res.labels.size()
                                    ? res.labels[label]
                                    : "?";
      accum[rc.window].sections[name][rank] += seconds;
    }
    rc.busy.clear();
  };
  auto advance = [&](RankCursor& rc, int rank, double t) {
    if (!(t >= rc.t_last)) t = rc.t_last;  // also drops a NaN time
    while (true) {
      const double wend = static_cast<double>(rc.window + 1) * dt;
      if (t < wend) break;
      if (!rc.stack.empty()) rc.busy[rc.stack.back()] += wend - rc.t_last;
      rc.t_last = wend;
      flush(rc, rank);
      ++rc.window;
    }
    if (t > rc.t_last && !rc.stack.empty()) {
      rc.busy[rc.stack.back()] += t - rc.t_last;
    }
    rc.t_last = t;
  };

  for (const trace::TimelineEntry& e : res.timeline) {
    RankCursor& rc = cursors[static_cast<std::size_t>(e.rank)];
    advance(rc, e.rank, e.t);
    if (e.enter) {
      rc.stack.push_back(e.label);
    } else if (!rc.stack.empty()) {
      rc.stack.pop_back();
    }
  }
  for (int rank = 0; rank < res.nranks; ++rank) {
    RankCursor& rc = cursors[static_cast<std::size_t>(rank)];
    advance(rc, rank, res.final_times[static_cast<std::size_t>(rank)]);
    flush(rc, rank);
  }
  return reduce(accum, dt, res.nranks, {}, 0, options);
}

}  // namespace mpisect::telemetry
