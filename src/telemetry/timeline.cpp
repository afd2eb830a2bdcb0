#include "telemetry/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/speedup/partial_bound.hpp"

namespace mpisect::telemetry {
namespace {

bool excluded(const TimelineOptions& options, const std::string& label) {
  return std::find(options.exclude.begin(), options.exclude.end(), label) !=
         options.exclude.end();
}

/// Busy seconds per (window, section name, rank), folded across ranks as
/// they arrive. Both builders feed ranks in increasing order, so a cell
/// sums its ranks in rank order, and memory grows with the (window, name)
/// cells touched, not with windows x names x ranks. Names get ids in
/// first-sight order; reduce() sorts them by name once.
class Bins {
 public:
  /// One (window, name) cell: the ranks folded so far and the open one.
  struct Cell {
    std::uint32_t name = 0;
    int rank = -1;         ///< the rank `seconds` belongs to
    double seconds = 0.0;  ///< its busy seconds so far
    int ranks = 0;         ///< folded ranks with busy time
    double total = 0.0;
    double max = 0.0;
    double min = std::numeric_limits<double>::infinity();

    /// Fold the open rank's seconds into the cross-rank statistics.
    void fold() {
      if (rank < 0 || seconds <= 0.0) return;
      ++ranks;
      total += seconds;
      max = std::max(max, seconds);
      min = std::min(min, seconds);
    }
  };

  struct Win {
    std::uint64_t interval = 0;
    double mpi_total = 0.0;
    std::vector<double> counters;
    std::vector<Cell> cells;  ///< sorted by name id
  };

  explicit Bins(std::size_t counters) : counters_(counters) {}

  /// The id of section name `name`.
  std::uint32_t intern(const std::string& name) {
    const auto [it, fresh] =
        ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (fresh) names_.push_back(name);
    return it->second;
  }

  /// The accumulator of window `interval`, made on first touch.
  Win& window(std::uint64_t interval) {
    const auto [it, fresh] = index_.try_emplace(interval, windows_.size());
    if (fresh) {
      windows_.push_back({interval, 0.0, std::vector<double>(counters_, 0.0),
                          {}});
    }
    return windows_[it->second];
  }

  /// Add `seconds` of section `name` to rank `rank`'s share of `w`.
  static void add(Win& w, std::uint32_t name, int rank, double seconds) {
    auto it = std::ranges::lower_bound(w.cells, name, {}, &Cell::name);
    if (it == w.cells.end() || it->name != name) {
      it = w.cells.insert(it, Cell{.name = name});
    }
    if (it->rank != rank) {
      it->fold();
      it->rank = rank;
      it->seconds = 0.0;
    }
    it->seconds += seconds;
  }

  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  std::vector<Win>& windows() noexcept { return windows_; }

 private:
  std::size_t counters_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<Win> windows_;
};

Timeline reduce(Bins& bins, double dt, int nranks,
                std::vector<std::string> counter_names, std::uint64_t dropped,
                const TimelineOptions& options) {
  Timeline tl;
  tl.dt = dt;
  tl.nranks = nranks;
  tl.counter_names = std::move(counter_names);
  tl.dropped = dropped;

  // Name ids -> their place in name order, once.
  const std::vector<std::string>& names = bins.names();
  std::vector<std::uint32_t> order(names.size());
  std::iota(order.begin(), order.end(), 0u);
  std::ranges::sort(order, {}, [&](std::uint32_t id) -> const std::string& {
    return names[id];
  });
  std::vector<std::uint32_t> place(names.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    place[order[i]] = static_cast<std::uint32_t>(i);
  }

  std::vector<Timeline::SectionTotal> totals(names.size());
  std::vector<bool> seen(names.size(), false);
  std::vector<Bins::Win>& windows = bins.windows();
  std::ranges::sort(windows, {}, &Bins::Win::interval);
  for (Bins::Win& wa : windows) {
    Window w;
    w.interval = wa.interval;
    w.t_start = static_cast<double>(wa.interval) * dt;
    w.t_end = w.t_start + dt;
    w.mpi_total = wa.mpi_total;
    w.counters = std::move(wa.counters);
    w.counters.resize(tl.counter_names.size(), 0.0);

    std::ranges::sort(wa.cells, {},
                      [&](const Bins::Cell& c) { return place[c.name]; });
    std::vector<std::uint32_t> at;  ///< name place of each of w.sections
    for (Bins::Cell& cell : wa.cells) {
      cell.fold();
      if (cell.ranks == 0) continue;
      at.push_back(place[cell.name]);
      SectionWindow sw;
      sw.label = names[cell.name];
      sw.ranks = cell.ranks;
      sw.total = cell.total;
      sw.max_rank = cell.max;
      sw.min_rank = cell.min;
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
    for (std::size_t i = 0; i < w.sections.size(); ++i) {
      const SectionWindow& sw = w.sections[i];
      auto& tot = totals[at[i]];
      seen[at[i]] = true;
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
  for (std::size_t i = 0; i < totals.size(); ++i) {
    if (!seen[i]) continue;
    Timeline::SectionTotal& tot = totals[i];
    busy_sum += tot.total;
    if (!excluded(options, tot.label) && tot.per_process > max_per_process) {
      max_per_process = tot.per_process;
      tl.binding = tot.label;
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

  Bins bins(counter_names.size());
  std::unordered_map<sections::LabelId, std::uint32_t> name_of;
  std::uint64_t dropped = 0;
  for (int rank = 0; rank < sampler.nranks(); ++rank) {
    dropped += sampler.dropped(rank);
    for (const TelemetrySampler::Sample& s : sampler.samples(rank)) {
      Bins::Win& wa = bins.window(s.interval);
      for (const auto& [label, seconds] : s.sections) {
        auto [it, fresh] = name_of.try_emplace(label, 0);
        if (fresh) it->second = bins.intern(sampler.labels().name(label));
        Bins::add(wa, it->second, rank, seconds);
      }
      wa.mpi_total += s.mpi_seconds;
      for (std::size_t i = 0; i < s.deltas.size() && i < wa.counters.size();
           ++i) {
        wa.counters[i] += s.deltas[i];
      }
    }
  }
  return reduce(bins, sampler.dt(), sampler.nranks(),
                std::move(counter_names), dropped, options);
}

Timeline timeline_from_replay(const trace::ReplayResult& res, double dt,
                              const TimelineOptions& options) {
  if (dt <= 0.0 || res.nranks <= 0) return {};
  const auto nranks = static_cast<std::size_t>(res.nranks);
  Bins bins(0);
  // Label -> name id; every label past the table is "?".
  std::vector<std::uint32_t> name_of;
  name_of.reserve(res.labels.size());
  for (const std::string& label : res.labels) {
    name_of.push_back(bins.intern(label));
  }
  const std::uint32_t unknown = bins.intern("?");

  // Each rank's rows in timeline order (a counting sort by rank), so the
  // ranks are binned one after another.
  std::vector<std::size_t> start(nranks + 1, 0);
  for (const trace::TimelineEntry& e : res.timeline) {
    ++start[static_cast<std::size_t>(e.rank) + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<const trace::TimelineEntry*> rows(res.timeline.size());
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (const trace::TimelineEntry& e : res.timeline) {
      rows[fill[static_cast<std::size_t>(e.rank)]++] = &e;
    }
  }

  // One rank's cursor: busy seconds per label in the current window, flat
  // for the labels in the table and in a map past it, so a flush adds
  // them in label order.
  double t_last = 0.0;
  std::uint64_t window = 0;
  std::vector<std::uint32_t> stack;
  std::vector<double> busy(res.labels.size(), 0.0);
  std::vector<char> marked(res.labels.size(), 0);
  std::vector<std::uint32_t> touched;
  std::map<std::uint32_t, double> busy_past;
  int rank = 0;

  const auto charge = [&](std::uint32_t label, double seconds) {
    if (label >= busy.size()) {
      busy_past[label] += seconds;
      return;
    }
    if (marked[label] == 0) {
      marked[label] = 1;
      touched.push_back(label);
    }
    busy[label] += seconds;
  };
  const auto flush = [&] {
    if (touched.empty() && busy_past.empty()) return;
    Bins::Win& wa = bins.window(window);
    std::ranges::sort(touched);
    for (const std::uint32_t label : touched) {
      Bins::add(wa, name_of[label], rank, busy[label]);
      busy[label] = 0.0;
      marked[label] = 0;
    }
    touched.clear();
    for (const auto& [label, seconds] : busy_past) {
      Bins::add(wa, unknown, rank, seconds);
    }
    busy_past.clear();
  };
  const auto advance = [&](double t) {
    if (!(t >= t_last)) t = t_last;  // also drops a NaN time
    while (true) {
      const double wend = static_cast<double>(window + 1) * dt;
      if (t < wend) break;
      if (!stack.empty()) charge(stack.back(), wend - t_last);
      t_last = wend;
      flush();
      ++window;
    }
    if (t > t_last && !stack.empty()) charge(stack.back(), t - t_last);
    t_last = t;
  };

  for (std::size_t r = 0; r < nranks; ++r) {
    rank = static_cast<int>(r);
    t_last = 0.0;
    window = 0;
    stack.clear();
    for (std::size_t i = start[r]; i < start[r + 1]; ++i) {
      const trace::TimelineEntry& e = *rows[i];
      advance(e.t);
      if (e.enter) {
        stack.push_back(e.label);
      } else if (!stack.empty()) {
        stack.pop_back();
      }
    }
    advance(res.final_times[r]);
    flush();
  }
  return reduce(bins, dt, res.nranks, {}, 0, options);
}

}  // namespace mpisect::telemetry
