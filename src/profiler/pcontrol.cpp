#include "profiler/pcontrol.hpp"

namespace mpisect::profiler {

PcontrolPhases::PcontrolPhases(mpisim::World& world)
    : world_(world), ranks_(static_cast<std::size_t>(world.size())) {
  world_.tool_stack().attach(this, mpisim::hooks::kOrderProfiler);
}

PcontrolPhases::~PcontrolPhases() { world_.tool_stack().detach(this); }

void PcontrolPhases::on_pcontrol(mpisim::Ctx& ctx, int level,
                                 const char* label) {
  auto& rd = ranks_[static_cast<std::size_t>(ctx.rank())];
  const std::string key = label != nullptr ? label : "(anonymous)";
  if (level > 0) {
    // IPM convention: start. A duplicate start silently restarts the
    // interval (and is counted as protocol misuse).
    auto [it, inserted] = rd.open.emplace(key, ctx.now());
    if (!inserted) {
      ++rd.stats[key].unmatched_starts;
      it->second = ctx.now();
    }
  } else if (level < 0) {
    const auto it = rd.open.find(key);
    if (it == rd.open.end()) {
      ++rd.stats[key].unmatched_ends;
      return;
    }
    auto& st = rd.stats[key];
    ++st.count;
    st.total += ctx.now() - it->second;
    rd.open.erase(it);
  }
  // level == 0: IPM uses it to toggle tracing; this tool ignores it.
}

const PcontrolPhases::PhaseStats* PcontrolPhases::rank_phase(
    int rank, std::string_view label) const {
  const auto& rd = ranks_.at(static_cast<std::size_t>(rank));
  const auto it = rd.stats.find(std::string(label));
  return it == rd.stats.end() ? nullptr : &it->second;
}

PcontrolPhases::PhaseStats PcontrolPhases::total_phase(
    std::string_view label) const {
  PhaseStats sum;
  for (const auto& rd : ranks_) {
    const auto it = rd.stats.find(std::string(label));
    if (it == rd.stats.end()) continue;
    sum.count += it->second.count;
    sum.total += it->second.total;
    sum.unmatched_starts += it->second.unmatched_starts;
    sum.unmatched_ends += it->second.unmatched_ends;
  }
  return sum;
}

std::vector<std::string> PcontrolPhases::phase_labels() const {
  std::vector<std::string> labels;
  for (const auto& rd : ranks_) {
    for (const auto& [label, st] : rd.stats) {
      (void)st;
      if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
        labels.push_back(label);
      }
    }
  }
  return labels;
}

long PcontrolPhases::protocol_errors() const {
  long n = 0;
  for (const auto& rd : ranks_) {
    for (const auto& [label, st] : rd.stats) {
      (void)label;
      n += st.unmatched_starts + st.unmatched_ends;
    }
  }
  return n;
}

}  // namespace mpisect::profiler
