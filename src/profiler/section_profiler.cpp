#include "profiler/section_profiler.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "mpisim/comm.hpp"

namespace mpisect::profiler {
namespace {

/// Tool payload carried in the section's 32-byte data slot (paper Fig. 2):
/// the tool's own synchronized timestamp, written at enter, read at leave.
struct ToolData {
  double t_in;
};
static_assert(sizeof(ToolData) <= mpisim::kSectionDataBytes,
              "tool payload must fit the 32-byte section data");

}  // namespace

SectionProfiler::SectionProfiler(mpisim::World& world, ProfilerOptions options)
    : world_(&world),
      options_(options),
      ranks_(static_cast<std::size_t>(world.size())) {
  world.tool_stack().attach(this, mpisim::hooks::kOrderProfiler);
}

SectionProfiler::~SectionProfiler() { detach(); }

void SectionProfiler::detach() {
  if (world_ == nullptr) return;
  world_->tool_stack().detach(this);
  world_ = nullptr;
}

void SectionProfiler::on_section_enter(mpisim::Ctx& ctx, mpisim::Comm& comm,
                                       const char* label, char* data) {
  auto& rd = ranks_[static_cast<std::size_t>(ctx.rank())];
  const auto id = labels_.intern(label);

  // Stamp the tool payload: this timestamp travels with the section.
  ToolData td{ctx.now()};
  std::memcpy(data, &td, sizeof td);

  OpenSection open;
  open.label = id;
  open.comm_context = comm.context_id();
  open.instance =
      rd.occurrences[sections::occurrence_key(open.comm_context, id)]++;
  open.t_in = td.t_in;
  rd.stack.push_back(open);
}

void SectionProfiler::on_section_leave(mpisim::Ctx& ctx, mpisim::Comm& comm,
                                       const char* label, char* data) {
  auto& rd = ranks_[static_cast<std::size_t>(ctx.rank())];
  if (rd.stack.empty()) return;  // defensive: runtime enforces nesting
  (void)label;

  // Recover the enter timestamp from the 32-byte payload the runtime
  // preserved for us.
  ToolData td{};
  std::memcpy(&td, data, sizeof td);

  const OpenSection open = rd.stack.back();
  rd.stack.pop_back();
  const double t_out = ctx.now();
  const double inclusive = t_out - td.t_in;

  auto& stats =
      rd.stats[sections::occurrence_key(open.comm_context, open.label)];
  if (stats.count == 0) {
    stats.min_instance = inclusive;
    stats.max_instance = inclusive;
  } else {
    stats.min_instance = std::min(stats.min_instance, inclusive);
    stats.max_instance = std::max(stats.max_instance, inclusive);
  }
  ++stats.count;
  stats.inclusive += inclusive;
  stats.exclusive += inclusive - open.child_inclusive;
  stats.mpi_time += open.mpi_time;
  stats.mpi_calls += open.mpi_calls;
  stats.p2p_calls += open.p2p_calls;
  stats.collective_calls += open.coll_calls;

  if (!rd.stack.empty()) {
    rd.stack.back().child_inclusive += inclusive;
  }

  if (options_.keep_instances) {
    InstanceSpan span;
    span.label = open.label;
    span.instance = open.instance;
    span.comm_context = open.comm_context;
    span.t_in = td.t_in;
    span.t_out = t_out;
    span.depth = static_cast<int>(rd.stack.size());
    rd.spans.push_back(span);
  }

  (void)comm;
}

void SectionProfiler::on_call_begin(mpisim::Ctx& ctx,
                                    const mpisim::CallInfo& info) {
  if (!options_.track_mpi_calls) return;
  if (info.call == mpisim::MpiCall::Pcontrol) return;  // phase marker, not
                                                       // communication
  auto& rd = ranks_[static_cast<std::size_t>(ctx.rank())];
  if (rd.call_depth++ == 0) rd.call_begin_time = info.t_virtual;
}

void SectionProfiler::on_call_end(mpisim::Ctx& ctx,
                                  const mpisim::CallInfo& info) {
  if (!options_.track_mpi_calls) return;
  if (info.call == mpisim::MpiCall::Pcontrol) return;
  auto& rd = ranks_[static_cast<std::size_t>(ctx.rank())];
  if (--rd.call_depth != 0) return;  // attribute only outermost calls
  if (rd.stack.empty()) return;      // outside any section (Init/Finalize)
  auto& top = rd.stack.back();
  top.mpi_time += info.t_virtual - rd.call_begin_time;
  ++top.mpi_calls;
  if (mpisim::is_point_to_point(info.call)) ++top.p2p_calls;
  if (mpisim::is_collective(info.call)) ++top.coll_calls;
}

const LabelStats* SectionProfiler::rank_stats(int rank, int comm_context,
                                              std::string_view label) const {
  const auto id = labels_.lookup(label);
  if (id == sections::kInvalidLabel) return nullptr;
  const auto& rd = ranks_.at(static_cast<std::size_t>(rank));
  return rd.stats.find(sections::occurrence_key(comm_context, id));
}

std::vector<SectionProfiler::SectionTotals> SectionProfiler::totals() const {
  std::map<std::pair<int, std::uint32_t>, SectionTotals> acc;
  for (const auto& rd : ranks_) {
    rd.stats.for_each([&](std::uint64_t key, const LabelStats& stats) {
      const auto context =
          static_cast<int>(static_cast<std::uint32_t>(key >> 32));
      const auto label = static_cast<sections::LabelId>(key);
      auto& t = acc[{context, label}];
      if (t.ranks_seen == 0) {
        t.label = labels_.name(label);
        t.comm_context = context;
      }
      ++t.ranks_seen;
      t.instances = std::max(t.instances, stats.count);
      t.total_time += stats.inclusive;
      t.exclusive_total += stats.exclusive;
      t.mpi_time += stats.mpi_time;
      t.mpi_calls += stats.mpi_calls;
    });
  }
  std::vector<SectionTotals> out;
  out.reserve(acc.size());
  for (auto& [key, t] : acc) {
    (void)key;
    if (t.ranks_seen > 0) {
      t.mean_per_process = t.total_time / t.ranks_seen;
    }
    out.push_back(std::move(t));
  }
  return out;
}

SectionProfiler::SectionTotals SectionProfiler::totals_for(
    std::string_view label) const {
  SectionTotals sum;
  sum.label = std::string(label);
  for (const auto& t : totals()) {
    if (t.label != label) continue;
    sum.comm_context = t.comm_context;
    sum.instances += t.instances;
    sum.ranks_seen = std::max(sum.ranks_seen, t.ranks_seen);
    sum.total_time += t.total_time;
    sum.exclusive_total += t.exclusive_total;
    sum.mpi_time += t.mpi_time;
    sum.mpi_calls += t.mpi_calls;
  }
  if (sum.ranks_seen > 0) sum.mean_per_process = sum.total_time / sum.ranks_seen;
  return sum;
}

double SectionProfiler::main_time() const {
  const auto t = totals_for(sections::kMainSectionLabel);
  return t.mean_per_process;
}

sections::InstanceMetrics SectionProfiler::instance_metrics(
    int comm_context, std::string_view label, std::uint64_t instance) const {
  const auto id = labels_.lookup(label);
  std::vector<sections::RankSpan> spans;
  if (id == sections::kInvalidLabel) return sections::compute_metrics(spans);
  for (int r = 0; r < nranks(); ++r) {
    for (const auto& s : ranks_[static_cast<std::size_t>(r)].spans) {
      if (s.label == id && s.instance == instance &&
          s.comm_context == comm_context) {
        spans.push_back({r, s.t_in, s.t_out});
        break;
      }
    }
  }
  return sections::compute_metrics(spans);
}

sections::AggregatedMetrics SectionProfiler::aggregated_metrics(
    int comm_context, std::string_view label) const {
  sections::AggregatedMetrics agg;
  const std::uint64_t n = instance_count(comm_context, label);
  for (std::uint64_t k = 0; k < n; ++k) {
    const auto m = instance_metrics(comm_context, label, k);
    if (m.nranks > 0) agg.add(m);
  }
  return agg;
}

std::uint64_t SectionProfiler::instance_count(int comm_context,
                                              std::string_view label) const {
  const auto id = labels_.lookup(label);
  if (id == sections::kInvalidLabel) return 0;
  std::uint64_t n = 0;
  for (const auto& rd : ranks_) {
    const std::uint64_t* count =
        rd.occurrences.find(sections::occurrence_key(comm_context, id));
    if (count != nullptr) n = std::max(n, *count);
  }
  return n;
}

const std::vector<InstanceSpan>& SectionProfiler::trace(int rank) const {
  return ranks_.at(static_cast<std::size_t>(rank)).spans;
}

}  // namespace mpisect::profiler
