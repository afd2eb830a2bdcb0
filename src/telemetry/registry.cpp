#include "telemetry/registry.hpp"

#include <atomic>
#include <stdexcept>

namespace mpisect::telemetry {

namespace {

// Rank cells are single-writer (the owning rank thread) but read live by
// the render thread while ranks run; relaxed atomic_ref makes those reads
// defined without adding synchronization to the hot path (a relaxed
// load/store of an aligned double is a plain move on the targets we care
// about).
inline double cell_load(const double& v) noexcept {
  return std::atomic_ref<const double>(v).load(std::memory_order_relaxed);
}

inline void cell_store(double& v, double x) noexcept {
  std::atomic_ref<double>(v).store(x, std::memory_order_relaxed);
}

}  // namespace

Registry::Registry(int nranks) : nranks_(nranks) {
  if (nranks < 1) throw std::invalid_argument("Registry: nranks must be >= 1");
}

InstrumentId Registry::add_scalar(std::string name, Scope scope, Kind kind,
                                  std::string help, std::string unit) {
  Slot slot;
  slot.desc = {std::move(name), std::move(help), std::move(unit), kind, scope};
  if (scope == Scope::Rank) {
    slot.rank.resize(static_cast<std::size_t>(nranks_));
  } else {
    slot.process = std::make_unique<std::atomic<double>>(0.0);
  }
  const InstrumentId id = slots_.size();
  slots_.push_back(std::move(slot));
  if (scope == Scope::Rank) rank_scalars_.push_back(id);
  return id;
}

InstrumentId Registry::add_counter(std::string name, Scope scope,
                                   std::string help, std::string unit) {
  return add_scalar(std::move(name), scope, Kind::Counter, std::move(help),
                    std::move(unit));
}

InstrumentId Registry::add_gauge(std::string name, Scope scope,
                                 std::string help, std::string unit) {
  return add_scalar(std::move(name), scope, Kind::Gauge, std::move(help),
                    std::move(unit));
}

InstrumentId Registry::add_distribution(std::string name, double lo,
                                        double hi, int bins, std::string help,
                                        std::string unit) {
  Slot slot;
  slot.desc = {std::move(name), std::move(help), std::move(unit),
               Kind::Distribution, Scope::Process};
  slot.process_hist = std::make_unique<support::Histogram>(lo, hi, bins);
  const InstrumentId id = slots_.size();
  slots_.push_back(std::move(slot));
  return id;
}

void Registry::inc(InstrumentId id, int rank, double v) noexcept {
  Slot& s = slots_[id];
  if (s.desc.scope == Scope::Rank) {
    double& cell = s.rank[static_cast<std::size_t>(rank)].v;
    cell_store(cell, cell_load(cell) + v);  // single writer: no CAS needed
  } else {
    s.process->fetch_add(v, std::memory_order_relaxed);
  }
}

void Registry::set(InstrumentId id, int rank, double v) noexcept {
  Slot& s = slots_[id];
  if (s.desc.scope == Scope::Rank) {
    cell_store(s.rank[static_cast<std::size_t>(rank)].v, v);
  } else {
    s.process->store(v, std::memory_order_relaxed);
  }
}

void Registry::observe(InstrumentId id, double x) noexcept {
  const std::lock_guard lock(process_hist_mu_);
  slots_[id].process_hist->add(x);
}

const InstrumentDesc& Registry::desc(InstrumentId id) const {
  return slots_.at(id).desc;
}

std::optional<InstrumentId> Registry::find(std::string_view name) const {
  for (InstrumentId id = 0; id < slots_.size(); ++id) {
    if (slots_[id].desc.name == name) return id;
  }
  return std::nullopt;
}

double Registry::value(InstrumentId id, int rank) const {
  const Slot& s = slots_.at(id);
  if (s.desc.kind == Kind::Distribution) return 0.0;
  if (s.desc.scope == Scope::Rank) {
    return cell_load(s.rank.at(static_cast<std::size_t>(rank)).v);
  }
  return s.process->load(std::memory_order_relaxed);
}

double Registry::total(InstrumentId id) const {
  const Slot& s = slots_.at(id);
  if (s.desc.kind == Kind::Distribution) return 0.0;
  if (s.desc.scope == Scope::Process) {
    return s.process->load(std::memory_order_relaxed);
  }
  double sum = 0.0;
  for (const Cell& c : s.rank) sum += cell_load(c.v);
  return sum;
}

const support::Histogram* Registry::histogram(InstrumentId id) const {
  return slots_.at(id).process_hist.get();
}

void Registry::snapshot_rank(int rank, std::vector<double>& out) const {
  out.resize(rank_scalars_.size());
  for (std::size_t i = 0; i < rank_scalars_.size(); ++i) {
    out[i] = cell_load(
        slots_[rank_scalars_[i]].rank[static_cast<std::size_t>(rank)].v);
  }
}

}  // namespace mpisect::telemetry
