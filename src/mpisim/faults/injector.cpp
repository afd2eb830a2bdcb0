#include "mpisim/faults/injector.hpp"

#include "mpisim/faults/engine.hpp"

namespace mpisect::mpisim::faults {

std::shared_ptr<FaultInjector> FaultInjector::install(World& world) {
  if (auto existing = world.shared_extension<FaultInjector>()) return existing;
  auto self = std::make_shared<FaultInjector>(world);
  world.attach_extension(self);
  return self;
}

FaultInjector::FaultInjector(World& world) : world_(&world) {
  logs_.reserve(static_cast<std::size_t>(world.size()));
  for (int r = 0; r < world.size(); ++r) {
    logs_.push_back(std::make_unique<RankLog>());
  }
  world.tool_stack().attach(this, hooks::kOrderFaults);
  attached_ = true;
}

FaultInjector::~FaultInjector() { detach(); }

void FaultInjector::detach() {
  if (!attached_) return;
  world_->tool_stack().detach(this);
  attached_ = false;
}

void FaultInjector::on_fault(Ctx& ctx, const TapFault& f) {
  RankLog& log = *logs_[static_cast<std::size_t>(ctx.rank())];
  FaultEvent ev;
  ev.kind = f.kind;
  ev.comm_context = f.comm_context;
  ev.src_world = f.src_world;
  ev.dst_world = f.dst_world;
  ev.seq = f.seq;
  ev.attempts = f.attempts;
  ev.seconds = f.seconds;
  ev.t = f.t;
  const std::lock_guard lock(log.mu);
  log.events.push_back(ev);
}

std::vector<FaultEvent> FaultInjector::events(int rank) const {
  const RankLog& log = *logs_.at(static_cast<std::size_t>(rank));
  const std::lock_guard lock(log.mu);
  return log.events;
}

std::size_t FaultInjector::total_events() const {
  std::size_t n = 0;
  for (const auto& log : logs_) {
    const std::lock_guard lock(log->mu);
    n += log->events.size();
  }
  return n;
}

std::string FaultInjector::summary() const {
  const FaultEngine* fe = world_->fault_engine();
  if (fe == nullptr) return "no faults injected";
  return fe->summary();
}

}  // namespace mpisect::mpisim::faults
