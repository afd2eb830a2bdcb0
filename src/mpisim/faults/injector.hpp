// FaultInjector — the fifth stack-registered tool.
//
// The FaultEngine itself lives inside the simulator core (wire fates are
// applied in raw_start_send, stalls/kills at fault checkpoints) because
// faults must perturb virtual time, which tools are forbidden to do. The
// injector is the tool-side face of the engine: it registers with the
// hooks::ToolStack at kOrderFaults, observes every TapFault the core
// emits, and keeps a per-rank, program-ordered log of injected events so
// CLIs and tests can report exactly what the plan did — without poking at
// the engine's atomic counters or requiring telemetry to be attached.
//
// Events fire on the owning rank (the sender for wire faults, the victim
// for stalls/kills), so each per-rank log is deterministic across
// scheduler backends and worker counts.
//
//   mpisim::WorldOptions opt;
//   opt.faults = faults::FaultPlan::parse("drop:p=0.05");
//   mpisim::World world(16, opt);
//   auto inj = faults::FaultInjector::install(world);
//   world.run(app);
//   std::cout << inj->summary();
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mpisim/hooks.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"

namespace mpisect::mpisim::faults {

/// One observed fault event, in the owning rank's program order.
struct FaultEvent {
  FaultKind kind = FaultKind::Drop;
  int comm_context = -1;
  int src_world = -1;
  int dst_world = -1;
  std::uint64_t seq = 0;
  int attempts = 1;     ///< wire attempts including the final one
  double seconds = 0.0; ///< retransmit delay or stall length
  double t = 0.0;       ///< virtual time of the observation
};

class FaultInjector final : public Extension, public hooks::Tool {
 public:
  /// Create and attach an injector (idempotent per world). Safe to call on
  /// a world without a fault plan — the log simply stays empty.
  static std::shared_ptr<FaultInjector> install(World& world);

  explicit FaultInjector(World& world);
  ~FaultInjector() override;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Unregister from the world's ToolStack. Idempotent.
  void detach();

  /// Total events observed across all ranks.
  [[nodiscard]] std::size_t total_events() const;
  /// Human-readable digest: the engine's counter summary when a plan is
  /// active, "no faults injected" otherwise.
  [[nodiscard]] std::string summary() const;

  // Tool interface.
  void on_fault(Ctx& ctx, const TapFault& f) override;

 private:
  struct RankLog {
    mutable std::mutex mu;  ///< live reads race the rank thread
    std::vector<FaultEvent> events;
  };

  World* world_;
  bool attached_ = false;
  std::vector<std::unique_ptr<RankLog>> logs_;
};

}  // namespace mpisect::mpisim::faults
