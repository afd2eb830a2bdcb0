// Domain-specific example 3: writing your own tools against the section
// interface — the paper's Sec. 5.3 vision ("a debugger would tell you that
// the bug is in the 'communication' section of 'load-balancing'").
//
// Two hand-rolled tools, neither known to the application:
//   1. WhereAmI — a "debugger" view: when a rank stalls, report every
//      rank's current section stack (via SectionRuntime::stack_snapshot).
//   2. SlowInstanceDetector — uses the 32-byte tool payload (Fig. 2) to
//      timestamp section entry and flags instances that run longer than a
//      threshold, entirely inside the callbacks.
//
//   build/examples/tool_integration
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "core/sections/api.hpp"
#include "mpisim/session.hpp"
#include "mpisim/toolstack.hpp"
#include "support/strings.hpp"

using namespace mpisect;
using mpisim::Comm;
using mpisim::Ctx;

namespace {

/// Tool 2: flags slow section instances using only the enter/leave
/// callbacks and the 32-byte payload the runtime preserves between them.
class SlowInstanceDetector final : public mpisim::hooks::Tool {
 public:
  SlowInstanceDetector(mpisim::World& world, double threshold_s)
      : world_(world), threshold_(threshold_s) {
    world_.tool_stack().attach(this, mpisim::hooks::kOrderProfiler);
  }
  ~SlowInstanceDetector() override { world_.tool_stack().detach(this); }
  SlowInstanceDetector(const SlowInstanceDetector&) = delete;
  SlowInstanceDetector& operator=(const SlowInstanceDetector&) = delete;

  void on_section_enter(Ctx& ctx, Comm&, const char*, char* data) override {
    const double now = ctx.now();
    std::memcpy(data, &now, sizeof now);
  }
  void on_section_leave(Ctx& ctx, Comm&, const char* label,
                        char* data) override {
    double entered = 0.0;
    std::memcpy(&entered, data, sizeof entered);
    const double took = ctx.now() - entered;
    if (took > threshold_) {
      const std::lock_guard lock(mu_);
      reports_.push_back("rank " + std::to_string(ctx.rank()) +
                         ": section '" + label + "' took " +
                         support::fmt_seconds(took) + " (threshold " +
                         support::fmt_seconds(threshold_) + ")");
    }
  }

  void print() const {
    std::printf("SlowInstanceDetector findings (%zu):\n", reports_.size());
    for (const auto& r : reports_) std::printf("  %s\n", r.c_str());
  }

 private:
  mpisim::World& world_;
  double threshold_;
  mutable std::mutex mu_;
  std::vector<std::string> reports_;
};

}  // namespace

int main() {
  const auto world_ptr = mpisim::Session(4)
                             .world_builder()
                             .machine(mpisim::MachineModel::ideal(8, 2))
                             .build();
  mpisim::World& world = *world_ptr;
  auto section_rt = sections::SectionRuntime::install(world);
  SlowInstanceDetector detector(world, /*threshold_s=*/0.5);

  // Tool 1 state: where every rank currently is, sampled at the "hang".
  std::vector<std::string> stacks(4);

  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();

    sections::MPIX_Section_enter(comm, "load-balancing");
    ctx.compute(0.01);
    {
      const sections::ScopedSection comm_phase(comm, "communication");
      // Rank 2 "hangs": it computes for a long time while the others wait
      // for its message. A debugger attached at this moment asks the
      // section runtime where everyone is.
      if (ctx.rank() == 2) {
        ctx.compute(2.0);  // the bug
        stacks[static_cast<std::size_t>(ctx.rank())] =
            section_rt->stack_string(ctx, comm);
        for (int r = 0; r < ctx.size(); ++r) {
          if (r != 2) comm.send(nullptr, 8, r, 0);
        }
      } else {
        stacks[static_cast<std::size_t>(ctx.rank())] =
            section_rt->stack_string(ctx, comm);
        comm.recv(nullptr, 8, 2, 0);
      }
    }
    sections::MPIX_Section_exit(comm, "load-balancing");
  });

  std::printf("WhereAmI (debugger view at the stall):\n");
  for (int r = 0; r < 4; ++r) {
    std::printf("  rank %d: %s\n", r, stacks[static_cast<std::size_t>(r)].c_str());
  }
  std::printf(
      "-> \"the bug is in the 'communication' section of 'load-balancing'\"\n\n");

  detector.print();
  std::printf(
      "\nboth tools used ONLY the standardized section interface — no app\n"
      "changes, no tool-specific markers, exactly the paper's argument for\n"
      "defining phases at the MPI level.\n");
  return 0;
}
