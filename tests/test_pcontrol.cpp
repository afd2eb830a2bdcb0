// The IPM-style MPI_Pcontrol baseline: local phase intervals, protocol
// misuse that sections would have rejected, and the contrast with the
// collective section semantics.
#include <gtest/gtest.h>

#include "core/sections/api.hpp"
#include "profiler/pcontrol.hpp"
#include "profiler/section_profiler.hpp"

namespace {

using namespace mpisect;
using namespace mpisect::profiler;
using mpisim::Comm;
using mpisim::Ctx;
using mpisim::MachineModel;
using mpisim::World;
using mpisim::WorldOptions;

WorldOptions ideal_options() {
  WorldOptions opts;
  opts.machine = MachineModel::ideal();
  return opts;
}

TEST(PcontrolPhasesTest, MeasuresBalancedPhases) {
  World world(2, ideal_options());
  PcontrolPhases phases(world);
  world.run([](Ctx& ctx) {
    ctx.pcontrol(1, "solve");
    ctx.compute_exact(2.0);
    ctx.pcontrol(-1, "solve");
  });
  const auto total = phases.total_phase("solve");
  EXPECT_EQ(total.count, 2);
  EXPECT_NEAR(total.total, 4.0, 1e-9);
  EXPECT_EQ(phases.protocol_errors(), 0);
}

TEST(PcontrolPhasesTest, PerRankStats) {
  World world(2, ideal_options());
  PcontrolPhases phases(world);
  world.run([](Ctx& ctx) {
    ctx.pcontrol(1, "phase");
    ctx.compute_exact(ctx.rank() == 0 ? 1.0 : 3.0);
    ctx.pcontrol(-1, "phase");
  });
  const auto* r0 = phases.rank_phase(0, "phase");
  const auto* r1 = phases.rank_phase(1, "phase");
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r1, nullptr);
  EXPECT_NEAR(r0->total, 1.0, 1e-9);
  EXPECT_NEAR(r1->total, 3.0, 1e-9);
  EXPECT_EQ(phases.rank_phase(0, "missing"), nullptr);
}

TEST(PcontrolPhasesTest, UnmatchedEndCounted) {
  World world(1, ideal_options());
  PcontrolPhases phases(world);
  world.run([](Ctx& ctx) {
    ctx.pcontrol(-1, "never-started");
  });
  EXPECT_EQ(phases.protocol_errors(), 1);
  EXPECT_EQ(phases.total_phase("never-started").count, 0);
}

TEST(PcontrolPhasesTest, DuplicateStartRestartsInterval) {
  World world(1, ideal_options());
  PcontrolPhases phases(world);
  world.run([](Ctx& ctx) {
    ctx.pcontrol(1, "p");
    ctx.compute_exact(5.0);
    ctx.pcontrol(1, "p");  // misuse: restarts the interval
    ctx.compute_exact(1.0);
    ctx.pcontrol(-1, "p");
  });
  const auto total = phases.total_phase("p");
  EXPECT_EQ(total.count, 1);
  EXPECT_NEAR(total.total, 1.0, 1e-9);  // the first 5 s were silently lost
  EXPECT_EQ(phases.protocol_errors(), 1);
}

TEST(PcontrolPhasesTest, LevelZeroIgnored) {
  World world(1, ideal_options());
  PcontrolPhases phases(world);
  world.run([](Ctx& ctx) {
    ctx.pcontrol(0, "trace-toggle");
  });
  EXPECT_TRUE(phases.phase_labels().empty());
}

TEST(PcontrolPhasesTest, AnonymousLabel) {
  World world(1, ideal_options());
  PcontrolPhases phases(world);
  world.run([](Ctx& ctx) {
    ctx.pcontrol(1, nullptr);
    ctx.compute_exact(1.0);
    ctx.pcontrol(-1, nullptr);
  });
  EXPECT_EQ(phases.total_phase("(anonymous)").count, 1);
}

// The tool detaches when it dies: a world that outlives it runs Pcontrol
// calls without reaching the dead tool (AddressSanitizer reports a
// use-after-scope here if the stack still holds it).
TEST(PcontrolPhasesTest, DestroyedToolStopsObserving) {
  World world(2, ideal_options());
  const auto body = [](Ctx& ctx) {
    ctx.pcontrol(1, "A");
    ctx.compute_exact(1.0);
    ctx.pcontrol(-1, "A");
  };
  {
    PcontrolPhases phases(world);
    world.run(body);
    EXPECT_EQ(phases.total_phase("A").count, 2);
  }
  EXPECT_EQ(world.tool_stack().size(), 0u);
  world.run(body);
  PcontrolPhases later(world);
  world.run(body);
  EXPECT_EQ(later.total_phase("A").count, 2);  // only the run it observed
}

TEST(PcontrolVsSections, SectionsCatchWhatPcontrolMisses) {
  // The same mistake — a mismatched close — is an explicit error through
  // MPI_Sections but silent mismeasurement through Pcontrol.
  World world(1, ideal_options());
  sections::SectionRuntime::install(world);
  PcontrolPhases phases(world);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    // Pcontrol: open A, close B -> 1 lost interval + 1 unmatched end,
    // nobody tells the user.
    ctx.pcontrol(1, "A");
    ctx.pcontrol(-1, "B");
    // Sections: the same mistake is rejected immediately.
    EXPECT_EQ(sections::MPIX_Section_enter(comm, "A"), sections::kSectionOk);
    EXPECT_EQ(sections::MPIX_Section_exit(comm, "B"),
              sections::kSectionErrNotNested);
    sections::MPIX_Section_exit(comm, "A");
  });
  EXPECT_EQ(phases.protocol_errors(), 1);
  EXPECT_EQ(phases.total_phase("A").count, 0);  // interval lost silently
}

TEST(PcontrolVsSections, BothToolsCoexistOnOneRun) {
  World world(2, ideal_options());
  sections::SectionRuntime::install(world);
  SectionProfiler prof(world);
  PcontrolPhases phases(world);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    ctx.pcontrol(1, "work");
    sections::MPIX_Section_enter(comm, "work");
    ctx.compute_exact(1.0);
    sections::MPIX_Section_exit(comm, "work");
    ctx.pcontrol(-1, "work");
  });
  EXPECT_NEAR(prof.totals_for("work").mean_per_process, 1.0, 1e-9);
  EXPECT_NEAR(phases.total_phase("work").total, 2.0, 1e-9);
}

}  // namespace
