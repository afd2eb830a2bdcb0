// Fault-injection engine behaviour: plan parsing, the empty-plan
// bit-identity guarantee, same-seed byte-reproducibility across scheduler
// backends, transport resilience under drops, checker classification of
// injected kills/losses, and what-if replay under a fault plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "checker/checker.hpp"
#include "mpisim/error.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/faults/engine.hpp"
#include "mpisim/faults/injector.hpp"
#include "mpisim/faults/plan.hpp"
#include "mpisim/runtime.hpp"
#include "profiler/report.hpp"
#include "profiler/section_profiler.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

#include "thread_executor.hpp"

namespace {

using namespace mpisect;
using mpisim::faults::FaultPlan;

// ---------------------------------------------------------------------------
// Plan parsing

TEST(FaultPlan, EmptySpecParsesToEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlan, DescribeRoundTripsThroughParse) {
  const char* spec =
      "drop:p=0.05,src=3,dst=4; dup:p=0.01; delay:t=1e-4,p=0.5; "
      "degrade:factor=4,from=0.1,until=0.2; stall:rank=2,at=0.1,for=0.05; "
      "slow:rank=2,factor=2; kill:rank=3,at=0.5; "
      "retransmit:rto=1e-4,backoff=2,max=8,dedup=1";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.describe(), FaultPlan::parse(plan.describe()).describe());
}

TEST(FaultPlan, MalformedSpecsThrowPointedErrors) {
  EXPECT_THROW((void)FaultPlan::parse("drop"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("drop:p=2"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("frobnicate:p=0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("kill:rank=x"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Differential runs: every observable artifact of a convolution run.

struct RunArtifacts {
  std::vector<double> final_times;
  std::string profile_csv;
  std::vector<std::uint8_t> trace_bytes;
  std::string telemetry_csv;
};

/// workers: fiber-scheduler workers, or testutil::kThreadPerRank.
RunArtifacts run_convolution(const FaultPlan& plan, int workers,
                             int ranks = 4, int steps = 6) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0xBEEF;
  testutil::set_workers(opts, workers);
  opts.faults = plan;
  mpisim::World world(ranks, opts);
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world, {});
  auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
  telemetry::SamplerOptions sopts;
  sopts.dt = 0.05;
  auto sampler = telemetry::TelemetrySampler::install(world, sopts);

  apps::conv::ConvolutionConfig cfg;
  cfg.width = 512;
  cfg.height = 256;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));

  RunArtifacts a;
  a.final_times = world.final_times();
  a.profile_csv = profiler::render_csv(prof);
  a.trace_bytes = rec->finish().encode();
  a.telemetry_csv = telemetry::timeline_csv(telemetry::build_timeline(*sampler));
  return a;
}

void expect_identical(const RunArtifacts& a, const RunArtifacts& b,
                      const char* what) {
  EXPECT_EQ(a.final_times, b.final_times) << what;
  EXPECT_EQ(a.profile_csv, b.profile_csv) << what;
  EXPECT_EQ(a.trace_bytes, b.trace_bytes) << what;
  EXPECT_EQ(a.telemetry_csv, b.telemetry_csv) << what;
}

TEST(FaultDeterminism, EmptyPlanIsBitIdenticalToFaultFreeRun) {
  const auto bare = run_convolution(FaultPlan{}, 1);
  // A plan with a non-default resilience policy but no rules is still
  // empty(): no engine is constructed, nothing can differ.
  FaultPlan policy_only;
  policy_only.retransmit.rto = 1e-3;
  policy_only.retransmit.max_retries = 2;
  ASSERT_TRUE(policy_only.empty());
  expect_identical(bare, run_convolution(policy_only, 1),
                   "empty plan, coop workers=1");
  expect_identical(bare, run_convolution(FaultPlan{}, 4), "coop workers=4");
  expect_identical(bare,
                   run_convolution(FaultPlan{}, testutil::kThreadPerRank),
                   "thread-per-rank oracle");
}

TEST(FaultDeterminism, SameSeedFaultRunsAreByteReproducible) {
  const FaultPlan plan =
      FaultPlan::parse("drop:p=0.05; dup:p=0.02; delay:t=1e-5,p=0.2");
  const auto coop1 = run_convolution(plan, 1);
  const auto coop4 = run_convolution(plan, 4);
  const auto threads = run_convolution(plan, testutil::kThreadPerRank);
  expect_identical(coop1, coop4, "coop workers=1 vs 4");
  expect_identical(coop1, threads, "coop vs thread-per-rank oracle");
}

TEST(FaultDeterminism, FaultsActuallyPerturbTheRun) {
  const auto bare = run_convolution(FaultPlan{}, 1);
  const auto dropped = run_convolution(FaultPlan::parse("drop:p=0.1"), 1);
  // Retransmits cost wire time: the faulted run must finish strictly later.
  ASSERT_EQ(bare.final_times.size(), dropped.final_times.size());
  double bare_max = 0.0, dropped_max = 0.0;
  for (const double t : bare.final_times) bare_max = std::max(bare_max, t);
  for (const double t : dropped.final_times) {
    dropped_max = std::max(dropped_max, t);
  }
  EXPECT_GT(dropped_max, bare_max);
}

// ---------------------------------------------------------------------------
// Resilient transport

TEST(FaultResilience, Conv64RanksCompletesUnderFivePercentDrop) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0x5EED;
  opts.faults = FaultPlan::parse("drop:p=0.05");
  mpisim::World world(64, opts);
  sections::SectionRuntime::install(world);
  auto injector = mpisim::faults::FaultInjector::install(world);
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = 5;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));  // must complete: retransmit recovers every drop

  ASSERT_NE(world.fault_engine(), nullptr);
  std::uint64_t drops = 0, lost = 0;
  for (int r = 0; r < world.size(); ++r) {
    const auto c = world.fault_engine()->counters(r);
    drops += c.drops;
    lost += c.lost;
  }
  EXPECT_GT(drops, 0u) << "5% drop over a 64-rank halo exchange must fire";
  EXPECT_EQ(lost, 0u) << "default retry budget must recover every drop";
  EXPECT_GT(injector->total_events(), 0u);
  EXPECT_NE(injector->summary(), "no faults injected");
}

TEST(FaultResilience, StallChargesLostProgress) {
  auto elapsed = [](const FaultPlan& plan) {
    mpisim::WorldOptions opts;
    opts.machine = mpisim::MachineModel::nehalem_cluster();
    opts.faults = plan;
    mpisim::World world(2, opts);
    world.run([](mpisim::Ctx& ctx) {
      mpisim::Comm comm = ctx.world_comm();
      for (int i = 0; i < 4; ++i) {
        ctx.compute_exact(1e-3);
        comm.barrier();
      }
    });
    return world.elapsed();
  };
  const double bare = elapsed(FaultPlan{});
  const double stalled =
      elapsed(FaultPlan::parse("stall:rank=0,at=0,for=0.05"));
  // The straggler charge serializes behind the barrier: everyone pays.
  // Allow a sliver of slack — the shifted arrival times re-draw the
  // model's wire jitter, which can shave microseconds off the barriers.
  EXPECT_GE(stalled, bare + 0.049);
}

TEST(FaultResilience, SlowRuleScalesComputeCharges) {
  auto elapsed = [](const FaultPlan& plan) {
    mpisim::WorldOptions opts;
    opts.faults = plan;
    mpisim::World world(1, opts);
    world.run([](mpisim::Ctx& ctx) { ctx.compute_exact(1e-2); });
    return world.elapsed();
  };
  const double bare = elapsed(FaultPlan{});
  const double slowed = elapsed(FaultPlan::parse("slow:rank=0,factor=3"));
  EXPECT_NEAR(slowed, 3.0 * bare, 1e-9);
}

TEST(FaultResilience, DuplicatesAreSuppressedByDefault) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.faults = FaultPlan::parse("dup:p=0.5");
  mpisim::World world(2, opts);
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    char buf[64] = {};
    for (int i = 0; i < 20; ++i) {
      if (comm.rank() == 0) {
        comm.send(buf, sizeof buf, 1, /*tag=*/i);
      } else {
        comm.recv(buf, sizeof buf, 0, /*tag=*/i);
      }
    }
  });  // with dedup on, the extra copies must not clog matching
  std::uint64_t dups = 0;
  for (int r = 0; r < world.size(); ++r) {
    dups += world.fault_engine()->counters(r).duplicates;
  }
  EXPECT_GT(dups, 0u);
}

// ---------------------------------------------------------------------------
// Checker classification

TEST(FaultChecker, InjectedKillIsClassifiedNamingTheRank) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.faults = FaultPlan::parse("kill:rank=1,at=1e-6");
  mpisim::World world(4, opts);
  sections::SectionRuntime::install(world);
  auto check = checker::MpiChecker::install(world, {});
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = 4;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  try {
    world.run(std::ref(app));
  } catch (const mpisim::MpiError&) {
    // Survivors are woken with Err::Aborted once quiescence is proven.
  }
  check->analyze();
  bool found = false;
  for (const auto& d : check->diagnostics()) {
    if (d.category != checker::Category::InjectedFault) continue;
    found = true;
    EXPECT_EQ(d.rank, 1);
    EXPECT_NE(d.message.find("rank 1"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("killed"), std::string::npos) << d.message;
  }
  EXPECT_TRUE(found) << "kill must surface as INJECTED_FAULT";
  for (const auto& d : check->diagnostics()) {
    EXPECT_NE(d.category, checker::Category::Deadlock)
        << "an injected hang must never be reported as a native deadlock: "
        << d.message;
  }
}

TEST(FaultChecker, ExhaustedRetryBudgetIsClassifiedAsInjectedLoss) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.faults = FaultPlan::parse("drop:p=1; retransmit:rto=1e-5,max=2");
  mpisim::World world(2, opts);
  auto check = checker::MpiChecker::install(world, {});
  try {
    world.run([](mpisim::Ctx& ctx) {
      mpisim::Comm comm = ctx.world_comm();
      char buf[16] = {};
      if (comm.rank() == 0) {
        comm.send(buf, sizeof buf, 1, /*tag=*/0);
      } else {
        comm.recv(buf, sizeof buf, 0, /*tag=*/0);  // can never match: lost
      }
    });
  } catch (const mpisim::MpiError&) {
  }
  check->analyze();
  bool found = false;
  for (const auto& d : check->diagnostics()) {
    if (d.category != checker::Category::InjectedFault) continue;
    found = true;
    EXPECT_NE(d.message.find("loss"), std::string::npos) << d.message;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Replay re-costing

trace::TraceFile record_conv_trace() {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0xBEEF;
  mpisim::World world(4, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 512;
  cfg.height = 256;
  cfg.steps = 6;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  return rec->finish();
}

TEST(FaultReplay, EmptyPlanMatchesPlainReplayExactly) {
  const trace::TraceFile tf = record_conv_trace();
  const auto plain = trace::replay(tf, tf.header.machine, {});
  trace::ReplayOptions ropts;
  ropts.faults = FaultPlan{};
  const auto empty = trace::replay(tf, tf.header.machine, ropts);
  EXPECT_EQ(plain.makespan, empty.makespan);  // bitwise, not approx
}

TEST(FaultReplay, DropPlanSlowsTheWhatIfFrameDeterministically) {
  const trace::TraceFile tf = record_conv_trace();
  const auto plain = trace::replay(tf, tf.header.machine, {});
  trace::ReplayOptions ropts;
  ropts.faults = FaultPlan::parse("drop:p=0.2");
  const auto faulted = trace::replay(tf, tf.header.machine, ropts);
  EXPECT_GT(faulted.makespan, plain.makespan);
  const auto again = trace::replay(tf, tf.header.machine, ropts);
  EXPECT_EQ(faulted.makespan, again.makespan);
}

TEST(FaultReplay, KillRulesAreNotReplayable) {
  const trace::TraceFile tf = record_conv_trace();
  trace::ReplayOptions ropts;
  ropts.faults = FaultPlan::parse("kill:rank=1,at=0.1");
  EXPECT_THROW((void)trace::replay(tf, tf.header.machine, ropts),
               trace::TraceError);
}

}  // namespace
