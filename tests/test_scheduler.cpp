// The cooperative rank scheduler: differential equivalence against the
// thread-per-rank backend (virtual time is a pure function of program
// order + seeded draws, never of scheduling), worker-count independence,
// scale (256 ranks on a fixed worker pool), exact deadlock quiescence,
// the per-worker home lanes (quiescence across lanes, stealing from one
// loaded lane), the bounds on the --exec knobs, and the max-accumulator /
// multi-run lifecycle fixes that rode along.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/collsync.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/scheduler.hpp"
#include "profiler/section_profiler.hpp"
#include "support/log.hpp"
#include "support/spec.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace mpisect;
using mpisim::Comm;
using mpisim::Ctx;
using mpisim::Err;
using mpisim::ExecBackend;
using mpisim::MachineModel;
using mpisim::MpiError;
using mpisim::World;
using mpisim::WorldOptions;

WorldOptions nehalem_options(ExecBackend exec, int workers = 0) {
  WorldOptions opts;
  opts.machine = MachineModel::nehalem_cluster();
  opts.start_skew_sigma = 1e-4;  // exercise the seeded jitter draws
  opts.exec = exec;
  opts.workers = workers;
  return opts;
}

apps::conv::ConvolutionConfig conv_config(int steps) {
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  return cfg;
}

struct ConvRun {
  std::vector<double> final_times;
  std::vector<profiler::SectionProfiler::SectionTotals> profile;
  std::vector<std::uint8_t> trace_bytes;
  std::string telemetry_csv;
};

ConvRun run_convolution(ExecBackend exec, int workers = 0, int ranks = 8) {
  World world(ranks, nehalem_options(exec, workers));
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
  // All four PMPI tools stacked; the sampled series must be a pure
  // function of per-rank program order, like everything else compared
  // below.
  telemetry::SamplerOptions sopts;
  sopts.dt = 1e-3;
  auto sampler = telemetry::TelemetrySampler::install(world, sopts);
  apps::conv::ConvolutionApp app(conv_config(10));
  world.run(std::ref(app));
  const telemetry::Timeline tl = telemetry::build_timeline(*sampler);
  return ConvRun{world.final_times(), prof.totals(), rec->finish().encode(),
                 telemetry::timeline_csv(tl)};
}

TEST(Scheduler, DefaultBackendIsCooperative) {
  World world(2, WorldOptions{});
  EXPECT_STREQ(world.executor().backend_name(), "cooperative");
  World threads(2, nehalem_options(ExecBackend::Threads));
  EXPECT_STREQ(threads.executor().backend_name(), "threads");
}

// The property the whole trace/replay layer depends on: both backends
// produce bit-identical virtual time, per-section profiles, and trace
// bytes for the same seed.
TEST(Scheduler, DifferentialConvolutionBitIdentical) {
  const ConvRun coop = run_convolution(ExecBackend::Cooperative, 4);
  const ConvRun thr = run_convolution(ExecBackend::Threads);

  ASSERT_EQ(coop.final_times.size(), thr.final_times.size());
  for (std::size_t r = 0; r < coop.final_times.size(); ++r) {
    EXPECT_EQ(coop.final_times[r], thr.final_times[r]) << "rank " << r;
  }

  ASSERT_EQ(coop.profile.size(), thr.profile.size());
  for (std::size_t i = 0; i < coop.profile.size(); ++i) {
    EXPECT_EQ(coop.profile[i].label, thr.profile[i].label);
    EXPECT_EQ(coop.profile[i].instances, thr.profile[i].instances);
    EXPECT_EQ(coop.profile[i].total_time, thr.profile[i].total_time)
        << coop.profile[i].label;
    EXPECT_EQ(coop.profile[i].mpi_time, thr.profile[i].mpi_time)
        << coop.profile[i].label;
  }

  EXPECT_EQ(coop.trace_bytes, thr.trace_bytes)
      << "recorded .mpst bytes must not depend on the scheduler";
  EXPECT_EQ(coop.telemetry_csv, thr.telemetry_csv)
      << "exported telemetry series must not depend on the scheduler";
}

TEST(Scheduler, DifferentialLuleshBitIdentical) {
  auto run = [](ExecBackend exec) {
    World world(8, nehalem_options(exec));
    sections::SectionRuntime::install(world);
    apps::lulesh::LuleshConfig cfg;
    cfg.s = 4;
    cfg.steps = 3;
    apps::lulesh::LuleshApp app(cfg);
    world.run(std::ref(app));
    return std::make_pair(world.final_times(), app.result().total_energy());
  };
  const auto coop = run(ExecBackend::Cooperative);
  const auto thr = run(ExecBackend::Threads);
  ASSERT_EQ(coop.first.size(), thr.first.size());
  for (std::size_t r = 0; r < coop.first.size(); ++r) {
    EXPECT_EQ(coop.first[r], thr.first[r]) << "rank " << r;
  }
  EXPECT_EQ(coop.second, thr.second);
}

// Virtual time must also be independent of how many workers multiplex the
// fibers — 1 worker serializes every rank, 4 interleave them.
TEST(Scheduler, WorkerCountDoesNotAffectVirtualTime) {
  const ConvRun one = run_convolution(ExecBackend::Cooperative, 1);
  const ConvRun four = run_convolution(ExecBackend::Cooperative, 4);
  EXPECT_EQ(one.final_times, four.final_times);
  EXPECT_EQ(one.trace_bytes, four.trace_bytes);
  EXPECT_EQ(one.telemetry_csv, four.telemetry_csv);
}

// Paper-scale world on a fixed worker pool: 256 ranks was impractical with
// one OS thread per rank; the fiber scheduler runs it as a unit test.
TEST(Scheduler, ConvolutionScalesTo256Ranks) {
  World world(256, nehalem_options(ExecBackend::Cooperative));
  sections::SectionRuntime::install(world);
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 512;
  cfg.height = 512;
  cfg.steps = 3;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  EXPECT_GT(world.elapsed(), 0.0);
  EXPECT_EQ(world.final_times().size(), 256u);
}

TEST(Scheduler, ResolveWorkersHonorsEnvironment) {
  EXPECT_EQ(mpisim::resolve_workers(5), 5);
  ::setenv("MPISECT_WORKERS", "3", 1);
  EXPECT_EQ(mpisim::resolve_workers(0), 3);
  EXPECT_EQ(mpisim::resolve_workers(7), 7);  // explicit beats env
  ::unsetenv("MPISECT_WORKERS");
  EXPECT_GE(mpisim::resolve_workers(0), 1);
}

// Hostile --exec values are rejected at parse time, naming the bound, so
// no world and no thread is ever built from one.
TEST(Scheduler, ExecSpecRejectsWorkersAndStacksAboveTheirBounds) {
  const auto parse_error = [](const std::string& spec) -> std::string {
    try {
      (void)mpisim::ExecModel::parse(spec);
    } catch (const MpiError& err) {
      EXPECT_EQ(err.code(), Err::Arg) << spec;
      return err.what();
    }
    return "";
  };
  EXPECT_EQ(mpisim::ExecModel::parse("cooperative:workers=1024").workers,
            1024);
  EXPECT_EQ(mpisim::ExecModel::parse("cooperative:stack=1048576").stack_kb,
            1048576u);
  EXPECT_NE(parse_error("cooperative:workers=1025").find("1024"),
            std::string::npos);
  EXPECT_NE(parse_error("cooperative:workers=2147483647").find("1024"),
            std::string::npos);
  EXPECT_NE(parse_error("cooperative:stack=1048577").find("1048576"),
            std::string::npos);
  EXPECT_NE(parse_error("cooperative:workers=4,stack=2147483647")
                .find("1048576"),
            std::string::npos);
  EXPECT_FALSE(parse_error("cooperative:workers=99999999999").empty());
}

// MPISECT_WORKERS and MPISECT_STACK_KB share one bounded reader: values
// outside [1, bound] or not integers are ignored with a warning.
TEST(Scheduler, EnvironmentKnobsIgnoreOutOfRangeValues) {
  std::string log;
  support::set_log_capture(&log);
  ::setenv("MPISECT_WORKERS", "2147483647", 1);
  EXPECT_EQ(support::env_int("MPISECT_WORKERS", 1024), 0);
  // Falls back to the hardware default instead of 2^31 - 1 threads.
  EXPECT_EQ(mpisim::resolve_workers(0),
            static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency())));
  ::setenv("MPISECT_WORKERS", "99999999999999999999", 1);  // strtol overflow
  EXPECT_EQ(support::env_int("MPISECT_WORKERS", 1024), 0);
  ::setenv("MPISECT_WORKERS", "4x", 1);
  EXPECT_EQ(support::env_int("MPISECT_WORKERS", 1024), 0);
  ::setenv("MPISECT_WORKERS", "1024", 1);
  EXPECT_EQ(mpisim::resolve_workers(0), 1024);
  ::unsetenv("MPISECT_WORKERS");
  EXPECT_EQ(support::env_int("MPISECT_WORKERS", 1024), 0);
  ::setenv("MPISECT_STACK_KB", "1048577", 1);
  EXPECT_EQ(support::env_int("MPISECT_STACK_KB",
                             static_cast<int>(mpisim::ExecModel::kMaxStackKb)),
            0);
  ::unsetenv("MPISECT_STACK_KB");
  support::set_log_capture(nullptr);
  EXPECT_NE(log.find("ignoring MPISECT_WORKERS=2147483647"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("ignoring MPISECT_STACK_KB=1048577"), std::string::npos)
      << log;
}

// ---------------------------------------------------------------------------
// Home lanes: rank r lives on lane r * workers / n. Each test runs at 1, 2
// and 4 workers, so the same scenario covers one lane, two and four.
// ---------------------------------------------------------------------------

constexpr std::array<int, 3> kLaneWorkers{1, 2, 4};

struct LaneRun {
  int fires = 0;       ///< quiescence handler invocations
  bool aborted = false;
  std::vector<double> final_times;
};

LaneRun run_counting_quiescence(int ranks, int workers,
                                const std::function<void(Ctx&)>& body) {
  World world(ranks, nehalem_options(ExecBackend::Cooperative, workers));
  std::atomic<int> fires{0};
  world.set_deadlock_handler([&fires] { fires.fetch_add(1); });
  LaneRun out;
  try {
    world.run(body);
  } catch (const MpiError& err) {
    out.aborted = err.code() == Err::Aborted && world.aborted();
  }
  out.fires = fires.load();
  out.final_times = world.final_times();
  return out;
}

// A receive ring: every rank waits on its right neighbour, which never
// sends. At 4 workers the 16 blocked ranks sit in all four home lanes; the
// last park anywhere must fire the handler exactly once.
TEST(SchedulerLanes, DeadlockAcrossEveryLaneFiresOnceAndAborts) {
  for (const int workers : kLaneWorkers) {
    const LaneRun run = run_counting_quiescence(16, workers, [](Ctx& ctx) {
      Comm comm = ctx.world_comm();
      std::array<char, 4> buf{};
      comm.recv(buf.data(), buf.size(), (comm.rank() + 1) % comm.size(), 0);
    });
    EXPECT_EQ(run.fires, 1) << "workers=" << workers;
    EXPECT_TRUE(run.aborted) << "workers=" << workers;
  }
}

// Rank 0 stays runnable (yielding) while every other rank parks on a
// receive from it, then exits without sending: its finish, not a park, is
// the transition that leaves no runnable rank.
TEST(SchedulerLanes, LastRunnerFinishingOverOrphanedWaitsFiresOnce) {
  for (const int workers : kLaneWorkers) {
    const LaneRun run = run_counting_quiescence(16, workers, [](Ctx& ctx) {
      Comm comm = ctx.world_comm();
      if (comm.rank() == 0) {
        for (int i = 0; i < 200; ++i) ctx.world().executor().yield();
        return;
      }
      std::array<char, 4> buf{};
      comm.recv(buf.data(), buf.size(), 0, 0);
    });
    EXPECT_EQ(run.fires, 1) << "workers=" << workers;
    EXPECT_TRUE(run.aborted) << "workers=" << workers;
  }
}

// All the work in one home block: in a 64-rank world ranks 0-15 (lane 0 at
// every worker count here) ping-pong 200 rounds in pairs, the rest exit at
// once. Other workers must steal from lane 0, and virtual time must still
// equal the thread-per-rank reference.
TEST(SchedulerLanes, OneLoadedHomeBlockMatchesThreadsBackend) {
  const auto body = [](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const int r = comm.rank();
    if (r >= 16) return;
    std::array<char, 256> buf{};
    const int peer = r ^ 1;
    for (int round = 0; round < 200; ++round) {
      if (r % 2 == 0) {
        comm.send(buf.data(), buf.size(), peer, round);
        comm.recv(buf.data(), buf.size(), peer, round);
      } else {
        comm.recv(buf.data(), buf.size(), peer, round);
        comm.send(buf.data(), buf.size(), peer, round);
      }
      ctx.compute_exact(1e-6 * (r + 1));
    }
  };
  World reference(64, nehalem_options(ExecBackend::Threads));
  reference.run(body);
  for (const int workers : kLaneWorkers) {
    const LaneRun run = run_counting_quiescence(64, workers, body);
    EXPECT_EQ(run.fires, 0) << "workers=" << workers;
    EXPECT_FALSE(run.aborted) << "workers=" << workers;
    EXPECT_EQ(run.final_times, reference.final_times())
        << "workers=" << workers;
  }
}

// Request::test polling whose partner sits in another lane: each rank
// delays its send by a rank-dependent number of yields (past the test spin
// budget, so some pollers park on the completion event meanwhile). A
// yielding rank stays runnable, so quiescence must never fire.
TEST(SchedulerLanes, TestPollingAcrossLanesNeverFiresEarly) {
  for (const int workers : kLaneWorkers) {
    const LaneRun run = run_counting_quiescence(8, workers, [](Ctx& ctx) {
      Comm comm = ctx.world_comm();
      const int r = comm.rank();
      const int n = comm.size();
      const int partner = (r + n / 2) % n;  // always in another lane
      std::array<char, 64> in{};
      std::array<char, 64> out{};
      Comm::Request recv = comm.irecv(in.data(), in.size(), partner, 0);
      for (int i = 0; i < 40 * (r + 1); ++i) ctx.world().executor().yield();
      Comm::Request send = comm.isend(out.data(), out.size(), partner, 0);
      bool recv_done = false;
      bool send_done = false;
      while (!recv_done || !send_done) {
        if (!recv_done) recv_done = recv.test();
        if (!send_done) send_done = send.test();
      }
    });
    EXPECT_EQ(run.fires, 0) << "workers=" << workers;
    EXPECT_FALSE(run.aborted) << "workers=" << workers;
  }
}

// Head-to-head receives with no checker attached: the scheduler itself
// proves quiescence (every rank parked, no wake pending) and aborts —
// deterministic, no watchdog timeout involved.
TEST(Scheduler, QuiescenceAbortsDeadlockedWorld) {
  for (const ExecBackend exec :
       {ExecBackend::Cooperative, ExecBackend::Threads}) {
    World world(2, nehalem_options(exec));
    bool aborted = false;
    try {
      world.run([](Ctx& ctx) {
        Comm comm = ctx.world_comm();
        std::array<char, 4> buf{};
        comm.recv(buf.data(), buf.size(), 1 - comm.rank(), 0);
      });
    } catch (const MpiError& err) {
      aborted = err.code() == Err::Aborted;
    }
    EXPECT_TRUE(aborted) << world.executor().backend_name();
    EXPECT_TRUE(world.aborted());
  }
}

// elapsed() seeds with -infinity: a run whose clocks end up negative (here
// via exact negative compute, in practice via replay rescaling) must not
// report a clamped 0.0 makespan.
TEST(Scheduler, ElapsedHandlesNegativeFinalTimes) {
  World world(2, WorldOptions{});
  world.run([](Ctx& ctx) { ctx.clock().reset(-2.0 - ctx.rank()); });
  EXPECT_DOUBLE_EQ(world.elapsed(), -2.0);
}

// Same fix inside CollSync: the round's max-entry-time must not clamp
// negative virtual times to 0.0.
TEST(Scheduler, CollSyncMaxEntryHandlesNegativeTimes) {
  auto exec = mpisim::make_executor(ExecBackend::Threads);
  std::atomic<bool> abort{false};
  mpisim::CollSync<int> sync(2, *exec, &abort);
  double max0 = 0.0;
  std::thread peer([&] {
    auto [values, t_max] = sync.exchange(0, 1, -3.0, 11);
    (void)values;
    (void)t_max;
  });
  auto [values, t_max] = sync.exchange(0, 0, -5.0, 7);
  peer.join();
  max0 = t_max;
  EXPECT_DOUBLE_EQ(max0, -3.0);
  EXPECT_EQ(values[0], 7);
  EXPECT_EQ(values[1], 11);
}

// Repeated World::run builds a fresh world communicator; the previous one
// must get its on_comm_free so comm-lifecycle accounting stays paired.
TEST(Scheduler, MultiRunEmitsWorldCommFree) {
  World world(2, WorldOptions{});
  std::vector<int> created;
  std::vector<std::pair<int, int>> freed;  // (rank, context)
  std::mutex mu;
  world.hooks().on_comm_create = [&](Ctx&, const mpisim::CommLifecycle& info) {
    const std::lock_guard lock(mu);
    created.push_back(info.context);
  };
  world.hooks().on_comm_free = [&](Ctx& ctx, int context) {
    const std::lock_guard lock(mu);
    freed.emplace_back(ctx.rank(), context);
  };

  auto noop = [](Ctx& ctx) { ctx.compute_exact(1.0); };
  world.run(noop);
  ASSERT_EQ(created.size(), 2u);
  const int first_context = created.front();
  EXPECT_TRUE(freed.empty());  // comm still alive between runs

  world.run(noop);
  ASSERT_EQ(freed.size(), 2u);
  for (const auto& [rank, context] : freed) {
    EXPECT_EQ(context, first_context);
  }
  EXPECT_EQ(created.size(), 4u);
  EXPECT_NE(created.back(), first_context);
}

// A failed second run must not leave the first run's final times behind.
TEST(Scheduler, FailedRunClearsFinalTimes) {
  World world(2, WorldOptions{});
  world.run([](Ctx& ctx) { ctx.compute_exact(1.0); });
  for (const double t : world.final_times()) EXPECT_DOUBLE_EQ(t, 1.0);

  EXPECT_THROW(world.run([](Ctx&) {
    throw std::runtime_error("rank failure");
  }),
               std::runtime_error);
  for (const double t : world.final_times()) EXPECT_DOUBLE_EQ(t, 0.0);
}

}  // namespace
