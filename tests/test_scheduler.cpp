// The fiber rank scheduler: differential equivalence against the
// thread-per-rank oracle of thread_executor.hpp (virtual time is a pure
// function of program order + seeded draws, never of scheduling),
// worker-count independence, scale (256 ranks on a fixed worker pool),
// exact deadlock quiescence, the per-worker home lanes (quiescence across
// lanes, stealing from one loaded lane), the bounds on the --exec knobs,
// the max-accumulator / multi-run lifecycle fixes that rode along, what a
// fiber switch must preserve (floating-point control state, callee-saved
// registers), and the process-wide stack pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/sections/runtime.hpp"
#include "lambda_tool.hpp"
#include "mpisim/collsync.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/scheduler.hpp"
#include "profiler/section_profiler.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/spec.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"
#include "trace/recorder.hpp"

#include "thread_executor.hpp"

namespace {

using namespace mpisect;
using mpisim::Comm;
using mpisim::Ctx;
using mpisim::Err;
using mpisim::MachineModel;
using mpisim::MpiError;
using mpisim::World;
using mpisim::WorldOptions;

/// workers: fiber-scheduler workers, or testutil::kThreadPerRank.
WorldOptions nehalem_options(int workers = 0) {
  WorldOptions opts;
  opts.machine = MachineModel::nehalem_cluster();
  opts.start_skew_sigma = 1e-4;  // exercise the seeded jitter draws
  testutil::set_workers(opts, workers);
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

ConvRun run_convolution(int workers = 0, int ranks = 8) {
  World world(ranks, nehalem_options(workers));
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
  // No executor given: the fiber scheduler make_executor() builds.
  World world(2, WorldOptions{});
  const auto fibers = mpisim::make_executor(1);
  EXPECT_EQ(typeid(world.executor()), typeid(*fibers));
  World threads(2, nehalem_options(testutil::kThreadPerRank));
  EXPECT_EQ(typeid(threads.executor()), typeid(testutil::ThreadExecutor));
}

// The property the whole trace/replay layer depends on: the fiber
// scheduler and the oracle produce bit-identical virtual time, per-section
// profiles, and trace bytes for the same seed.
TEST(Scheduler, DifferentialConvolutionBitIdentical) {
  const ConvRun coop = run_convolution(4);
  const ConvRun thr = run_convolution(testutil::kThreadPerRank);

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
  auto run = [](int workers) {
    World world(8, nehalem_options(workers));
    sections::SectionRuntime::install(world);
    apps::lulesh::LuleshConfig cfg;
    cfg.s = 4;
    cfg.steps = 3;
    apps::lulesh::LuleshApp app(cfg);
    world.run(std::ref(app));
    return std::make_pair(world.final_times(), app.result().total_energy());
  };
  const auto coop = run(0);
  const auto thr = run(testutil::kThreadPerRank);
  ASSERT_EQ(coop.first.size(), thr.first.size());
  for (std::size_t r = 0; r < coop.first.size(); ++r) {
    EXPECT_EQ(coop.first[r], thr.first[r]) << "rank " << r;
  }
  EXPECT_EQ(coop.second, thr.second);
}

// Virtual time must also be independent of how many workers multiplex the
// fibers — 1 worker serializes every rank, 4 interleave them.
TEST(Scheduler, WorkerCountDoesNotAffectVirtualTime) {
  const ConvRun one = run_convolution(1);
  const ConvRun four = run_convolution(4);
  EXPECT_EQ(one.final_times, four.final_times);
  EXPECT_EQ(one.trace_bytes, four.trace_bytes);
  EXPECT_EQ(one.telemetry_csv, four.telemetry_csv);
}

// Paper-scale world on a fixed worker pool: 256 ranks was impractical with
// one OS thread per rank; the fiber scheduler runs it as a unit test.
TEST(Scheduler, ConvolutionScalesTo256Ranks) {
  World world(256, nehalem_options());
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
  // Falls back to the usable cores instead of 2^31 - 1 threads.
  EXPECT_EQ(mpisim::resolve_workers(0), support::usable_cores());
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
  World world(ranks, nehalem_options(workers));
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
// equal the thread-per-rank oracle.
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
  World reference(64, nehalem_options(testutil::kThreadPerRank));
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
  for (const int workers : {0, testutil::kThreadPerRank}) {
    World world(2, nehalem_options(workers));
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
    EXPECT_TRUE(aborted) << "workers=" << workers;
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
  testutil::ThreadExecutor exec;
  std::atomic<bool> abort{false};
  mpisim::CollSync<int> sync(2, exec, &abort);
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
  testutil::LambdaTool tool(world);
  tool.comm_create = [&](Ctx&, const mpisim::CommLifecycle& info) {
    const std::lock_guard lock(mu);
    created.push_back(info.context);
  };
  tool.comm_free = [&](Ctx& ctx, int context) {
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

// ---------------------------------------------------------------------------
// Fiber switch and stack pool
// ---------------------------------------------------------------------------

/// Values a fiber holds in callee-saved registers across `park`. On x86-64
/// each value is pinned to its register around the park, so a switch that
/// failed to save one would hand the fiber another fiber's (or the
/// worker's) register contents.
template <typename Park>
bool registers_survive(std::uint64_t seed, Park&& park) {
#if defined(__x86_64__)
  register std::uint64_t rbx asm("rbx") = seed ^ 0x1111;
  register std::uint64_t r12 asm("r12") = seed ^ 0x2222;
  register std::uint64_t r13 asm("r13") = seed ^ 0x3333;
  register std::uint64_t r14 asm("r14") = seed ^ 0x4444;
  register std::uint64_t r15 asm("r15") = seed ^ 0x5555;
  asm volatile("" : "+r"(rbx), "+r"(r12), "+r"(r13), "+r"(r14), "+r"(r15));
  park();
  asm volatile("" : "+r"(rbx), "+r"(r12), "+r"(r13), "+r"(r14), "+r"(r15));
  return rbx == (seed ^ 0x1111) && r12 == (seed ^ 0x2222) &&
         r13 == (seed ^ 0x3333) && r14 == (seed ^ 0x4444) &&
         r15 == (seed ^ 0x5555);
#else
  const std::uint64_t kept = seed ^ 0x1111;
  park();
  return kept == (seed ^ 0x1111);
#endif
}

// Rank 0 rounds upward, every other rank to nearest; the rounding mode is
// per fiber, so it must survive every park and never leak to the ranks
// that share rank 0's worker. Dividing 1 by 3 tells the modes apart.
TEST(FiberContext, RoundingModeAndCalleeSavedRegistersSurviveParks) {
  for (const int workers : {1, 4}) {
    World world(8, nehalem_options(workers));
    std::atomic<int> bad_mode{0};
    std::atomic<int> bad_regs{0};
    world.run([&](Ctx& ctx) {
      Comm comm = ctx.world_comm();
      const int want = comm.rank() == 0 ? FE_UPWARD : FE_TONEAREST;
      if (comm.rank() == 0) std::fesetround(FE_UPWARD);
      volatile double one = 1.0;
      const double third_before = one / 3.0;
      for (int round = 0; round < 20; ++round) {
        const auto seed = static_cast<std::uint64_t>(comm.rank()) << 32 |
                          static_cast<std::uint64_t>(round);
        const bool kept = registers_survive(seed, [&] {
          // A ring exchange parks every rank at least once per round.
          const int n = comm.size();
          comm.sendrecv(nullptr, 8, (comm.rank() + 1) % n, round, nullptr, 8,
                        (comm.rank() + n - 1) % n, round);
          comm.barrier();
        });
        if (!kept) bad_regs.fetch_add(1);
        if (std::fegetround() != want || one / 3.0 != third_before) {
          bad_mode.fetch_add(1);
        }
      }
      std::fesetround(FE_TONEAREST);
    });
    EXPECT_EQ(bad_mode.load(), 0) << "workers=" << workers;
    EXPECT_EQ(bad_regs.load(), 0) << "workers=" << workers;
  }
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

/// n ranks that are all alive at once: each holds its stack through the
/// barrier, so a world of n ranks needs n stacks concurrently.
void run_barrier_world(int n, std::size_t stack_kb, std::uint64_t* slab_maps) {
  WorldOptions opts = nehalem_options(2);
  opts.stack_kb = stack_kb;
  World world(n, opts);
  world.run([](Ctx& ctx) { ctx.world_comm().barrier(); });
  *slab_maps = world.executor().stats().slab_maps.load();
}

// Worlds of one stack size share the process-wide pool: the second one
// finds every stack it needs already mapped (and already faulted in).
TEST(FiberStackPool, SecondWorldOfTheSameStackSizeMapsNoSlab) {
  constexpr std::size_t kStackKb = 192;  // a size no other test uses
  const std::uint64_t maps_before = mpisim::stack_pool_stats().slab_maps;
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  run_barrier_world(64, kStackKb, &first);
  run_barrier_world(64, kStackKb, &second);
  // One worker maps while the other waits for its slab: exactly the slabs
  // 64 concurrent stacks need.
  EXPECT_EQ(first, (64 + mpisim::kStacksPerSlab - 1) / mpisim::kStacksPerSlab);
  EXPECT_EQ(second, 0u);
  EXPECT_EQ(mpisim::stack_pool_stats().slab_maps - maps_before, first);
}

// Idle slabs past kMaxIdleStackBytes go back to the kernel. 256 MiB stacks
// make one slab 4 GiB of address space (only the pages fibers touch are
// resident), so the second idle slab of 32 concurrent ranks is over the
// 8 GiB bound.
TEST(FiberStackPool, IdleSlabsAboveTheBoundAreUnmapped) {
  constexpr std::size_t kStackKb = 256 * 1024;
  const mpisim::StackPoolStats before = mpisim::stack_pool_stats();
  std::uint64_t maps = 0;
  run_barrier_world(2 * mpisim::kStacksPerSlab, kStackKb, &maps);
  const mpisim::StackPoolStats after = mpisim::stack_pool_stats();
  EXPECT_LE(after.idle_bytes, mpisim::kMaxIdleStackBytes);
  EXPECT_GE(after.slab_unmaps - before.slab_unmaps, 1u);
  EXPECT_EQ(after.slab_maps - before.slab_maps, maps);
  const std::size_t slab_bytes = (kStackKb << 10) * mpisim::kStacksPerSlab;
  EXPECT_LT(after.mapped_bytes, before.mapped_bytes + 2 * slab_bytes);
}

}  // namespace
