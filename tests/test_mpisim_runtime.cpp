// World lifecycle, hook dispatch, abort propagation, determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <vector>

#include "mpisim/runtime.hpp"

namespace {

using namespace mpisect::mpisim;

WorldOptions ideal_options() {
  WorldOptions opts;
  opts.machine = MachineModel::ideal();
  return opts;
}

TEST(WorldBasics, SizeAndRanks) {
  World world(7, ideal_options());
  EXPECT_EQ(world.size(), 7);
  std::vector<int> seen(7, 0);
  world.run([&](Ctx& ctx) {
    EXPECT_EQ(ctx.size(), 7);
    seen[static_cast<std::size_t>(ctx.rank())] = 1;
    EXPECT_EQ(ctx.world_comm().rank(), ctx.rank());
    EXPECT_EQ(ctx.world_comm().size(), 7);
  });
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(WorldBasics, RejectsNonPositiveSize) {
  EXPECT_THROW(World(0, ideal_options()), MpiError);
  EXPECT_THROW(World(-3, ideal_options()), MpiError);
}

TEST(WorldBasics, FinalTimesAndElapsed) {
  World world(3, ideal_options());
  world.run([](Ctx& ctx) {
    ctx.compute_exact(static_cast<double>(ctx.rank()) + 1.0);
  });
  const auto& t = world.final_times();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t[0], 1.0);
  EXPECT_DOUBLE_EQ(t[2], 3.0);
  EXPECT_DOUBLE_EQ(world.elapsed(), 3.0);
}

TEST(WorldBasics, RunTwiceResetsClocks) {
  World world(2, ideal_options());
  world.run([](Ctx& ctx) { ctx.compute_exact(5.0); });
  EXPECT_DOUBLE_EQ(world.elapsed(), 5.0);
  world.run([](Ctx& ctx) { ctx.compute_exact(1.0); });
  EXPECT_DOUBLE_EQ(world.elapsed(), 1.0);
}

TEST(WorldBasics, SecondRunUsesFreshCommunicator) {
  World world(2, ideal_options());
  // Leave a stray message queued in run 1; run 2 must not see it.
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const int v = 99;
      comm.send(&v, sizeof v, 1, 0);
    }
    // rank 1 never receives it.
  });
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const int v = 7;
      comm.send(&v, sizeof v, 1, 0);
    } else {
      int v = 0;
      comm.recv(&v, sizeof v, 0, 0);
      EXPECT_EQ(v, 7);  // not the stale 99
    }
  });
}

TEST(WorldAbort, RankExceptionPropagatesAndUnblocksPeers) {
  World world(3, ideal_options());
  EXPECT_THROW(world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      throw MpiError(Err::Internal, "deliberate failure");
    }
    // Other ranks block forever on a message that never comes; the abort
    // must wake them instead of deadlocking the join.
    int v = 0;
    comm.recv(&v, sizeof v, 0, 0);
  }),
               MpiError);
  EXPECT_TRUE(world.aborted());
}

TEST(WorldAbort, AbortedWorldRefusesNewRuns) {
  World world(2, ideal_options());
  EXPECT_THROW(world.run([](Ctx& ctx) {
    if (ctx.rank() == 0) throw MpiError(Err::Internal, "boom");
    ctx.world_comm().barrier();
  }),
               MpiError);
  EXPECT_THROW(world.run([](Ctx&) {}), MpiError);
}

TEST(Hooks, CallBeginEndBracketsOperations) {
  World world(2, ideal_options());
  std::atomic<int> begins{0};
  std::atomic<int> ends{0};
  std::atomic<int> sends{0};
  world.hooks().on_call_begin = [&](Ctx&, const CallInfo& info) {
    ++begins;
    if (info.call == MpiCall::Send) ++sends;
  };
  world.hooks().on_call_end = [&](Ctx&, const CallInfo&) { ++ends; };
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const int v = 1;
      comm.send(&v, sizeof v, 1, 0);
    } else {
      int v = 0;
      comm.recv(&v, sizeof v, 0, 0);
    }
    comm.barrier();
  });
  EXPECT_EQ(begins.load(), ends.load());
  EXPECT_EQ(sends.load(), 1);
  // Init + Finalize per rank (4) + send + recv + 2 barriers = 8.
  EXPECT_EQ(begins.load(), 8);
}

TEST(Hooks, CallInfoCarriesContext) {
  World world(2, ideal_options());
  std::vector<CallInfo> infos;
  std::mutex mu;
  world.hooks().on_call_begin = [&](Ctx&, const CallInfo& info) {
    if (info.call == MpiCall::Send) {
      const std::lock_guard lock(mu);
      infos.push_back(info);
    }
  };
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const char payload[10] = {};
      comm.send(payload, sizeof payload, 1, 42);
    } else {
      char buf[10];
      comm.recv(buf, sizeof buf, 0, 42);
    }
  });
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].peer, 1);
  EXPECT_EQ(infos[0].tag, 42);
  EXPECT_EQ(infos[0].bytes, 10u);
  EXPECT_EQ(infos[0].comm_size, 2);
}

TEST(Hooks, InternalCollectiveTrafficInvisible) {
  // A bcast over 8 ranks does several internal sends; tools must see only
  // the bcast itself.
  World world(8, ideal_options());
  std::atomic<int> p2p_calls{0};
  std::atomic<int> bcasts{0};
  world.hooks().on_call_begin = [&](Ctx&, const CallInfo& info) {
    if (is_point_to_point(info.call)) ++p2p_calls;
    if (info.call == MpiCall::Bcast) ++bcasts;
  };
  world.run([](Ctx& ctx) {
    double v = 0.0;
    ctx.world_comm().bcast(&v, sizeof v, 0);
  });
  EXPECT_EQ(p2p_calls.load(), 0);
  EXPECT_EQ(bcasts.load(), 8);
}

TEST(Determinism, SameSeedSameVirtualTimeline) {
  auto timeline = [](std::uint64_t seed) {
    WorldOptions opts;
    opts.machine = MachineModel::nehalem_cluster();  // jitter enabled
    opts.seed = seed;
    World world(8, opts);
    world.run([](Ctx& ctx) {
      Comm comm = ctx.world_comm();
      for (int i = 0; i < 20; ++i) {
        ctx.compute(1e-3);
        const int right = (ctx.rank() + 1) % ctx.size();
        const int left = (ctx.rank() - 1 + ctx.size()) % ctx.size();
        comm.sendrecv(nullptr, 1024, right, 0, nullptr, 1024, left, 0);
      }
    });
    return world.final_times();
  };
  const auto a = timeline(11);
  const auto b = timeline(11);
  const auto c = timeline(12);
  EXPECT_EQ(a, b);  // bit-for-bit reproducible
  EXPECT_NE(a, c);  // seed changes the timeline
}

TEST(Determinism, ComputeNoiseKeyedPerRank) {
  WorldOptions opts = ideal_options();
  opts.machine.compute_noise_sigma = 0.1;
  World world(4, opts);
  world.run([](Ctx& ctx) { ctx.compute(1.0); });
  const auto t = world.final_times();
  // Noise differs between ranks but stays near 1s.
  for (const double x : t) {
    EXPECT_GT(x, 0.5);
    EXPECT_LT(x, 1.5);
  }
  EXPECT_NE(t[0], t[1]);
}

TEST(StartSkew, AppliedWhenConfigured) {
  WorldOptions opts = ideal_options();
  opts.start_skew_sigma = 0.1;
  World world(6, opts);
  world.run([](Ctx&) {});
  const auto t = world.final_times();
  bool any_nonzero = false;
  for (const double x : t) any_nonzero = any_nonzero || x > 0.0;
  EXPECT_TRUE(any_nonzero);
}

TEST(Pcontrol, DispatchesToHook) {
  World world(2, ideal_options());
  std::atomic<int> count{0};
  world.hooks().on_pcontrol = [&](Ctx&, int level, const char* label) {
    if (level == 1 && std::string(label) == "phase") ++count;
  };
  world.run([](Ctx& ctx) {
    ctx.pcontrol(1, "phase");
    ctx.pcontrol(-1, "phase");
  });
  EXPECT_EQ(count.load(), 2);
}

TEST(Extensions, InitFinalizeOrdering) {
  class Recorder : public Extension {
   public:
    std::atomic<int> inits{0};
    std::atomic<int> finis{0};
    void on_rank_init(Ctx&) override { ++inits; }
    void on_rank_finalize(Ctx&) override { ++finis; }
  };
  World world(3, ideal_options());
  auto rec = std::make_shared<Recorder>();
  world.attach_extension(rec);
  EXPECT_EQ(world.find_extension<Recorder>(), rec.get());
  EXPECT_EQ(world.shared_extension<Recorder>(), rec);
  world.run([&](Ctx&) {
    EXPECT_GE(rec->inits.load(), 1);  // own rank's init already ran
  });
  EXPECT_EQ(rec->inits.load(), 3);
  EXPECT_EQ(rec->finis.load(), 3);
}

}  // namespace
