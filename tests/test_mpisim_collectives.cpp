// Collective correctness against serial references, across rank counts,
// plus modelled-only variants and synchronization timing properties.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpisim/runtime.hpp"

namespace {

using namespace mpisect::mpisim;

WorldOptions ideal_options() {
  WorldOptions opts;
  opts.machine = MachineModel::ideal();
  return opts;
}

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BarrierSynchronizesVirtualTime) {
  const int p = GetParam();
  World world(p, ideal_options());
  std::vector<double> after(static_cast<std::size_t>(p));
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    // Rank r is busy r virtual seconds; after the barrier everyone must be
    // at least as late as the slowest rank.
    ctx.compute_exact(static_cast<double>(ctx.rank()));
    comm.barrier();
    after[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  for (const double t : after) EXPECT_GE(t, static_cast<double>(p - 1));
}

TEST_P(CollectiveSweep, BcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; root += (p > 4 ? 3 : 1)) {
    World world(p, ideal_options());
    world.run([root](Ctx& ctx) {
      Comm comm = ctx.world_comm();
      std::vector<int> data(5, -1);
      if (ctx.rank() == root) {
        std::iota(data.begin(), data.end(), 100);
      }
      comm.bcast(data.data(), data.size() * sizeof(int), root);
      for (int i = 0; i < 5; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], 100 + i);
    });
  }
}

TEST_P(CollectiveSweep, ReduceSumToRoot) {
  const int p = GetParam();
  World world(p, ideal_options());
  world.run([p](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const double mine[2] = {static_cast<double>(ctx.rank()), 1.0};
    double out[2] = {0.0, 0.0};
    comm.reduce(mine, out, 2, Datatype::Double, ReduceOp::Sum, 0);
    if (ctx.rank() == 0) {
      EXPECT_DOUBLE_EQ(out[0], p * (p - 1) / 2.0);
      EXPECT_DOUBLE_EQ(out[1], static_cast<double>(p));
    }
  });
}

TEST_P(CollectiveSweep, AllreduceMinMaxEverywhere) {
  const int p = GetParam();
  World world(p, ideal_options());
  world.run([p](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const double mine = static_cast<double>(ctx.rank()) + 0.5;
    double mn = 0.0;
    double mx = 0.0;
    comm.allreduce(&mine, &mn, 1, Datatype::Double, ReduceOp::Min);
    comm.allreduce(&mine, &mx, 1, Datatype::Double, ReduceOp::Max);
    EXPECT_DOUBLE_EQ(mn, 0.5);
    EXPECT_DOUBLE_EQ(mx, p - 0.5);
  });
}

TEST_P(CollectiveSweep, AllreduceMaxLocFindsOwner) {
  const int p = GetParam();
  World world(p, ideal_options());
  world.run([p](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    // Values peak at rank p/2.
    const DoubleInt mine{
        static_cast<double>(ctx.rank() == p / 2 ? 1000 : ctx.rank()),
        ctx.rank()};
    DoubleInt best{};
    comm.allreduce(&mine, &best, 1, Datatype::DoubleInt, ReduceOp::MaxLoc);
    EXPECT_EQ(best.index, p / 2);
    EXPECT_DOUBLE_EQ(best.value, 1000.0);
  });
}

TEST_P(CollectiveSweep, ScatterGatherRoundtrip) {
  const int p = GetParam();
  World world(p, ideal_options());
  world.run([p](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    std::vector<int> all;
    if (ctx.rank() == 0) {
      all.resize(static_cast<std::size_t>(p) * 4);
      std::iota(all.begin(), all.end(), 0);
    }
    std::vector<int> mine(4, -1);
    comm.scatter(ctx.rank() == 0 ? all.data() : nullptr, 4 * sizeof(int),
                 mine.data(), 0);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(mine[static_cast<std::size_t>(i)], ctx.rank() * 4 + i);
    }
    for (auto& v : mine) v += 1000;
    std::vector<int> back;
    if (ctx.rank() == 0) back.assign(static_cast<std::size_t>(p) * 4, -1);
    comm.gather(mine.data(), 4 * sizeof(int),
                ctx.rank() == 0 ? back.data() : nullptr, 0);
    if (ctx.rank() == 0) {
      for (int i = 0; i < p * 4; ++i) {
        EXPECT_EQ(back[static_cast<std::size_t>(i)], i + 1000);
      }
    }
  });
}

TEST_P(CollectiveSweep, ScattervGathervVariableChunks) {
  const int p = GetParam();
  World world(p, ideal_options());
  world.run([p](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    // Rank r gets r+1 ints.
    std::vector<std::size_t> counts(static_cast<std::size_t>(p));
    std::vector<std::size_t> displs(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts[static_cast<std::size_t>(r)] = (static_cast<std::size_t>(r) + 1) * sizeof(int);
      displs[static_cast<std::size_t>(r)] = total;
      total += counts[static_cast<std::size_t>(r)];
    }
    std::vector<int> all;
    if (ctx.rank() == 0) {
      all.resize(total / sizeof(int));
      std::iota(all.begin(), all.end(), 0);
    }
    std::vector<int> mine(static_cast<std::size_t>(ctx.rank()) + 1, -1);
    comm.scatterv(ctx.rank() == 0 ? all.data() : nullptr, counts, displs,
                  mine.data(), mine.size() * sizeof(int), 0);
    const int my_start = ctx.rank() * (ctx.rank() + 1) / 2;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i], my_start + static_cast<int>(i));
    }
    std::vector<int> back;
    if (ctx.rank() == 0) back.assign(total / sizeof(int), -1);
    comm.gatherv(mine.data(), mine.size() * sizeof(int),
                 ctx.rank() == 0 ? back.data() : nullptr, counts, displs, 0);
    if (ctx.rank() == 0) {
      for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back[i], static_cast<int>(i));
      }
    }
  });
}

TEST_P(CollectiveSweep, VCollectivesReadCountsOnlyAtRoot) {
  // counts and displs are read only at the root: every other rank passes
  // empty spans and still gets (and returns) the right bytes.
  const int p = GetParam();
  for (const int root : {0, p - 1}) {
    World world(p, ideal_options());
    world.run([p, root](Ctx& ctx) {
      Comm comm = ctx.world_comm();
      const bool at_root = ctx.rank() == root;
      std::vector<std::size_t> counts;
      std::vector<std::size_t> displs;
      std::size_t total = 0;
      if (at_root) {
        for (int r = 0; r < p; ++r) {
          counts.push_back((static_cast<std::size_t>(r) + 1) * sizeof(int));
          displs.push_back(total);
          total += counts.back();
        }
      }
      std::vector<int> all;
      if (at_root) {
        all.resize(total / sizeof(int));
        std::iota(all.begin(), all.end(), 0);
      }
      std::vector<int> mine(static_cast<std::size_t>(ctx.rank()) + 1, -1);
      comm.scatterv(at_root ? all.data() : nullptr, counts, displs,
                    mine.data(), mine.size() * sizeof(int), root);
      const int my_start = ctx.rank() * (ctx.rank() + 1) / 2;
      for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_EQ(mine[i], my_start + static_cast<int>(i));
      }
      std::vector<int> back(all.size(), -1);
      comm.gatherv(mine.data(), mine.size() * sizeof(int),
                   at_root ? back.data() : nullptr, counts, displs, root);
      EXPECT_EQ(back, all);
    });
  }
}

TEST_P(CollectiveSweep, AllgatherEveryRankSeesAll) {
  const int p = GetParam();
  World world(p, ideal_options());
  world.run([p](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const long mine = 1000 + ctx.rank();
    std::vector<long> all(static_cast<std::size_t>(p), -1);
    comm.allgather(&mine, sizeof mine, all.data());
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], 1000 + r);
    }
  });
}

TEST_P(CollectiveSweep, AlltoallTransposes) {
  const int p = GetParam();
  World world(p, ideal_options());
  world.run([p](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    // send[j] = rank * 100 + j; after alltoall recv[j] = j * 100 + rank.
    std::vector<int> send(static_cast<std::size_t>(p));
    std::vector<int> recv(static_cast<std::size_t>(p), -1);
    for (int j = 0; j < p; ++j) {
      send[static_cast<std::size_t>(j)] = ctx.rank() * 100 + j;
    }
    comm.alltoall(send.data(), sizeof(int), recv.data());
    for (int j = 0; j < p; ++j) {
      EXPECT_EQ(recv[static_cast<std::size_t>(j)], j * 100 + ctx.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

TEST(Collectives, ModeledVariantsAdvanceTimeOnly) {
  World world(4, ideal_options());
  std::vector<double> times(4);
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    comm.bcast(nullptr, 1 << 20, 0);
    comm.scatter(nullptr, 1 << 18, nullptr, 0);
    comm.gather(nullptr, 1 << 18, nullptr, 0);
    comm.allgather(nullptr, 1 << 16, nullptr);
    comm.alltoall(nullptr, 1 << 16, nullptr);
    comm.reduce(nullptr, nullptr, 1024, Datatype::Double, ReduceOp::Sum, 0);
    comm.allreduce(nullptr, nullptr, 1024, Datatype::Double, ReduceOp::Sum);
    times[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  for (const double t : times) EXPECT_GT(t, 0.0);
}

TEST(Collectives, AllreduceOneConvenience) {
  World world(5, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const double sum = comm.allreduce_one(1.5, ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(sum, 7.5);
    const int max = comm.allreduce_one(ctx.rank(), ReduceOp::Max);
    EXPECT_EQ(max, 4);
  });
}

TEST(Collectives, InPlaceAliasingSafeForAllreduce) {
  World world(4, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    double v = 1.0;
    comm.allreduce(&v, &v, 1, Datatype::Double, ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(v, 4.0);
  });
}

TEST(Collectives, RootedCollectiveBadRootThrows) {
  World world(2, ideal_options());
  EXPECT_THROW(world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    comm.bcast(nullptr, 8, 5);
  }),
               MpiError);
}

TEST(Collectives, VCollectiveRootWithShortCountsThrowsArg) {
  // The root must pass a count and a displacement for every rank.
  for (const bool scatter : {true, false}) {
    World world(4, ideal_options());
    Err code = Err::Internal;
    try {
      world.run([scatter](Ctx& ctx) {
        Comm comm = ctx.world_comm();
        std::vector<std::size_t> counts;
        std::vector<std::size_t> displs;
        if (ctx.rank() == 0) {
          counts.assign(3, 0);  // one short of comm.size()
          displs.assign(3, 0);
        }
        if (scatter) {
          comm.scatterv(nullptr, counts, displs, nullptr, 0, 0);
        } else {
          comm.gatherv(nullptr, 0, nullptr, counts, displs, 0);
        }
      });
    } catch (const MpiError& e) {
      code = e.code();
    }
    EXPECT_EQ(code, Err::Arg) << (scatter ? "scatterv" : "gatherv");
  }
}

TEST(Collectives, BcastCostGrowsLogarithmically) {
  // Binomial broadcast: time grows like ceil(log2 p), not linearly.
  auto bcast_time = [](int p) {
    WorldOptions opts;
    opts.machine = MachineModel::ideal(p, 1);
    opts.seed = 1;
    World world(p, opts);
    std::vector<double> t(static_cast<std::size_t>(p));
    world.run([&](Ctx& ctx) {
      Comm comm = ctx.world_comm();
      comm.bcast(nullptr, 8, 0);
      t[static_cast<std::size_t>(ctx.rank())] = ctx.now();
    });
    double mx = 0.0;
    for (const double x : t) mx = std::max(mx, x);
    return mx;
  };
  const double t4 = bcast_time(4);
  const double t64 = bcast_time(64);
  // log2(64)/log2(4) = 3; allow generous headroom but reject linear (16x).
  EXPECT_LT(t64, t4 * 8.0);
  EXPECT_GT(t64, t4);
}

TEST(Collectives, GatherRootLeavesLast) {
  World world(4, ideal_options());
  std::vector<double> t(4);
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 2) ctx.compute_exact(3.0);  // one late contributor
    long v = ctx.rank();
    std::vector<long> all(4);
    comm.gather(&v, sizeof v, ctx.rank() == 0 ? all.data() : nullptr, 0);
    t[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  EXPECT_GE(t[0], 3.0);  // root must wait for the late rank
  EXPECT_LT(t[1], 3.0);  // early non-root ranks are not held back
}

}  // namespace
