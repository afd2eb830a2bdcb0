// Rooted block scatter/gather: the data lands in the right slots for every
// rank count and root (the sweep), in modeled mode time advances, and
// rendezvous-size chunks arrive intact. The suite names date from when a
// binomial variant stood beside the linear algorithm; the simulator now
// has the linear one only, and the ids stay stable.
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

struct Case {
  int p;
  int root;
};

class BinomialSweep : public ::testing::TestWithParam<Case> {};

TEST_P(BinomialSweep, ScatterMatchesLinearSemantics) {
  const auto [p, root] = GetParam();
  World world(p, ideal_options());
  world.run([p = p, root = root](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const int chunk = 3;
    std::vector<int> all;
    if (ctx.rank() == root) {
      all.resize(static_cast<std::size_t>(p) * chunk);
      std::iota(all.begin(), all.end(), 500);
    }
    std::vector<int> mine(chunk, -1);
    comm.scatter(ctx.rank() == root ? all.data() : nullptr,
                 chunk * sizeof(int), mine.data(), root);
    for (int i = 0; i < chunk; ++i) {
      EXPECT_EQ(mine[static_cast<std::size_t>(i)],
                500 + ctx.rank() * chunk + i)
          << "p=" << p << " root=" << root << " rank=" << ctx.rank();
    }
  });
}

TEST_P(BinomialSweep, GatherMatchesLinearSemantics) {
  const auto [p, root] = GetParam();
  World world(p, ideal_options());
  world.run([p = p, root = root](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const long mine[2] = {ctx.rank() * 10L, ctx.rank() * 10L + 1};
    std::vector<long> all;
    if (ctx.rank() == root) all.assign(static_cast<std::size_t>(p) * 2, -1);
    comm.gather(mine, sizeof mine, ctx.rank() == root ? all.data() : nullptr,
                root);
    if (ctx.rank() == root) {
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r) * 2], r * 10L);
        EXPECT_EQ(all[static_cast<std::size_t>(r) * 2 + 1], r * 10L + 1);
      }
    }
  });
}

TEST_P(BinomialSweep, ScatterGatherRoundtrip) {
  const auto [p, root] = GetParam();
  World world(p, ideal_options());
  world.run([p = p, root = root](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    std::vector<double> all;
    if (ctx.rank() == root) {
      all.resize(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) all[static_cast<std::size_t>(r)] = r * 1.5;
    }
    double mine = -1.0;
    comm.scatter(ctx.rank() == root ? all.data() : nullptr, sizeof(double),
                 &mine, root);
    mine += 100.0;
    std::vector<double> back;
    if (ctx.rank() == root) back.assign(static_cast<std::size_t>(p), -1.0);
    comm.gather(&mine, sizeof mine,
                ctx.rank() == root ? back.data() : nullptr, root);
    if (ctx.rank() == root) {
      for (int r = 0; r < p; ++r) {
        EXPECT_DOUBLE_EQ(back[static_cast<std::size_t>(r)], r * 1.5 + 100.0);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndRoots, BinomialSweep,
    ::testing::Values(Case{1, 0}, Case{2, 0}, Case{2, 1}, Case{3, 1},
                      Case{4, 0}, Case{5, 4}, Case{7, 3}, Case{8, 0},
                      Case{13, 7}, Case{16, 15}));

TEST(BinomialAlgo, ModeledModeAdvancesTime) {
  World world(8, ideal_options());
  std::vector<double> t(8);
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    comm.scatter(nullptr, 1 << 18, nullptr, 0);
    comm.gather(nullptr, 1 << 18, nullptr, 0);
    t[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  for (const double x : t) EXPECT_GT(x, 0.0);
}

TEST(BinomialAlgo, ConvergesToSameDataAsLinearLargePayload) {
  // Rendezvous-size chunks.
  World world(6, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const std::size_t chunk = 32 * 1024;  // over the eager threshold
    std::vector<std::uint8_t> all;
    if (ctx.rank() == 0) {
      all.resize(6 * chunk);
      for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = static_cast<std::uint8_t>(i * 31);
      }
    }
    std::vector<std::uint8_t> mine(chunk, 0);
    comm.scatter(ctx.rank() == 0 ? all.data() : nullptr, chunk,
                 mine.data(), 0);
    bool ok = true;
    const std::size_t base = static_cast<std::size_t>(ctx.rank()) * chunk;
    for (std::size_t i = 0; i < chunk; ++i) {
      ok = ok && mine[i] == static_cast<std::uint8_t>((base + i) * 31);
    }
    EXPECT_TRUE(ok);
  });
}

}  // namespace
