// Randomized property tests across modules, checked against independent
// reference models. All randomness is seeded (deterministic failures).
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/sections/api.hpp"
#include "mpisim/runtime.hpp"
#include "support/rng.hpp"

namespace {

using namespace mpisect;
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

// --------------------------------------------------------------------------
// Property 1: random balanced nesting sequences — the section runtime must
// agree with a plain reference stack on every operation's outcome.
// --------------------------------------------------------------------------

class NestingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NestingProperty, RuntimeAgreesWithReferenceStack) {
  const std::uint64_t seed = GetParam();
  World world(1, ideal_options());
  sections::SectionRuntime::install(world);
  world.run([seed](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    support::SequentialRng rng(seed);
    std::vector<std::string> reference;  // the model: a simple stack
    const char* labels[4] = {"alpha", "beta", "gamma", "delta"};
    for (int op = 0; op < 400; ++op) {
      const bool do_enter =
          reference.empty() ? true : rng.uniform() < 0.55;
      if (do_enter) {
        const auto* label = labels[rng.next() % 4];
        EXPECT_EQ(sections::MPIX_Section_enter(comm, label),
                  sections::kSectionOk);
        reference.emplace_back(label);
      } else {
        // Half the time exit correctly, half the time attempt a wrong
        // label and verify rejection without state damage.
        if (rng.uniform() < 0.5) {
          EXPECT_EQ(sections::MPIX_Section_exit(comm,
                                                reference.back().c_str()),
                    sections::kSectionOk);
          reference.pop_back();
        } else {
          std::string wrong = reference.back() + "-x";
          EXPECT_EQ(sections::MPIX_Section_exit(comm, wrong.c_str()),
                    sections::kSectionErrNotNested);
        }
      }
    }
    // Drain what's left.
    while (!reference.empty()) {
      EXPECT_EQ(sections::MPIX_Section_exit(comm, reference.back().c_str()),
                sections::kSectionOk);
      reference.pop_back();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestingProperty,
                         ::testing::Values(1u, 17u, 42u, 1234u, 99999u));

// --------------------------------------------------------------------------
// Property 2: random same-(src,dst,tag) traffic — receive order must equal
// send order (non-overtaking), whatever the payload sizes (eager and
// rendezvous mixed).
// --------------------------------------------------------------------------

class OrderingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingProperty, MixedSizeTrafficNeverOvertakes) {
  const std::uint64_t seed = GetParam();
  World world(2, ideal_options());
  world.run([seed](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    support::SequentialRng rng(seed);
    const int n = 60;
    // Pre-generate the same size sequence on both ranks.
    std::vector<std::size_t> sizes;
    for (int i = 0; i < n; ++i) {
      // Mix far below and far above the 16 KiB eager threshold.
      sizes.push_back(rng.uniform() < 0.5
                          ? 16 + (rng.next() % 512)
                          : 32768 + (rng.next() % 4096));
    }
    if (ctx.rank() == 0) {
      for (int i = 0; i < n; ++i) {
        std::vector<std::uint32_t> buf(sizes[static_cast<std::size_t>(i)] /
                                           sizeof(std::uint32_t) +
                                       1);
        buf[0] = static_cast<std::uint32_t>(i);
        comm.send(buf.data(), sizes[static_cast<std::size_t>(i)], 1, 0);
      }
    } else {
      for (int i = 0; i < n; ++i) {
        std::vector<std::uint32_t> buf(sizes[static_cast<std::size_t>(i)] /
                                           sizeof(std::uint32_t) +
                                       1);
        const auto st =
            comm.recv(buf.data(), sizes[static_cast<std::size_t>(i)], 0, 0);
        EXPECT_EQ(st.bytes, sizes[static_cast<std::size_t>(i)]);
        EXPECT_EQ(buf[0], static_cast<std::uint32_t>(i));  // strict order
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingProperty,
                         ::testing::Values(7u, 21u, 333u));

// --------------------------------------------------------------------------
// Property 3: virtual time is monotone along every rank's program order,
// regardless of traffic pattern.
// --------------------------------------------------------------------------

class MonotonicityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonotonicityProperty, ClockNeverGoesBackwards) {
  const std::uint64_t seed = GetParam();
  WorldOptions opts;
  opts.machine = MachineModel::nehalem_cluster();  // jitter active
  opts.seed = seed;
  const int p = 6;
  World world(p, opts);
  std::vector<int> violations(static_cast<std::size_t>(p), 0);
  world.run([&, seed](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    support::SequentialRng rng(seed ^ 0xABCDu);  // same schedule every rank
    double last = ctx.now();
    auto check = [&] {
      if (ctx.now() < last) ++violations[static_cast<std::size_t>(ctx.rank())];
      last = ctx.now();
    };
    for (int i = 0; i < 80; ++i) {
      const double pick = rng.uniform();
      if (pick < 0.3) {
        ctx.compute(1e-4 * rng.uniform());
      } else if (pick < 0.6) {
        const int right = (ctx.rank() + 1) % p;
        const int left = (ctx.rank() - 1 + p) % p;
        comm.sendrecv(nullptr, 2048, right, 1, nullptr, 2048, left, 1);
      } else if (pick < 0.8) {
        comm.barrier();
      } else {
        comm.allreduce_one(1.0, mpisim::ReduceOp::Sum);
      }
      check();
    }
  });
  for (const int v : violations) EXPECT_EQ(v, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityProperty,
                         ::testing::Values(3u, 1337u, 777777u));

// --------------------------------------------------------------------------
// Property 4: collective results are independent of jitter — data and
// timing concerns must not mix.
// --------------------------------------------------------------------------

TEST(AlgorithmIndependence, ScatterGatherDataIdenticalUnderJitter) {
  WorldOptions opts;
  opts.machine = MachineModel::nehalem_cluster();  // heavy jitter
  World world(9, opts);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    std::vector<int> all;
    if (ctx.rank() == 4) {  // non-zero root, too
      all.resize(9 * 5);
      for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = static_cast<int>(i * 3);
      }
    }
    int mine[5] = {};
    comm.scatter(ctx.rank() == 4 ? all.data() : nullptr, sizeof mine, mine,
                 4);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(mine[i], (ctx.rank() * 5 + i) * 3);
    }
  });
}

}  // namespace
