// mpicheck deadlock detection: wait-for cycles and orphaned waits are
// reported with the right ranks and the world is aborted; deadlock-free
// communication patterns produce no findings.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "checker/checker.hpp"
#include "checker/report.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"

namespace {

using namespace mpisect;
using checker::Category;
using checker::MpiChecker;
using mpisim::Comm;
using mpisim::Ctx;
using mpisim::Err;
using mpisim::MachineModel;
using mpisim::MpiError;
using mpisim::World;
using mpisim::WorldOptions;

WorldOptions ideal_options() {
  WorldOptions opts;
  opts.machine = MachineModel::ideal();
  return opts;
}

TEST(CheckerDeadlock, CrossReceiveCycleIsReportedAndAborted) {
  World world(2, ideal_options());
  auto check = MpiChecker::install(world);

  bool aborted = false;
  try {
    world.run([](Ctx& ctx) {
      Comm world_comm = ctx.world_comm();
      std::array<char, 4> buf{};
      // Head-to-head receives: the classic deadlock.
      world_comm.recv(buf.data(), buf.size(), 1 - world_comm.rank(), 0);
    });
  } catch (const MpiError& err) {
    aborted = err.code() == Err::Aborted;
  }
  EXPECT_TRUE(aborted) << "the checker should abort a deadlocked world";
  EXPECT_TRUE(check->deadlock_reported());

  check->analyze();
  const auto diags = check->diagnostics();
  ASSERT_EQ(check->sink().count(Category::Deadlock), 1u);
  const auto& d = diags.front();
  EXPECT_EQ(d.category, Category::Deadlock);
  EXPECT_EQ(d.rank, 0);  // cycles are reported from their smallest rank
  EXPECT_NE(d.message.find("0->1->0"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("MPI_Recv"), std::string::npos) << d.message;
}

TEST(CheckerDeadlock, OrphanedWaitOnFinishedRankIsReported) {
  World world(2, ideal_options());
  auto check = MpiChecker::install(world);

  bool aborted = false;
  try {
    world.run([](Ctx& ctx) {
      Comm world_comm = ctx.world_comm();
      if (world_comm.rank() == 0) {
        std::array<char, 4> buf{};
        world_comm.recv(buf.data(), buf.size(), 1, /*tag=*/5);
      }
      // Rank 1 finishes immediately: rank 0's receive can never complete.
    });
  } catch (const MpiError& err) {
    aborted = err.code() == Err::Aborted;
  }
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(check->deadlock_reported());

  bool found = false;
  for (const auto& d : check->diagnostics()) {
    if (d.category == Category::Deadlock && d.rank == 0 &&
        d.message.find("MPI_Finalize") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CheckerDeadlock, CollectiveVsReceiveCycleIsReported) {
  World world(2, ideal_options());
  auto check = MpiChecker::install(world);

  try {
    world.run([](Ctx& ctx) {
      Comm world_comm = ctx.world_comm();
      if (world_comm.rank() == 0) {
        std::array<char, 4> buf{};
        world_comm.recv(buf.data(), buf.size(), 1, 0);  // never sent
      } else {
        world_comm.barrier();  // rank 0 never arrives
      }
    });
  } catch (const MpiError&) {
  }
  EXPECT_TRUE(check->deadlock_reported());
  EXPECT_GE(check->sink().count(Category::Deadlock), 1u);
}

TEST(CheckerDeadlock, CleanExchangePatternHasNoFindings) {
  World world(4, ideal_options());
  auto check = MpiChecker::install(world);

  world.run([](Ctx& ctx) {
    Comm world_comm = ctx.world_comm();
    const int r = world_comm.rank();
    const int n = world_comm.size();
    std::array<char, 16> buf{};
    for (int step = 0; step < 3; ++step) {
      world_comm.sendrecv(buf.data(), buf.size(), (r + 1) % n, 0, buf.data(),
                          buf.size(), (r + n - 1) % n, 0);
      world_comm.barrier();
      world_comm.bcast(buf.data(), buf.size(), 0);
    }
  });

  EXPECT_FALSE(check->deadlock_reported());
  check->analyze();
  EXPECT_EQ(check->sink().count(), 0u)
      << checker::render_text(check->diagnostics());
}

}  // namespace
