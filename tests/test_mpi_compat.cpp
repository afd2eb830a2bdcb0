// The C-style MPI facade: textbook signatures, status handling, error
// codes, MPI_PROC_NULL, and the paper's MPIX_Section calls spelled as in
// Figure 1.
#include <gtest/gtest.h>

#include <vector>

#include "core/compat/mpi_compat.hpp"
#include "core/sections/runtime.hpp"
#include "lambda_tool.hpp"

namespace {

using namespace mpisect;
using namespace mpisect::mpix;
using mpisim::Ctx;

mpisim::WorldOptions ideal_options() {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::ideal();
  return opts;
}

TEST(Compat, RankSizeWtime) {
  mpisim::World world(3, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    int rank = -1;
    int size = -1;
    EXPECT_EQ(MPI_Comm_rank(comm, &rank), MPI_SUCCESS);
    EXPECT_EQ(MPI_Comm_size(comm, &size), MPI_SUCCESS);
    EXPECT_EQ(rank, ctx.rank());
    EXPECT_EQ(size, 3);
    EXPECT_GE(MPI_Wtime(comm), 0.0);
  });
}

TEST(Compat, SendRecvWithStatusAndGetCount) {
  mpisim::World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const double payload[3] = {1.0, 2.0, 3.0};
      EXPECT_EQ(MPI_Send(payload, 3, MPI_DOUBLE, 1, 5, comm), MPI_SUCCESS);
    } else {
      double payload[8] = {};
      MPI_Status status;
      EXPECT_EQ(MPI_Recv(payload, 8, MPI_DOUBLE, MPI_ANY_SOURCE, MPI_ANY_TAG,
                         comm, &status),
                MPI_SUCCESS);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 5);
      int count = -1;
      EXPECT_EQ(MPI_Get_count(&status, MPI_DOUBLE, &count), MPI_SUCCESS);
      EXPECT_EQ(count, 3);
      EXPECT_DOUBLE_EQ(payload[2], 3.0);
    }
  });
}

TEST(Compat, ProcNullIsNoop) {
  mpisim::World world(1, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    const int v = 7;
    EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, MPI_PROC_NULL, 0, comm), MPI_SUCCESS);
    int r = -1;
    MPI_Status st;
    EXPECT_EQ(MPI_Recv(&r, 1, MPI_INT, MPI_PROC_NULL, 0, comm, &st),
              MPI_SUCCESS);
    EXPECT_EQ(r, -1);  // untouched
    EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);
  });
}

TEST(Compat, ErrorsReturnCodesInsteadOfThrowing) {
  mpisim::World world(1, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    const int v = 1;
    // Invalid destination: MPI_ERR_RANK-equivalent code, no exception.
    EXPECT_NE(MPI_Send(&v, 1, MPI_INT, 99, 0, comm), MPI_SUCCESS);
    EXPECT_NE(MPI_Comm_rank(comm, nullptr), MPI_SUCCESS);
  });
}

TEST(Compat, NonblockingAndWaitall) {
  mpisim::World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    const int peer = 1 - ctx.rank();
    int out[2] = {ctx.rank() * 2, ctx.rank() * 2 + 1};
    int in[2] = {-1, -1};
    MPI_Request reqs[4];
    ASSERT_EQ(MPI_Irecv(&in[0], 1, MPI_INT, peer, 0, comm, &reqs[0]),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Irecv(&in[1], 1, MPI_INT, peer, 1, comm, &reqs[1]),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Isend(&out[0], 1, MPI_INT, peer, 0, comm, &reqs[2]),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Isend(&out[1], 1, MPI_INT, peer, 1, comm, &reqs[3]),
              MPI_SUCCESS);
    MPI_Status statuses[4];
    ASSERT_EQ(MPI_Waitall(4, reqs, statuses), MPI_SUCCESS);
    EXPECT_EQ(in[0], peer * 2);
    EXPECT_EQ(in[1], peer * 2 + 1);
    EXPECT_EQ(statuses[0].MPI_SOURCE, peer);
  });
}

TEST(Compat, CollectivesAndSplit) {
  mpisim::World world(4, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    double v = ctx.rank() + 1.0;
    double sum = 0.0;
    EXPECT_EQ(MPI_Allreduce(&v, &sum, 1, MPI_DOUBLE, MPI_SUM, comm),
              MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(sum, 10.0);

    int data[4] = {};
    if (ctx.rank() == 0) {
      for (int i = 0; i < 4; ++i) data[i] = i * 11;
    }
    int mine = -1;
    EXPECT_EQ(MPI_Scatter(data, 1, MPI_INT, &mine, 1, MPI_INT, 0, comm),
              MPI_SUCCESS);
    EXPECT_EQ(mine, ctx.rank() * 11);

    int gathered[4] = {};
    EXPECT_EQ(MPI_Gather(&mine, 1, MPI_INT,
                         ctx.rank() == 0 ? gathered : nullptr, 1, MPI_INT, 0,
                         comm),
              MPI_SUCCESS);
    if (ctx.rank() == 0) {
      EXPECT_EQ(gathered[3], 33);
    }

    MPI_Comm half;
    EXPECT_EQ(MPI_Comm_split(comm, ctx.rank() % 2, ctx.rank(), &half),
              MPI_SUCCESS);
    int hsize = 0;
    MPI_Comm_size(half, &hsize);
    EXPECT_EQ(hsize, 2);
    EXPECT_EQ(MPI_Barrier(half), MPI_SUCCESS);
  });
}

TEST(Compat, MismatchedExtentsRejected) {
  mpisim::World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    int send[3] = {};
    double recv[1] = {};
    // 3 ints (12 B) != 1 double (8 B) per rank: extents differ.
    EXPECT_NE(MPI_Scatter(send, 3, MPI_INT, recv, 1, MPI_DOUBLE, 0, comm),
              MPI_SUCCESS);
    // Matching extents (1 double == 2 ints in bytes) are fine, even with
    // mixed nominal datatypes.
    EXPECT_EQ(MPI_Allgather(send, 2, MPI_INT, nullptr, 1, MPI_DOUBLE, comm),
              MPI_SUCCESS);
  });
}

TEST(Compat, PaperFigureOneTranscription) {
  // The paper's Figure 1 usage, almost verbatim.
  mpisim::World world(4, ideal_options());
  auto rt = sections::SectionRuntime::install(world);
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    EXPECT_EQ(MPIX_Section_enter(comm, "HALO"), MPI_SUCCESS);
    MPI_Barrier(comm);
    EXPECT_EQ(MPIX_Section_exit(comm, "HALO"), MPI_SUCCESS);
  });
  EXPECT_EQ(rt->counters().errors, 0u);
}

TEST(Compat, ReduceLandsOnTheRootOnly) {
  mpisim::World world(4, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    const int mine = ctx.rank() + 1;
    int sum = -1;
    EXPECT_EQ(MPI_Reduce(&mine, &sum, 1, MPI_INT, MPI_SUM, 2, comm),
              MPI_SUCCESS);
    EXPECT_EQ(sum, ctx.rank() == 2 ? 10 : -1);
  });
}

TEST(Compat, AlltoallTransposesBlocks) {
  mpisim::World world(3, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    std::vector<int> out(3);
    std::vector<int> in(3, -1);
    for (int dst = 0; dst < 3; ++dst) {
      out[static_cast<std::size_t>(dst)] = 10 * ctx.rank() + dst;
    }
    EXPECT_EQ(MPI_Alltoall(out.data(), 1, MPI_INT, in.data(), 1, MPI_INT,
                           comm),
              MPI_SUCCESS);
    for (int src = 0; src < 3; ++src) {
      EXPECT_EQ(in[static_cast<std::size_t>(src)], 10 * src + ctx.rank());
    }
  });
}

TEST(Compat, CommDupIsolatesTraffic) {
  mpisim::World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    MPI_Comm dup;
    ASSERT_EQ(MPI_Comm_dup(comm, &dup), MPI_SUCCESS);
    EXPECT_NE(dup.context_id(), comm.context_id());
    int size = 0;
    EXPECT_EQ(MPI_Comm_size(dup, &size), MPI_SUCCESS);
    EXPECT_EQ(size, 2);
    // The same tag on both communicators: each receive matches its own.
    const int peer = 1 - ctx.rank();
    int on_world = ctx.rank();
    int on_dup = 100 + ctx.rank();
    int got_world = -1;
    int got_dup = -1;
    EXPECT_EQ(MPI_Sendrecv(&on_dup, 1, MPI_INT, peer, 7, &got_dup, 1, MPI_INT,
                           peer, 7, dup, MPI_STATUS_IGNORE),
              MPI_SUCCESS);
    EXPECT_EQ(MPI_Sendrecv(&on_world, 1, MPI_INT, peer, 7, &got_world, 1,
                           MPI_INT, peer, 7, comm, MPI_STATUS_IGNORE),
              MPI_SUCCESS);
    EXPECT_EQ(got_dup, 100 + peer);
    EXPECT_EQ(got_world, peer);
  });
}

TEST(Compat, WaitFillsTheStatus) {
  mpisim::World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    MPI_Request req;
    if (ctx.rank() == 0) {
      const double v[2] = {1.5, 2.5};
      ASSERT_EQ(MPI_Isend(v, 2, MPI_DOUBLE, 1, 3, comm, &req), MPI_SUCCESS);
      EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    } else {
      double v[4] = {};
      ASSERT_EQ(MPI_Irecv(v, 4, MPI_DOUBLE, MPI_ANY_SOURCE, MPI_ANY_TAG, comm,
                          &req),
                MPI_SUCCESS);
      MPI_Status status;
      EXPECT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 3);
      int count = -1;
      EXPECT_EQ(MPI_Get_count(&status, MPI_DOUBLE, &count), MPI_SUCCESS);
      EXPECT_EQ(count, 2);
      EXPECT_DOUBLE_EQ(v[1], 2.5);
    }
  });
}

TEST(Compat, ProbeSizesTheReceive) {
  mpisim::World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const std::vector<int> v{4, 5, 6, 7, 8};
      EXPECT_EQ(MPI_Send(v.data(), 5, MPI_INT, 1, 9, comm), MPI_SUCCESS);
    } else {
      MPI_Status status;
      ASSERT_EQ(MPI_Probe(MPI_ANY_SOURCE, MPI_ANY_TAG, comm, &status),
                MPI_SUCCESS);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 9);
      int count = -1;
      ASSERT_EQ(MPI_Get_count(&status, MPI_INT, &count), MPI_SUCCESS);
      ASSERT_EQ(count, 5);
      std::vector<int> v(static_cast<std::size_t>(count));
      EXPECT_EQ(MPI_Recv(v.data(), count, MPI_INT, status.MPI_SOURCE,
                         status.MPI_TAG, comm, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(v.back(), 8);
    }
  });
}

TEST(Compat, PcontrolRoutedToHook) {
  mpisim::World world(1, ideal_options());
  int calls = 0;
  testutil::LambdaTool tool(world);
  tool.pcontrol = [&](Ctx&, int, const char*) { ++calls; };
  world.run([](Ctx& ctx) {
    MPI_Comm comm = ctx.world_comm();
    MPI_Pcontrol(comm, 1, "phase");
    MPI_Pcontrol(comm, -1, "phase");
  });
  EXPECT_EQ(calls, 2);
}

}  // namespace
