// Point-to-point semantics of MiniMPI: matching, ordering, wildcards,
// truncation, rendezvous vs eager, and virtual-time propagation.
#include <gtest/gtest.h>

#include <vector>

#include "mpisim/runtime.hpp"

namespace {

using namespace mpisect::mpisim;

WorldOptions ideal_options() {
  WorldOptions opts;
  opts.machine = MachineModel::ideal();
  return opts;
}

TEST(P2P, PayloadDelivered) {
  World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const std::vector<int> data{1, 2, 3, 4};
      comm.send(data.data(), data.size() * sizeof(int), 1, 7);
    } else {
      std::vector<int> data(4, 0);
      const Status st = comm.recv(data.data(), data.size() * sizeof(int), 0, 7);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 16u);
      EXPECT_EQ(data[0], 1);
      EXPECT_EQ(data[3], 4);
    }
  });
}

TEST(P2P, NonOvertakingSameSourceSameTag) {
  World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        comm.send(&i, sizeof i, 1, 3);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        comm.recv(&v, sizeof v, 0, 3);
        EXPECT_EQ(v, i);  // program order preserved
      }
    }
  });
}

TEST(P2P, TagSelectsMessage) {
  World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const int a = 100;
      const int b = 200;
      comm.send(&a, sizeof a, 1, 1);
      comm.send(&b, sizeof b, 1, 2);
    } else {
      int v = 0;
      comm.recv(&v, sizeof v, 0, 2);  // request the later tag first
      EXPECT_EQ(v, 200);
      comm.recv(&v, sizeof v, 0, 1);
      EXPECT_EQ(v, 100);
    }
  });
}

TEST(P2P, AnySourceAnyTag) {
  World world(3, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() != 0) {
      const int v = ctx.rank() * 10;
      comm.send(&v, sizeof v, 0, ctx.rank());
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        const Status st = comm.recv(&v, sizeof v, kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 10);
        EXPECT_EQ(st.tag, st.source);
        seen += st.source;
      }
      EXPECT_EQ(seen, 3);  // both senders matched exactly once
    }
  });
}

TEST(P2P, TruncationThrows) {
  World world(2, ideal_options());
  EXPECT_THROW(world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const std::vector<char> big(128, 'x');
      comm.send(big.data(), big.size(), 1, 0);
    } else {
      char small[16];
      comm.recv(small, sizeof small, 0, 0);
    }
  }),
               MpiError);
}

TEST(P2P, ShorterMessageThanBufferIsFine) {
  World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const int v = 5;
      comm.send(&v, sizeof v, 1, 0);
    } else {
      char buf[64] = {};
      const Status st = comm.recv(buf, sizeof buf, 0, 0);
      EXPECT_EQ(st.bytes, sizeof(int));
    }
  });
}

TEST(P2P, ModeledMessagesCarryOnlySize) {
  World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      comm.send(nullptr, 1 << 20, 1, 0);  // 1 MiB modelled
    } else {
      const Status st = comm.recv(nullptr, 1 << 20, 0, 0);
      EXPECT_EQ(st.bytes, static_cast<std::size_t>(1 << 20));
    }
  });
}

TEST(P2P, VirtualTimeAdvancesByTransferCost) {
  WorldOptions opts = ideal_options();
  World world(2, opts);
  // inter-node: ranks 0 and 8 would differ, but world of 2 shares node 0 ->
  // intra link: latency 1us, bw 10 GB/s.
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const std::size_t bytes = 1000;
    if (ctx.rank() == 0) {
      comm.send(nullptr, bytes, 1, 0);
    } else {
      const Status st = comm.recv(nullptr, bytes, 0, 0);
      // Receiver time >= wire latency + bytes/bw.
      EXPECT_GE(st.t_complete, 1e-6 + 1000.0 / 10.0e9);
      EXPECT_LT(st.t_complete, 1e-4);  // and not absurdly large
    }
  });
}

TEST(P2P, ReceiverWaitsForLateSender) {
  World world(2, ideal_options());
  std::vector<double> recv_time(1);
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      ctx.compute_exact(5.0);  // sender is busy for 5 virtual seconds
      comm.send(nullptr, 8, 1, 0);
    } else {
      const Status st = comm.recv(nullptr, 8, 0, 0);
      recv_time[0] = st.t_complete;
    }
  });
  EXPECT_GE(recv_time[0], 5.0);  // delivery can't precede the send
}

TEST(P2P, EagerSenderDoesNotWaitForReceiver) {
  World world(2, ideal_options());
  std::vector<double> sender_done(1);
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      comm.send(nullptr, 64, 1, 0);  // 64B << eager threshold
      sender_done[0] = ctx.now();
    } else {
      ctx.compute_exact(9.0);  // receiver very late
      comm.recv(nullptr, 64, 0, 0);
    }
  });
  EXPECT_LT(sender_done[0], 1.0);  // returned immediately
}

TEST(P2P, RendezvousSenderWaitsForReceiver) {
  World world(2, ideal_options());
  std::vector<double> sender_done(1);
  world.run([&](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const std::size_t big = 1 << 20;  // over the 16 KiB eager threshold
    if (ctx.rank() == 0) {
      comm.send(nullptr, big, 1, 0);
      sender_done[0] = ctx.now();
    } else {
      ctx.compute_exact(9.0);
      comm.recv(nullptr, big, 0, 0);
    }
  });
  EXPECT_GE(sender_done[0], 9.0);  // completion tied to the receive
}

TEST(P2P, SendrecvExchanges) {
  World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const int peer = 1 - ctx.rank();
    const int mine = ctx.rank() + 100;
    int theirs = -1;
    comm.sendrecv(&mine, sizeof mine, peer, 0, &theirs, sizeof theirs, peer,
                  0);
    EXPECT_EQ(theirs, peer + 100);
  });
}

TEST(P2P, SendrecvRingDoesNotDeadlock) {
  const int p = 8;
  World world(p, ideal_options());
  world.run([p](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const int right = (ctx.rank() + 1) % p;
    const int left = (ctx.rank() - 1 + p) % p;
    int in = -1;
    const int out = ctx.rank();
    comm.sendrecv(&out, sizeof out, right, 0, &in, sizeof in, left, 0);
    EXPECT_EQ(in, left);
  });
}

TEST(P2P, IsendIrecvWaitall) {
  World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    const int peer = 1 - ctx.rank();
    std::vector<int> out{ctx.rank() * 2, ctx.rank() * 2 + 1};
    std::vector<int> in(2, -1);
    std::vector<Comm::Request> reqs;
    reqs.push_back(comm.irecv(&in[0], sizeof(int), peer, 0));
    reqs.push_back(comm.irecv(&in[1], sizeof(int), peer, 1));
    reqs.push_back(comm.isend(&out[0], sizeof(int), peer, 0));
    reqs.push_back(comm.isend(&out[1], sizeof(int), peer, 1));
    waitall(reqs);
    EXPECT_EQ(in[0], peer * 2);
    EXPECT_EQ(in[1], peer * 2 + 1);
  });
}

TEST(P2P, RequestWaitIdempotent) {
  World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const int v = 1;
      auto req = comm.isend(&v, sizeof v, 1, 0);
      const Status a = req.wait();
      const Status b = req.wait();
      EXPECT_DOUBLE_EQ(a.t_complete, b.t_complete);
    } else {
      int v = 0;
      auto req = comm.irecv(&v, sizeof v, 0, 0);
      req.wait();
      EXPECT_TRUE(req.test());
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(P2P, ProbeSeesEnvelopeWithoutConsuming) {
  World world(2, ideal_options());
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      const double v = 2.5;
      comm.send(&v, sizeof v, 1, 9);
    } else {
      const Status st = comm.probe(0, 9);
      EXPECT_EQ(st.bytes, sizeof(double));
      EXPECT_EQ(st.source, 0);
      double v = 0.0;
      comm.recv(&v, sizeof v, 0, 9);  // still receivable
      EXPECT_DOUBLE_EQ(v, 2.5);
    }
  });
}

TEST(P2P, SendSeqCountsPerDestinationAcrossWideFanOut) {
  // A linear scatter root sends to p-1 ranks; the counters must stay exact
  // when the sparse table outgrows its linear probe.
  constexpr int kDestinations = 1000;
  CommImpl::SendSeq seq;
  for (int pass = 0; pass < 2; ++pass) {
    for (int dst = 0; dst < kDestinations; ++dst) {
      EXPECT_EQ(seq[dst]++, static_cast<std::uint64_t>(pass)) << dst;
    }
  }
  EXPECT_EQ(seq.destinations(), static_cast<std::size_t>(kDestinations));
}

TEST(P2P, InvalidArgumentsThrow) {
  World world(2, ideal_options());
  EXPECT_THROW(world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    comm.send(nullptr, 0, 99, 0);  // no such rank
  }),
               MpiError);
  World world2(2, ideal_options());
  EXPECT_THROW(world2.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    comm.send(nullptr, 0, 0, kInternalTagBase + 5);  // reserved tag
  }),
               MpiError);
}

class P2PSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(P2PSizeSweep, RoundtripAnySize) {
  const std::size_t bytes = GetParam();
  World world(2, ideal_options());
  world.run([bytes](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    if (ctx.rank() == 0) {
      std::vector<std::uint8_t> data(bytes);
      for (std::size_t i = 0; i < bytes; ++i) {
        data[i] = static_cast<std::uint8_t>(i * 13);
      }
      comm.send(data.data(), bytes, 1, 0);
    } else {
      std::vector<std::uint8_t> data(bytes, 0);
      const Status st = comm.recv(data.data(), bytes, 0, 0);
      EXPECT_EQ(st.bytes, bytes);
      bool ok = true;
      for (std::size_t i = 0; i < bytes; ++i) {
        ok = ok && data[i] == static_cast<std::uint8_t>(i * 13);
      }
      EXPECT_TRUE(ok);
    }
  });
}

// Sizes straddle the eager/rendezvous threshold (16 KiB).
INSTANTIATE_TEST_SUITE_P(Sizes, P2PSizeSweep,
                         ::testing::Values(0u, 1u, 128u, 16383u, 16384u,
                                           16385u, 1u << 18));

}  // namespace
