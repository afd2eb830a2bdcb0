// Exhaustive hook-coverage test: every MpiCall value fires a begin and an
// end notification carrying a correct CallInfo, and the comm-lifecycle and
// pcontrol hooks fire where expected. This is the contract correctness
// tools (src/checker) build on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <mutex>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"

namespace {

using namespace mpisect::mpisim;

WorldOptions ideal_options() {
  WorldOptions opts;
  opts.machine = MachineModel::ideal();
  return opts;
}

struct Recorder final : hooks::Tool {
  std::mutex mu;
  std::vector<std::pair<int, CallInfo>> begins;  ///< (world rank, info)
  std::vector<std::pair<int, CallInfo>> ends;
  std::vector<std::pair<int, CommLifecycle>> comm_creates;
  std::vector<std::pair<int, int>> comm_frees;  ///< (world rank, context)
  std::vector<std::pair<int, int>> pcontrols;   ///< (world rank, level)

  void install(World& world) { world.tool_stack().attach(this, 10); }

  void on_call_begin(Ctx& ctx, const CallInfo& info) override {
    const std::lock_guard lock(mu);
    begins.emplace_back(ctx.rank(), info);
  }
  void on_call_end(Ctx& ctx, const CallInfo& info) override {
    const std::lock_guard lock(mu);
    ends.emplace_back(ctx.rank(), info);
  }
  void on_comm_create(Ctx& ctx, const CommLifecycle& info) override {
    const std::lock_guard lock(mu);
    CommLifecycle copy = info;
    copy.world_ranks = nullptr;  // borrowed; not valid after the callback
    comm_creates.emplace_back(ctx.rank(), copy);
  }
  void on_comm_free(Ctx& ctx, int context) override {
    const std::lock_guard lock(mu);
    comm_frees.emplace_back(ctx.rank(), context);
  }
  void on_pcontrol(Ctx& ctx, int level, const char*) override {
    const std::lock_guard lock(mu);
    pcontrols.emplace_back(ctx.rank(), level);
  }

  std::vector<CallInfo> begins_of(int rank, MpiCall call) {
    const std::lock_guard lock(mu);
    std::vector<CallInfo> out;
    for (const auto& [r, info] : begins) {
      if (r == rank && info.call == call) out.push_back(info);
    }
    return out;
  }
  std::size_t count(const std::vector<std::pair<int, CallInfo>>& v,
                    MpiCall call) {
    const std::lock_guard lock(mu);
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(),
                      [call](const auto& e) { return e.second.call == call; }));
  }
};

/// Drive every MpiCall at least once on a 4-rank world.
void exercise_every_call(Ctx& ctx) {
  Comm world = ctx.world_comm();
  const int r = world.rank();
  const int n = world.size();
  std::array<char, 64> buf{};

  // Send / Recv / Probe: 0 -> 1 (probed first), 2 -> 3.
  if (r == 0) world.send(buf.data(), 8, 1, /*tag=*/1);
  if (r == 1) {
    world.probe(0, 1);
    world.recv(buf.data(), 8, 0, 1);
  }
  if (r == 2) world.send(buf.data(), 8, 3, 1);
  if (r == 3) world.recv(buf.data(), 8, 2, 1);

  // Isend / Irecv / Wait in a ring.
  auto sreq = world.isend(buf.data(), 16, (r + 1) % n, /*tag=*/2);
  auto rreq = world.irecv(buf.data(), 16, (r + n - 1) % n, 2);
  rreq.wait();
  sreq.wait();

  // Sendrecv ring.
  world.sendrecv(buf.data(), 4, (r + 1) % n, /*tag=*/3, buf.data(), 4,
                 (r + n - 1) % n, 3);

  // Every collective.
  world.barrier();
  world.bcast(buf.data(), 32, /*root=*/0);
  double v = 1.0;
  double acc = 0.0;
  world.reduce(&v, &acc, 1, datatype_of<double>, ReduceOp::Sum, 0);
  world.allreduce(&v, &acc, 1, datatype_of<double>, ReduceOp::Sum);
  std::array<char, 16> chunk{};
  world.scatter(buf.data(), 4, chunk.data(), 0);
  const std::array<std::size_t, 4> counts{4, 4, 4, 4};
  const std::array<std::size_t, 4> displs{0, 4, 8, 12};
  world.scatterv(buf.data(), counts, displs, chunk.data(), 4, 0);
  world.gather(chunk.data(), 4, buf.data(), 0);
  world.gatherv(chunk.data(), 4, buf.data(), counts, displs, 0);
  world.allgather(chunk.data(), 4, buf.data());
  world.alltoall(chunk.data(), 4, buf.data());

  // Nonblocking collectives + a completion poll (test may observe either
  // state; both fire the Test begin/end pair).
  auto nbc = world.iallreduce(&v, &acc, 1, datatype_of<double>,
                              ReduceOp::Sum);
  (void)nbc.test();
  nbc.wait();
  auto nbb = world.ibarrier();
  nbb.wait();

  // Comm management: split into pairs, dup, free both.
  Comm half = world.split(r % 2, r);
  Comm copy = world.dup();
  half.free();
  copy.free();

  // Pcontrol.
  ctx.pcontrol(1, "phase");
}

TEST(HookCoverage, EveryMpiCallFiresBeginAndEnd) {
  World world(4, ideal_options());
  Recorder rec;
  rec.install(world);
  world.run(exercise_every_call);

  for (int c = 0; c < kMpiCallCount; ++c) {
    const auto call = static_cast<MpiCall>(c);
    EXPECT_GT(rec.count(rec.begins, call), 0u)
        << "no begin event for " << mpi_call_name(call);
    EXPECT_EQ(rec.count(rec.begins, call), rec.count(rec.ends, call))
        << "unbalanced begin/end for " << mpi_call_name(call);
  }
}

TEST(HookCoverage, CallInfoFieldsAreAccurate) {
  World world(4, ideal_options());
  Recorder rec;
  rec.install(world);
  world.run(exercise_every_call);

  // Send 0->1: peer, tag, bytes, communicator.
  const auto sends = rec.begins_of(0, MpiCall::Send);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].peer, 1);
  EXPECT_EQ(sends[0].tag, 1);
  EXPECT_EQ(sends[0].bytes, 8u);
  EXPECT_EQ(sends[0].comm_size, 4);
  EXPECT_EQ(sends[0].rank, 0);

  // Isend carries a nonzero per-rank request id; the Wait that completes
  // it repeats the id.
  const auto isends = rec.begins_of(2, MpiCall::Isend);
  const auto irecvs = rec.begins_of(2, MpiCall::Irecv);
  ASSERT_EQ(isends.size(), 1u);
  ASSERT_EQ(irecvs.size(), 1u);
  EXPECT_NE(isends[0].request, 0u);
  EXPECT_NE(irecvs[0].request, 0u);
  EXPECT_NE(isends[0].request, irecvs[0].request);
  // Four waits: isend, irecv, iallreduce, ibarrier completions.
  const auto waits = rec.begins_of(2, MpiCall::Wait);
  ASSERT_EQ(waits.size(), 4u);
  std::vector<std::uint64_t> wait_ids;
  for (const auto& w : waits) wait_ids.push_back(w.request);
  std::sort(wait_ids.begin(), wait_ids.end());
  for (const std::uint64_t id : {isends[0].request, irecvs[0].request}) {
    EXPECT_TRUE(std::binary_search(wait_ids.begin(), wait_ids.end(), id))
        << "no Wait carried request id " << id;
  }

  // Rooted collective: peer names the root, bytes the payload.
  const auto bcasts = rec.begins_of(3, MpiCall::Bcast);
  ASSERT_EQ(bcasts.size(), 1u);
  EXPECT_EQ(bcasts[0].peer, 0);
  EXPECT_EQ(bcasts[0].bytes, 32u);

  // Init and Finalize bracket the run on every rank.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(rec.begins_of(r, MpiCall::Init).size(), 1u);
    EXPECT_EQ(rec.begins_of(r, MpiCall::Finalize).size(), 1u);
  }

  // Pcontrol surfaces both as a generic call and as the dedicated hook.
  EXPECT_EQ(rec.begins_of(1, MpiCall::Pcontrol).size(), 1u);
  {
    const std::lock_guard lock(rec.mu);
    EXPECT_EQ(rec.pcontrols.size(), 4u);
    for (const auto& [rank, level] : rec.pcontrols) EXPECT_EQ(level, 1);
  }
}

TEST(HookCoverage, CommLifecycleEventsFire) {
  World world(4, ideal_options());
  Recorder rec;
  rec.install(world);
  world.run(exercise_every_call);

  const std::lock_guard lock(rec.mu);
  // World creation: one create per rank with parent -1. split + dup: one
  // create per rank each with the world as parent.
  std::map<int, int> creates_per_parent;
  for (const auto& [rank, info] : rec.comm_creates) {
    (void)rank;
    ++creates_per_parent[info.parent_context];
  }
  EXPECT_EQ(creates_per_parent[-1], 4);
  int derived = 0;
  for (const auto& [parent, count] : creates_per_parent) {
    if (parent >= 0) derived += count;
  }
  EXPECT_EQ(derived, 8);  // split + dup on every rank
  // Both derived communicators are freed on every rank.
  EXPECT_EQ(rec.comm_frees.size(), 8u);
}

}  // namespace
