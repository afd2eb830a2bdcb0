// Asynchronous-progress engine coverage: spec parsing, blocking-only
// bit-compatibility across backends, the test()-loop regression (a poll
// loop must not starve its peer under a cooperative scheduler), waitall
// index-order independence under progress engines, nonblocking-collective
// correctness and overlap, the checker's test-loop livelock classification,
// and the v4 trace / replay / fold plumbing that carries the model.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "checker/checker.hpp"
#include "checker/report.hpp"
#include "codec/mpstz.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/progress.hpp"
#include "mpisim/runtime.hpp"
#include "serve/queries.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "trace/report.hpp"

#include "thread_executor.hpp"

namespace {

using namespace mpisect;
using mpisim::Comm;
using mpisim::Ctx;
using mpisim::MachineModel;
using mpisim::MpiError;
using mpisim::ProgressMode;
using mpisim::ProgressModel;
using mpisim::World;
using mpisim::WorldOptions;

/// workers: fiber-scheduler workers, or testutil::kThreadPerRank.
WorldOptions nehalem_options(int workers = 0, ProgressModel progress = {}) {
  WorldOptions opts;
  opts.machine = MachineModel::nehalem_cluster();
  testutil::set_workers(opts, workers);
  opts.progress = progress;
  return opts;
}

std::vector<double> convolution_finals(const WorldOptions& opts, int ranks,
                                       int steps) {
  World world(ranks, opts);
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  return world.final_times();
}

// ---------------------------------------------------------------- spec ---

TEST(ProgressSpec, ParseRoundTripsEveryPreset) {
  for (const std::string spec :
       {"blocking-only", "opportunistic", "progress-thread"}) {
    const ProgressModel m = ProgressModel::parse(spec);
    EXPECT_EQ(m.name(), spec);
    EXPECT_EQ(ProgressModel::parse(m.spec()), m) << m.spec();
  }
  const ProgressModel opp = ProgressModel::parse("opportunistic:entry=1e-7");
  EXPECT_EQ(opp.mode, ProgressMode::Opportunistic);
  EXPECT_DOUBLE_EQ(opp.entry_overhead, 1e-7);
  EXPECT_EQ(ProgressModel::parse(opp.spec()), opp);

  const ProgressModel pt =
      ProgressModel::parse("progress-thread:tax=0.1,lat=1e-6");
  EXPECT_EQ(pt.mode, ProgressMode::ProgressThread);
  EXPECT_DOUBLE_EQ(pt.core_tax, 0.1);
  EXPECT_DOUBLE_EQ(pt.thread_latency, 1e-6);
  EXPECT_EQ(ProgressModel::parse(pt.spec()), pt);
}

TEST(ProgressSpec, ParseRejectsGarbage) {
  EXPECT_THROW((void)ProgressModel::parse("eager"), MpiError);
  EXPECT_THROW((void)ProgressModel::parse("opportunistic:zap=1"), MpiError);
  EXPECT_THROW((void)ProgressModel::parse("progress-thread:tax=bogus"),
               MpiError);
  EXPECT_THROW((void)ProgressModel::parse("blocking-only:entry=1"), MpiError);
}

TEST(ProgressSpec, SweepCsvCarriesProgressColumn) {
  EXPECT_NE(trace::sweep_csv_header().find(",drop_rate,progress,makespan"),
            std::string::npos)
      << trace::sweep_csv_header();
}

// --------------------------------------------------------- bit compat ---

TEST(ProgressBitCompat, BlockingOnlyIdenticalAcrossBackendsAndWorkers) {
  const std::vector<double> base = convolution_finals(nehalem_options(1), 8, 6);
  const std::vector<double> pooled =
      convolution_finals(nehalem_options(4), 8, 6);
  const std::vector<double> threads =
      convolution_finals(nehalem_options(testutil::kThreadPerRank), 8, 6);
  EXPECT_EQ(base, pooled);
  EXPECT_EQ(base, threads);
  // Passing the default model explicitly changes nothing either.
  const std::vector<double> explicit_model = convolution_finals(
      nehalem_options(4, ProgressModel::parse("blocking-only")), 8, 6);
  EXPECT_EQ(base, explicit_model);
}

/// A small SPMD body mixing point-to-point, a test() poll, and both
/// nonblocking collectives — the surface the progress engines touch.
void progress_mix(Ctx& ctx) {
  Comm world = ctx.world_comm();
  const int r = world.rank();
  const int n = world.size();
  std::vector<char> big(64 * 1024, static_cast<char>(r));
  std::vector<char> in(big.size());
  auto sreq = world.isend(big.data(), big.size(), (r + 1) % n, 3);
  auto rreq = world.irecv(in.data(), in.size(), (r + n - 1) % n, 3);
  ctx.compute(2e-5 * (r + 1));
  double v = r + 1.0;
  double acc = 0.0;
  auto nbc = world.iallreduce(&v, &acc, 1, mpisim::datatype_of<double>,
                              mpisim::ReduceOp::Sum);
  (void)nbc.test();
  ctx.compute(5e-5);
  nbc.wait();
  std::array<Comm::Request, 2> reqs{std::move(sreq), std::move(rreq)};
  mpisim::waitall(reqs);
  auto nbb = world.ibarrier();
  while (!nbb.test()) {
  }
}

TEST(ProgressBitCompat, EveryModelDeterministicAcrossBackends) {
  for (const std::string spec :
       {"blocking-only", "opportunistic", "progress-thread"}) {
    const ProgressModel pm = ProgressModel::parse(spec);
    std::array<std::vector<double>, 3> finals;
    int i = 0;
    for (const WorldOptions& opts :
         {nehalem_options(1, pm),
          nehalem_options(4, pm),
          nehalem_options(testutil::kThreadPerRank, pm)}) {
      World world(4, opts);
      world.run(progress_mix);
      finals[static_cast<std::size_t>(i++)] = world.final_times();
    }
    EXPECT_EQ(finals[0], finals[1]) << spec;
    EXPECT_EQ(finals[0], finals[2]) << spec;
  }
}

// ---------------------------------------------- the test() regression ---

// The historical bug: a cooperative-backend test() loop spun forever
// because polling never yielded the worker to the rank that would complete
// the request. The fix yields per failed poll and parks past a spin
// budget, so the loop completes in a bounded number of polls even with a
// single worker — and the peer only ever *posts* the receive; it does not
// have to be blocking for the sender's poll to succeed.
TEST(ProgressRegression, TestLoopOnRendezvousSendCompletesWithOneWorker) {
  for (const std::string spec :
       {"blocking-only", "opportunistic", "progress-thread"}) {
    WorldOptions opts = nehalem_options(1, ProgressModel::parse(spec));
    World world(2, opts);
    std::atomic<int> spins{0};
    world.run([&spins](Ctx& ctx) {
      Comm world_comm = ctx.world_comm();
      std::vector<char> buf(64 * 1024);  // > eager threshold: rendezvous
      if (world_comm.rank() == 0) {
        auto req = world_comm.isend(buf.data(), buf.size(), 1, 1);
        int n = 0;
        while (!req.test()) ++n;
        spins.store(n);
      } else {
        auto req = world_comm.irecv(buf.data(), buf.size(), 0, 1);
        ctx.compute(1e-3);  // peer stays busy, never blocks before the wait
        req.wait();
      }
    });
    // Spin budget (64) + a handful of post-park polls, not unbounded.
    EXPECT_LT(spins.load(), 1000) << spec;
  }
}

// Under a progress engine waitall completes receives before rendezvous
// sends, so the request index order cannot change charged time; the
// blocking-only default keeps the historical strict index-order loop.
TEST(ProgressRegression, WaitallOrderIndependentUnderProgressEngines) {
  const auto run_order = [](const ProgressModel& pm, bool send_first) {
    World world(2, nehalem_options(0, pm));
    world.run([send_first](Ctx& ctx) {
      Comm world_comm = ctx.world_comm();
      std::vector<char> big(64 * 1024);
      char small = 0;
      if (world_comm.rank() == 0) {
        auto sreq = world_comm.isend(big.data(), big.size(), 1, 1);
        auto rreq = world_comm.irecv(&small, 1, 1, 2);
        std::array<Comm::Request, 2> reqs =
            send_first
                ? std::array<Comm::Request, 2>{std::move(sreq),
                                               std::move(rreq)}
                : std::array<Comm::Request, 2>{std::move(rreq),
                                               std::move(sreq)};
        mpisim::waitall(reqs);
      } else {
        world_comm.send(&small, 1, 0, 2);  // eager: completes early
        ctx.compute(1e-3);                 // rendezvous recv happens late
        world_comm.recv(big.data(), big.size(), 0, 1);
      }
    });
    return world.final_times();
  };
  for (const std::string spec : {"opportunistic", "progress-thread"}) {
    const ProgressModel pm = ProgressModel::parse(spec);
    EXPECT_EQ(run_order(pm, true), run_order(pm, false)) << spec;
  }
}

// ------------------------------------------------- NBC and overlap ---

void nbc_overlap_body(Ctx& ctx, std::vector<double>* sums) {
  Comm world = ctx.world_comm();
  double v = world.rank() + 1.0;
  double acc = 0.0;
  auto req = world.iallreduce(&v, &acc, 1, mpisim::datatype_of<double>,
                              mpisim::ReduceOp::Sum);
  ctx.compute(1e-3);  // background algorithm hides under this
  req.wait();
  (*sums)[static_cast<std::size_t>(world.rank())] = acc;
}

TEST(ProgressOverlap, IallreduceReducesCorrectlyUnderEveryModel) {
  for (const std::string spec :
       {"blocking-only", "opportunistic", "progress-thread"}) {
    WorldOptions opts;
    opts.machine = MachineModel::ideal();
    opts.progress = ProgressModel::parse(spec);
    World world(4, opts);
    std::vector<double> sums(4, 0.0);
    world.run([&sums](Ctx& ctx) { nbc_overlap_body(ctx, &sums); });
    for (const double s : sums) EXPECT_DOUBLE_EQ(s, 1.0 + 2 + 3 + 4) << spec;
  }
}

// Overlap charging: blocking-only serializes the collective's algorithm
// after the wait fence; an asynchronous engine runs it in the background,
// so a compute phase longer than the algorithm absorbs it entirely.
TEST(ProgressOverlap, AsyncModelsHideAlgorithmBehindCompute) {
  const auto makespan_under = [](const std::string& spec) {
    WorldOptions opts;
    opts.machine = MachineModel::ideal();
    opts.progress = ProgressModel::parse(spec);
    World world(4, opts);
    std::vector<double> sums(4, 0.0);
    world.run([&sums](Ctx& ctx) { nbc_overlap_body(ctx, &sums); });
    return world.elapsed();
  };
  const double blocking = makespan_under("blocking-only");
  EXPECT_LT(makespan_under("opportunistic"), blocking);
  EXPECT_LT(makespan_under("progress-thread:tax=0"), blocking);
}

// The progress thread owns a core: every compute charge pays the tax.
TEST(ProgressOverlap, ProgressThreadTaxesCompute) {
  const auto final_under = [](const ProgressModel& pm) {
    WorldOptions opts;
    opts.machine = MachineModel::ideal();
    opts.progress = pm;
    World world(2, opts);
    world.run([](Ctx& ctx) { ctx.compute(1e-3); });
    return world.elapsed();
  };
  const double base = final_under(ProgressModel::parse("blocking-only"));
  const double taxed =
      final_under(ProgressModel::parse("progress-thread:tax=0.25"));
  EXPECT_NEAR(taxed / base, 1.25, 1e-9);
}

// ------------------------------------------------------ livelock ---

TEST(ProgressLivelock, CheckerClassifiesTestLoopLivelock) {
  // One rank, so the quiescent wait graph has no edges at all: no cycle,
  // no orphan — only the parked MPI_Test poll names the failure mode.
  World world(1, [] {
    WorldOptions opts;
    opts.machine = MachineModel::ideal();
    return opts;
  }());
  auto check = checker::MpiChecker::install(world);

  bool aborted = false;
  try {
    world.run([](Ctx& ctx) {
      Comm world_comm = ctx.world_comm();
      char buf[8];
      // Nothing can ever arrive: this poll loop can never succeed.
      auto req = world_comm.irecv(buf, sizeof buf, mpisim::kAnySource, 7);
      while (!req.test()) {
      }
    });
  } catch (const MpiError& err) {
    aborted = err.code() == mpisim::Err::Aborted;
  }
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(check->deadlock_reported());
  const auto diags = check->diagnostics();
  ASSERT_FALSE(diags.empty());
  bool classified = false;
  for (const auto& d : diags) {
    if (d.message.find("test-loop livelock") != std::string::npos) {
      classified = true;
    }
  }
  EXPECT_TRUE(classified) << diags.front().message;
}

// ------------------------------------------- trace, fold and replay ---

trace::TraceFile record_mix(const ProgressModel& pm) {
  World world(4, nehalem_options(0, pm));
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "progress-mix"});
  world.run(progress_mix);
  return rec->finish();
}

TEST(ProgressTrace, V4RoundTripPreservesModelAndNbcEvents) {
  const ProgressModel pm = ProgressModel::parse("progress-thread:tax=0.1");
  const trace::TraceFile tf = record_mix(pm);
  EXPECT_EQ(tf.header.progress, pm);

  // iallreduce + ibarrier posted on 4 ranks; only the iallreduce is
  // completed by wait(), so only it records a fence. (test() polls are
  // deliberately not recorded: poll counts depend on scheduling, recorded
  // events must not.)
  std::size_t posts = 0;
  std::size_t completes = 0;
  for (const auto& rs : tf.ranks) {
    for (const auto& ev : rs.events) {
      posts += ev.kind == trace::EventKind::NbcPost;
      completes += ev.kind == trace::EventKind::NbcComplete;
    }
  }
  EXPECT_EQ(posts, 8u);
  EXPECT_EQ(completes, 4u);

  const std::vector<std::uint8_t> wire = tf.encode();
  const trace::TraceFile back = trace::TraceFile::decode(wire);
  EXPECT_EQ(back.header.progress, pm);
  EXPECT_EQ(back.encode(), wire);
  // The compressed container carries v4 payloads unchanged too.
  EXPECT_EQ(codec::decompress(codec::compress(tf)).encode(), wire);
}

TEST(ProgressTrace, EveryModelReplaysBitIdentically) {
  for (const std::string spec :
       {"blocking-only", "opportunistic", "progress-thread"}) {
    const trace::TraceFile tf = record_mix(ProgressModel::parse(spec));
    const trace::VerifyResult v = trace::verify_roundtrip(tf);
    EXPECT_TRUE(v.ok) << spec << ": " << v.detail;
  }
}

TEST(ProgressTrace, FoldProgressMovesEntryOverheadBothWays) {
  const MachineModel m = MachineModel::nehalem_cluster();
  const ProgressModel blocking;  // default
  const ProgressModel opp = ProgressModel::parse("opportunistic:entry=1e-7");

  // Pristine preset -> opportunistic what-if: the poll cost is added.
  const MachineModel folded = trace::fold_progress(m, blocking, opp, false);
  EXPECT_DOUBLE_EQ(folded.net.send_overhead, m.net.send_overhead + 1e-7);
  EXPECT_DOUBLE_EQ(folded.net.recv_overhead, m.net.recv_overhead + 1e-7);

  // A recorded opportunistic header already carries the fold: replaying
  // under blocking-only removes it again.
  const MachineModel back = trace::fold_progress(folded, opp, blocking, true);
  EXPECT_DOUBLE_EQ(back.net.send_overhead, m.net.send_overhead);
  EXPECT_DOUBLE_EQ(back.net.recv_overhead, m.net.recv_overhead);
  // Same-model fold is the identity.
  const MachineModel same = trace::fold_progress(folded, opp, opp, true);
  EXPECT_DOUBLE_EQ(same.net.send_overhead, folded.net.send_overhead);
}

// The serve layer threads the axis too: "recorded" and the header's own
// spec are the same query, so they must render byte-identical results
// (the cache-key contract), while a different model changes both the
// canonical key and the result.
TEST(ProgressTrace, ServeTreatsRecordedAndExplicitModelAsSameQuery) {
  const trace::TraceFile tf = record_mix(ProgressModel{});  // blocking-only

  serve::ReplayQuery recorded;
  serve::ReplayQuery explicit_spec;
  explicit_spec.model.progress = tf.header.progress.spec();
  EXPECT_EQ(serve::run_replay(tf, recorded),
            serve::run_replay(tf, explicit_spec));

  serve::ReplayQuery threaded;
  threaded.model.progress = "progress-thread:tax=0.3";
  EXPECT_NE(canonical(recorded), canonical(threaded));
  EXPECT_NE(serve::run_replay(tf, recorded), serve::run_replay(tf, threaded));

  serve::SweepQuery plain;
  serve::SweepQuery multi;
  multi.progress = {"recorded", "opportunistic"};
  EXPECT_NE(canonical(plain), canonical(multi));
  const std::string csv = serve::run_sweep(tf, multi);
  EXPECT_NE(csv.find(",opportunistic:entry=5e-08,"), std::string::npos);
}

// A blocking-only recording re-modelled under a progress thread must show
// the model's signature: compute pays the core tax, so the what-if
// makespan grows on a compute-bound trace.
TEST(ProgressTrace, WhatIfProgressThreadTaxShowsInReplay) {
  const trace::TraceFile tf = record_mix(ProgressModel{});
  const trace::ReplayResult base = trace::replay(tf, tf.header.machine, {});

  const ProgressModel pt = ProgressModel::parse("progress-thread:tax=0.3");
  trace::ReplayOptions opts;
  opts.progress = pt;
  const MachineModel folded =
      trace::fold_progress(tf.header.machine, tf.header.progress, pt, true);
  const trace::ReplayResult taxed = trace::replay(tf, folded, opts);
  EXPECT_GT(taxed.makespan, base.makespan);
}

}  // namespace
