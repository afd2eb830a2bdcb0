// Sessions-style world construction — the API redesign's contract:
//
//   * Session process-set queries mirror MPI_Session_get_num_psets and
//     friends (two built-ins: mpi://WORLD, mpi://SELF);
//   * WorldBuilder specs round-trip (describe() strings feed back through
//     the matching setters) and reject unknown presets/options;
//   * the deprecated eager World(nranks, options) constructor warns exactly
//     once per process and stays observably identical to the lazy path:
//     same final virtual times, same .mpst bytes, same telemetry CSVs;
//   * both matching engines and all execution backends produce bit-identical
//     artifacts — the differential matrix behind the hashed engine;
//   * streaming trace writes (TraceRecorder::save, codec::compress_stream)
//     are byte-identical to the monolithic finish().encode()/compress();
//   * the v5 trace format round-trips the hierarchical-NBC machine flag;
//   * a 65,536-rank world builds in O(1) and (gated: MPISECT_SCALE_TESTS=1,
//     Release only) completes a convolution step.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "codec/mpstz.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/error.hpp"
#include "mpisim/progress.hpp"
#include "mpisim/session.hpp"
#include "support/log.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"

#include "temp_path.hpp"

namespace {

using namespace mpisect;
using mpisim::Session;
using mpisim::World;
using mpisim::WorldBuilder;
using mpisim::WorldOptions;

// ---------------------------------------------------------------------------
// Process-set queries
// ---------------------------------------------------------------------------

TEST(Session, PsetQueriesFollowTheSessionsShape) {
  Session s(16);
  EXPECT_EQ(s.num_psets(), 2);
  EXPECT_EQ(s.pset_name(0), "mpi://WORLD");
  EXPECT_EQ(s.pset_name(1), "mpi://SELF");
  EXPECT_EQ(s.pset_size("mpi://WORLD"), 16);
  EXPECT_EQ(s.pset_size("mpi://SELF"), 1);
  EXPECT_TRUE(s.has_pset("mpi://WORLD"));
  EXPECT_FALSE(s.has_pset("mpi://unknown"));
  EXPECT_THROW(s.pset_name(2), mpisim::MpiError);
  EXPECT_THROW((void)s.pset_size("mpi://unknown"), mpisim::MpiError);
}

TEST(Session, RejectsNonPositiveSizes) {
  EXPECT_THROW(Session(0), mpisim::MpiError);
  EXPECT_THROW(Session(-4), mpisim::MpiError);
}

// ---------------------------------------------------------------------------
// Spec vocabulary round-trips
// ---------------------------------------------------------------------------

TEST(WorldBuilder, DescribeUsesCanonicalRoundTripSpecs) {
  Session s(8);
  auto b = s.world_builder()
               .exec_spec("cooperative:workers=4,stack=256")
               .match_spec("hashed:buckets=64")
               .progress_spec("blocking-only")
               .seed(7);
  EXPECT_EQ(b.describe(),
            "ranks=8 exec=cooperative:workers=4,stack=256 "
            "match=hashed:buckets=64 progress=blocking-only seed=7");
  // Feed every spec back through its setter: a fixed point.
  const auto& o = b.peek_options();
  mpisim::ExecModel em;
  em.backend = o.exec;
  em.workers = o.workers;
  em.stack_kb = o.stack_kb;
  EXPECT_EQ(mpisim::ExecModel::parse(em.spec()), em);
  EXPECT_EQ(mpisim::MatchModel::parse(o.match.spec()), o.match);
  EXPECT_EQ(mpisim::ProgressModel::parse(o.progress.spec()), o.progress);
}

TEST(WorldBuilder, SpecsRejectUnknownPresetsAndOptions) {
  Session s(4);
  EXPECT_THROW(s.world_builder().exec_spec("fibers"), mpisim::MpiError);
  EXPECT_THROW(s.world_builder().exec_spec("threads:workers=2"),
               mpisim::MpiError);
  EXPECT_THROW(s.world_builder().exec_spec("cooperative:bogus=1"),
               mpisim::MpiError);
  EXPECT_THROW(s.world_builder().match_spec("btree"), mpisim::MpiError);
  EXPECT_THROW(s.world_builder().match_spec("legacy:buckets=8"),
               mpisim::MpiError);
}

// ---------------------------------------------------------------------------
// Deprecated eager constructor: warn-once shim
// ---------------------------------------------------------------------------

TEST(Session, EagerCtorWarnsExactlyOncePerProcess) {
  World::reset_eager_ctor_warning_for_test();
  std::string log;
  support::set_log_capture(&log);
  {
    WorldOptions opts;
    World first(2, opts);
    World second(2, opts);
  }
  support::set_log_capture(nullptr);
  EXPECT_NE(log.find("deprecated"), std::string::npos) << log;
  EXPECT_NE(log.find("Session"), std::string::npos) << log;
  // One warning for two constructions.
  EXPECT_EQ(log.find("deprecated"), log.rfind("deprecated")) << log;

  // The lazy path never warns.
  World::reset_eager_ctor_warning_for_test();
  log.clear();
  support::set_log_capture(&log);
  { const auto w = Session(2).world_builder().build(); }
  support::set_log_capture(nullptr);
  EXPECT_EQ(log.find("deprecated"), std::string::npos) << log;
}

// ---------------------------------------------------------------------------
// Differential bit-identity: eager/lazy x backends x matching engines
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::vector<double> final_times;
  std::vector<std::uint8_t> trace;
  std::string timeline_csv;
  std::string counters_csv;
};

RunArtifacts run_convolution(World& world) {
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "session-diff"});
  telemetry::SamplerOptions sopts;
  sopts.dt = 0.05;
  auto sampler = telemetry::TelemetrySampler::install(world, sopts);
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 512;
  cfg.height = 256;
  cfg.steps = 6;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  const auto tl = telemetry::build_timeline(*sampler);
  RunArtifacts a;
  a.final_times = world.final_times();
  a.trace = rec->finish().encode();
  a.timeline_csv = telemetry::timeline_csv(tl);
  a.counters_csv = telemetry::counters_csv(tl);
  return a;
}

RunArtifacts run_spec(const std::string& exec, const std::string& match) {
  WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0xBEEF;
  const auto world = Session(8, opts)
                         .world_builder()
                         .exec_spec(exec)
                         .match_spec(match)
                         .build();
  return run_convolution(*world);
}

void expect_identical(const RunArtifacts& a, const RunArtifacts& b,
                      const std::string& what) {
  EXPECT_EQ(a.final_times, b.final_times) << what;
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_EQ(a.timeline_csv, b.timeline_csv) << what;
  EXPECT_EQ(a.counters_csv, b.counters_csv) << what;
}

TEST(SessionDifferential, EagerShimMatchesLazyBuild) {
  WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0xBEEF;
  World eager(8, opts);
  const RunArtifacts a = run_convolution(eager);
  const auto lazy = Session(8, opts).world_builder().build();
  const RunArtifacts b = run_convolution(*lazy);
  expect_identical(a, b, "eager vs lazy");
}

TEST(SessionDifferential, BackendsAndEnginesAreBitIdentical) {
  const RunArtifacts ref = run_spec("cooperative:workers=1", "hashed");
  ASSERT_EQ(ref.final_times.size(), 8u);
  const char* execs[] = {"cooperative:workers=1", "cooperative:workers=4",
                         "threads"};
  const char* matches[] = {"hashed", "legacy"};
  for (const char* e : execs) {
    for (const char* m : matches) {
      const RunArtifacts cur = run_spec(e, m);
      expect_identical(ref, cur,
                       std::string("exec=") + e + " match=" + m);
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming trace writes are byte-identical to monolithic assembly
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(SessionStreaming, RecorderSaveMatchesFinishEncode) {
  const auto world = Session(4).world_builder().seed(0x5EED).build();
  sections::SectionRuntime::install(*world);
  auto rec = trace::TraceRecorder::install(*world, {.app = "stream"});
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 256;
  cfg.height = 128;
  cfg.steps = 4;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world->run(std::ref(app));

  const trace::TraceFile tf = rec->finish();
  const std::vector<std::uint8_t> monolithic = tf.encode();
  EXPECT_GT(rec->total_events(), 0u);

  const std::string path =
      testutil::unique_temp_path("session_stream", ".mpst");
  rec->save(path);
  EXPECT_EQ(slurp(path), monolithic);
  std::remove(path.c_str());

  // skeleton() + finish_rank() compose to finish().
  const trace::TraceFile skel = rec->skeleton();
  ASSERT_EQ(skel.ranks.size(), tf.ranks.size());
  for (std::size_t r = 0; r < skel.ranks.size(); ++r) {
    EXPECT_TRUE(skel.ranks[r].events.empty());
    const trace::RankStream rs = rec->finish_rank(static_cast<int>(r));
    EXPECT_EQ(rs.events.size(), tf.ranks[r].events.size());
  }

  // compress_stream over the skeleton matches the whole-file compress.
  const std::vector<std::uint8_t> whole = codec::compress(tf);
  trace::RankStream scratch;
  const std::vector<std::uint8_t> streamed = codec::compress_stream(
      skel, [&](int r) -> const trace::RankStream& {
        scratch = rec->finish_rank(r);
        return scratch;
      });
  EXPECT_EQ(streamed, whole);
}

// ---------------------------------------------------------------------------
// Trace v5: hierarchical-NBC flag round-trips
// ---------------------------------------------------------------------------

TEST(SessionTraceV5, HierarchicalNbcFlagRoundTrips) {
  const auto world = Session(2).world_builder().seed(1).build();
  sections::SectionRuntime::install(*world);
  auto rec = trace::TraceRecorder::install(*world, {.app = "v5"});
  world->run([](mpisim::Ctx& ctx) {
    ctx.world_comm().bcast(nullptr, 64, 0);
  });
  trace::TraceFile tf = rec->finish();
  static_assert(trace::kTraceVersion == 5);

  for (const bool flag : {false, true}) {
    tf.header.machine.net.hierarchical_nbc = flag;
    const trace::TraceFile back = trace::TraceFile::decode(tf.encode());
    EXPECT_EQ(back.header.machine.net.hierarchical_nbc, flag);
  }
}

TEST(SessionTraceV5, HierarchicalNbcCostSplitsIntraAndInter) {
  mpisim::NetworkModel net;
  net.cores_per_node = 8;
  net.hierarchical_nbc = false;
  // Flat: exactly the historical single-tree formula on the fabric links.
  EXPECT_EQ(net.nbc_cost(64, 1024),
            mpisim::nbc_algo_cost(net.inter_node.latency,
                                  net.inter_node.bandwidth, 64, 1024));
  net.hierarchical_nbc = true;
  // Hierarchical: intra-node stage over 8 + inter-node stage over 8 nodes.
  EXPECT_EQ(net.nbc_cost(64, 1024),
            mpisim::nbc_algo_cost(net.intra_node.latency,
                                  net.intra_node.bandwidth, 8, 1024) +
                mpisim::nbc_algo_cost(net.inter_node.latency,
                                      net.inter_node.bandwidth, 8, 1024));
  // A single node never pays fabric rounds.
  EXPECT_EQ(net.nbc_cost(8, 1024),
            mpisim::nbc_algo_cost(net.intra_node.latency,
                                  net.intra_node.bandwidth, 8, 1024));
}

// ---------------------------------------------------------------------------
// Extreme scale
// ---------------------------------------------------------------------------

TEST(SessionScale, SixtyFiveKWorldBuildsLazily) {
  // Construction alone must be cheap at 65,536 ranks — this is the lazy
  // path's contract; running it is the gated smoke below.
  const auto world = Session(65536).world_builder().build();
  EXPECT_EQ(world->size(), 65536);
}

TEST(SessionScale, SixtyFiveKConvolutionStepCompletes) {
  if (std::getenv("MPISECT_SCALE_TESTS") == nullptr) {
    GTEST_SKIP() << "set MPISECT_SCALE_TESTS=1 to run the 65k smoke";
  }
#ifndef NDEBUG
  GTEST_SKIP() << "65k smoke is Release-only";
#else
  const auto world = Session(65536)
                         .world_builder()
                         .machine(mpisim::MachineModel::nehalem_cluster())
                         .seed(1)
                         .match_spec("hashed")
                         .build();
  sections::SectionRuntime::install(*world);
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 256;
  cfg.height = 65536;  // row decomposition needs nranks <= height
  cfg.steps = 1;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world->run(std::ref(app));
  EXPECT_EQ(world->final_times().size(), 65536u);
  EXPECT_GT(world->elapsed(), 0.0);
#endif
}

}  // namespace
