// Telemetry subsystem: registry scopes, interval-sampler window splitting,
// cross-backend byte determinism, the zero-perturbation contract, replay
// re-binning, Eq. 6 attribution convergence, and exporter round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "profiler/section_profiler.hpp"
#include "support/log.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace {

using namespace mpisect;
using sections::MPIX_Section_enter;
using sections::MPIX_Section_exit;
using mpisim::Comm;
using mpisim::Ctx;
using mpisim::ExecBackend;
using mpisim::MachineModel;
using mpisim::World;
using mpisim::WorldOptions;
using telemetry::Registry;
using telemetry::SamplerOptions;
using telemetry::Scope;
using telemetry::TelemetrySampler;

WorldOptions ideal_options() {
  WorldOptions opts;
  opts.machine = MachineModel::ideal();
  return opts;
}

// ---------------------------------------------------------------------------
// Registry

TEST(TelemetryRegistry, RankScopeScalarsAndTotals) {
  Registry reg(2);
  const auto msgs = reg.add_counter("mpi.msgs_sent", Scope::Rank, "msgs");
  const auto depth = reg.add_gauge("queue.depth", Scope::Rank, "depth");
  reg.inc(msgs, 0);
  reg.inc(msgs, 0, 2.0);
  reg.inc(msgs, 1, 0.5);
  reg.set(depth, 1, 7.0);
  EXPECT_DOUBLE_EQ(reg.value(msgs, 0), 3.0);
  EXPECT_DOUBLE_EQ(reg.value(msgs, 1), 0.5);
  EXPECT_DOUBLE_EQ(reg.total(msgs), 3.5);
  EXPECT_DOUBLE_EQ(reg.value(depth, 1), 7.0);
  ASSERT_TRUE(reg.find("mpi.msgs_sent").has_value());
  EXPECT_EQ(*reg.find("mpi.msgs_sent"), msgs);
  EXPECT_FALSE(reg.find("nope").has_value());
}

TEST(TelemetryRegistry, ProcessScopeAndDistributions) {
  Registry reg(4);
  const auto p = reg.add_counter("sched.events", Scope::Process, "events");
  reg.inc(p, -1);
  reg.inc(p, -1, 4.0);
  EXPECT_DOUBLE_EQ(reg.value(p, -1), 5.0);
  EXPECT_DOUBLE_EQ(reg.total(p), 5.0);

  const auto d = reg.add_distribution("q.depth", Scope::Process, 0.0, 16.0, 4,
                                      "depth");
  reg.observe(d, -1, 1.0);
  reg.observe(d, -1, 9.0);
  const auto* hist = reg.histogram(d, -1);
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 2u);
  EXPECT_EQ(reg.histogram(p, -1), nullptr);  // scalars have no histogram
}

TEST(TelemetryRegistry, RankScalarSnapshotOrderIsRegistrationOrder) {
  Registry reg(1);
  const auto a = reg.add_counter("a", Scope::Rank, "");
  reg.add_counter("proc", Scope::Process, "");  // not a rank scalar
  const auto b = reg.add_gauge("b", Scope::Rank, "");
  ASSERT_EQ(reg.rank_scalars().size(), 2u);
  EXPECT_EQ(reg.rank_scalars()[0], a);
  EXPECT_EQ(reg.rank_scalars()[1], b);
  reg.inc(a, 0, 2.0);
  reg.set(b, 0, 9.0);
  std::vector<double> snap;
  reg.snapshot_rank(0, snap);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap[0], 2.0);
  EXPECT_DOUBLE_EQ(snap[1], 9.0);
}

// ---------------------------------------------------------------------------
// Sampler window splitting

TEST(TelemetrySampler, SplitsComputeAcrossWindowBoundaries) {
  World world(2, ideal_options());
  sections::SectionRuntime::install(world);
  SamplerOptions sopts;
  sopts.dt = 1.0;
  auto sampler = TelemetrySampler::install(world, sopts);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    MPIX_Section_enter(comm, "A");
    ctx.compute_exact(2.5);  // spans windows 0, 1 and half of 2
    MPIX_Section_exit(comm, "A");
    MPIX_Section_enter(comm, "B");
    ctx.compute_exact(0.5);  // the other half of window 2
    MPIX_Section_exit(comm, "B");
  });

  const auto tl = telemetry::build_timeline(*sampler);
  ASSERT_GE(tl.windows.size(), 3u);
  EXPECT_EQ(tl.nranks, 2);

  // busy-per-section map of one window, keyed by name.
  auto busy = [&](std::size_t i) {
    std::map<std::string, double> m;
    for (const auto& s : tl.windows[i].sections) m[s.label] = s.total;
    return m;
  };
  // Windows 0/1: A only, 1.0 s per rank => total 2.0.
  EXPECT_DOUBLE_EQ(busy(0)["A"], 2.0);
  EXPECT_DOUBLE_EQ(busy(1)["A"], 2.0);
  EXPECT_EQ(busy(0).count("B"), 0u);
  // Window 2: the split — half a second of each, per rank.
  EXPECT_DOUBLE_EQ(busy(2)["A"], 1.0);
  EXPECT_DOUBLE_EQ(busy(2)["B"], 1.0);

  // Whole-run totals: exclusive attribution, so A = 2 x 2.5, B = 2 x 0.5.
  std::map<std::string, double> totals;
  for (const auto& st : tl.section_totals) totals[st.label] = st.total;
  EXPECT_DOUBLE_EQ(totals["A"], 5.0);
  EXPECT_DOUBLE_EQ(totals["B"], 1.0);

  // Eq. 6: A dominates (MPI_MAIN is excluded by default).
  EXPECT_EQ(tl.binding, "A");
  ASSERT_TRUE(std::isfinite(tl.bound));
  // Window 0 is perfectly balanced: bound = busy_total / max_per_process.
  EXPECT_DOUBLE_EQ(tl.windows[0].bound, 2.0);
  EXPECT_EQ(tl.windows[0].binding, "A");
}

TEST(TelemetrySampler, NestedSectionsUseExclusiveAttribution) {
  World world(1, ideal_options());
  sections::SectionRuntime::install(world);
  SamplerOptions sopts;
  sopts.dt = 10.0;  // one window
  auto sampler = TelemetrySampler::install(world, sopts);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    MPIX_Section_enter(comm, "outer");
    ctx.compute_exact(1.0);
    MPIX_Section_enter(comm, "inner");
    ctx.compute_exact(2.0);
    MPIX_Section_exit(comm, "inner");
    ctx.compute_exact(0.5);
    MPIX_Section_exit(comm, "outer");
  });
  const auto tl = telemetry::build_timeline(*sampler);
  std::map<std::string, double> totals;
  for (const auto& st : tl.section_totals) totals[st.label] = st.total;
  EXPECT_DOUBLE_EQ(totals["outer"], 1.5);  // inner's 2.0 not double-counted
  EXPECT_DOUBLE_EQ(totals["inner"], 2.0);
}

// Labels formatted into one reused buffer share a pointer but not a text:
// each section must be attributed to the text it had when entered.
TEST(Telemetry, ReusedLabelBufferIsAttributedToItsCurrentText) {
  World world(1, ideal_options());
  sections::SectionRuntime::install(world);
  SamplerOptions sopts;
  sopts.dt = 10.0;  // one window
  auto sampler = TelemetrySampler::install(world, sopts);
  world.run([](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    char label[16];
    for (int phase = 0; phase < 3; ++phase) {
      std::snprintf(label, sizeof label, "phase%d", phase);
      MPIX_Section_enter(comm, label);
      ctx.compute_exact(1.0 + phase);
      MPIX_Section_exit(comm, label);
    }
  });
  const auto tl = telemetry::build_timeline(*sampler);
  std::map<std::string, double> totals;
  for (const auto& st : tl.section_totals) totals[st.label] = st.total;
  EXPECT_DOUBLE_EQ(totals["phase0"], 1.0);
  EXPECT_DOUBLE_EQ(totals["phase1"], 2.0);
  EXPECT_DOUBLE_EQ(totals["phase2"], 3.0);
}

// ---------------------------------------------------------------------------
// Determinism and perturbation

struct ConvRunResult {
  std::vector<double> final_times;
  std::string timeline_csv;
  std::string counters_csv;
  std::string timeline_json;
};

ConvRunResult run_conv_with_sampler(ExecBackend exec, int workers) {
  WorldOptions opts;
  opts.machine = MachineModel::nehalem_cluster();
  opts.seed = 0xBEEF;
  opts.exec = exec;
  opts.workers = workers;
  World world(4, opts);
  sections::SectionRuntime::install(world);
  SamplerOptions sopts;
  sopts.dt = 0.05;
  auto sampler = TelemetrySampler::install(world, sopts);
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 512;
  cfg.height = 256;
  cfg.steps = 6;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  const auto tl = telemetry::build_timeline(*sampler);
  ConvRunResult r;
  r.final_times = world.final_times();
  r.timeline_csv = telemetry::timeline_csv(tl);
  r.counters_csv = telemetry::counters_csv(tl);
  r.timeline_json = telemetry::timeline_json(tl);
  return r;
}

TEST(TelemetryDeterminism, ExportsByteIdenticalAcrossBackendsAndWorkers) {
  const auto coop1 = run_conv_with_sampler(ExecBackend::Cooperative, 1);
  const auto coop4 = run_conv_with_sampler(ExecBackend::Cooperative, 4);
  const auto threads = run_conv_with_sampler(ExecBackend::Threads, 0);

  EXPECT_EQ(coop1.final_times, coop4.final_times);
  EXPECT_EQ(coop1.final_times, threads.final_times);
  EXPECT_EQ(coop1.timeline_csv, coop4.timeline_csv);
  EXPECT_EQ(coop1.timeline_csv, threads.timeline_csv);
  EXPECT_EQ(coop1.counters_csv, coop4.counters_csv);
  EXPECT_EQ(coop1.counters_csv, threads.counters_csv);
  EXPECT_EQ(coop1.timeline_json, coop4.timeline_json);
  EXPECT_EQ(coop1.timeline_json, threads.timeline_json);
}

TEST(TelemetryPerturbation, SamplerLeavesRunBitIdentical) {
  auto run = [](bool with_sampler) {
    WorldOptions opts;
    opts.machine = MachineModel::knl();
    opts.seed = 0x515;
    World world(8, opts);  // lulesh requires a perfect cube
    sections::SectionRuntime::install(world);
    profiler::SectionProfiler prof(world);
    auto rec = trace::TraceRecorder::install(world, {.app = "perturbation"});
    std::shared_ptr<TelemetrySampler> sampler;
    if (with_sampler) sampler = TelemetrySampler::install(world, {});
    apps::lulesh::LuleshConfig cfg;
    cfg.s = 6;
    cfg.steps = 2;
    cfg.omp_threads = 2;
    cfg.full_fidelity = false;
    apps::lulesh::LuleshApp app(cfg);
    world.run(std::ref(app));
    struct Out {
      std::vector<double> final_times;
      std::vector<std::uint8_t> trace_bytes;
      std::map<std::string, double> profile;
    } out;
    out.final_times = world.final_times();
    out.trace_bytes = rec->finish().encode();
    for (const auto& t : prof.totals()) {
      out.profile[t.label] = t.mean_per_process;
    }
    return out;
  };

  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.final_times, on.final_times);      // bit-identical times
  EXPECT_EQ(off.trace_bytes, on.trace_bytes);      // identical .mpst bytes
  EXPECT_EQ(off.profile, on.profile);              // identical profiler view
}

// ---------------------------------------------------------------------------
// Replay re-binning

TEST(TelemetryTimeline, ReplayRebinMatchesLiveSampling) {
  const double dt = 0.1;
  WorldOptions opts;
  opts.machine = MachineModel::nehalem_cluster();
  opts.seed = 0xABC;
  World world(4, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "rebin"});
  SamplerOptions sopts;
  sopts.dt = dt;
  auto sampler = TelemetrySampler::install(world, sopts);
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 512;
  cfg.height = 256;
  cfg.steps = 5;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));

  const auto live = telemetry::build_timeline(*sampler);

  trace::ReplayOptions ropts;
  ropts.timeline = true;
  const auto res = trace::replay(rec->finish(), opts.machine, ropts);
  const auto rebinned = telemetry::timeline_from_replay(res, dt);

  EXPECT_EQ(rebinned.nranks, live.nranks);
  EXPECT_EQ(rebinned.binding, live.binding);
  // Per-section whole-run busy totals line up. Compute-bounded spans are
  // anchored by recorded gaps and reproduce exactly; spans bordered by
  // collective interiors shift by the replay engine's sync approximation
  // (endpoint-exact, interior-approximate), hence the loose tolerance.
  std::map<std::string, double> live_totals, rebin_totals;
  for (const auto& st : live.section_totals) live_totals[st.label] = st.total;
  for (const auto& st : rebinned.section_totals) {
    rebin_totals[st.label] = st.total;
  }
  for (const auto& [label, total] : live_totals) {
    ASSERT_TRUE(rebin_totals.count(label)) << label;
    EXPECT_NEAR(rebin_totals[label], total, 1e-6 + total * 0.25) << label;
  }
  // The dominant compute section must agree to fp precision.
  EXPECT_NEAR(rebin_totals["CONVOLVE"], live_totals["CONVOLVE"],
              1e-9 + live_totals["CONVOLVE"] * 1e-12);
}

// ---------------------------------------------------------------------------
// Eq. 6 attribution on the paper's Lulesh/KNL configuration

TEST(TelemetryTimeline, LuleshKnlAttributionConvergesToLagrangeSections) {
  WorldOptions opts;
  opts.machine = MachineModel::knl();
  opts.seed = 0x10113;
  World world(8, opts);
  sections::SectionRuntime::install(world);
  SamplerOptions sopts;
  sopts.dt = 0.05;
  // Depth-2 rollup = the paper's phase view: MPI_MAIN (0) >
  // LagrangeLeapFrog (1) > LagrangeNodal / LagrangeElements (2).
  sopts.phase_depth = 2;
  auto sampler = TelemetrySampler::install(world, sopts);
  apps::lulesh::LuleshConfig cfg;
  cfg.s = 8;
  cfg.steps = 3;
  cfg.omp_threads = 2;
  cfg.full_fidelity = false;
  apps::lulesh::LuleshApp app(cfg);
  world.run(std::ref(app));

  const auto tl = telemetry::build_timeline(*sampler);
  ASSERT_FALSE(tl.windows.empty());
  // The paper's bounding sections (Fig. 10 analysis): one of the two
  // Lagrange phases must carry the Eq. 6 attribution.
  EXPECT_TRUE(tl.binding == "LagrangeNodal" ||
              tl.binding == "LagrangeElements")
      << "binding = " << tl.binding;
  EXPECT_TRUE(std::isfinite(tl.bound));
  EXPECT_GE(tl.bound, 1.0);
  // The binding section is the per-process argmax among the sampled
  // sections (excluding MPI_MAIN) — Eq. 6's argmax definition.
  std::string argmax;
  double best = -1.0;
  for (const auto& st : tl.section_totals) {
    if (st.label == "MPI_MAIN") continue;
    if (st.per_process > best) {
      best = st.per_process;
      argmax = st.label;
    }
  }
  EXPECT_EQ(tl.binding, argmax);
}

// ---------------------------------------------------------------------------
// Exporters

class ExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_.emplace(2, ideal_options());
    sections::SectionRuntime::install(*world_);
    SamplerOptions sopts;
    sopts.dt = 0.5;
    sampler_ = TelemetrySampler::install(*world_, sopts);
    world_->run([](Ctx& ctx) {
      Comm comm = ctx.world_comm();
      MPIX_Section_enter(comm, "PHASE");
      ctx.compute_exact(1.25);
      MPIX_Section_exit(comm, "PHASE");
      comm.barrier();
    });
    tl_ = telemetry::build_timeline(*sampler_);
  }
  // Declared before sampler_: ~TelemetrySampler restores the world's hook
  // tables, so the world must outlive it.
  std::optional<World> world_;
  std::shared_ptr<TelemetrySampler> sampler_;
  telemetry::Timeline tl_;
};

TEST_F(ExporterTest, CsvRoundTripsThroughParser) {
  const std::string csv = telemetry::timeline_csv(tl_);
  EXPECT_EQ(csv.rfind("# mpisect", 0), 0u);  // provenance comment leads
  const auto back = telemetry::timeline_from_csv(csv);
  EXPECT_EQ(back.nranks, tl_.nranks);
  EXPECT_DOUBLE_EQ(back.dt, tl_.dt);
  ASSERT_EQ(back.windows.size(), tl_.windows.size());
  EXPECT_EQ(back.binding, tl_.binding);
  for (std::size_t i = 0; i < tl_.windows.size(); ++i) {
    ASSERT_EQ(back.windows[i].sections.size(),
              tl_.windows[i].sections.size());
    EXPECT_DOUBLE_EQ(back.windows[i].sections[0].total,
                     tl_.windows[i].sections[0].total);
  }
}

TEST_F(ExporterTest, CsvParserRejectsGarbage) {
  EXPECT_THROW(telemetry::timeline_from_csv("not,a,timeline\n1,2,3\n"),
               std::runtime_error);
}

TEST_F(ExporterTest, JsonAndChromeAndPrometheusCarryTheSeries) {
  const std::string json = telemetry::timeline_json(tl_);
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"PHASE\""), std::string::npos);
  EXPECT_NE(json.find("\"windows\""), std::string::npos);

  const std::string chrome = telemetry::chrome_counters(tl_);
  EXPECT_EQ(chrome.rfind("{\"traceEvents\"", 0), 0u);
  EXPECT_NE(chrome.find("\"ph\""), std::string::npos);
  EXPECT_NE(chrome.find("section PHASE"), std::string::npos);

  const std::string prom = telemetry::prometheus_text(sampler_->registry());
  EXPECT_NE(prom.find("# HELP mpisect_mpi_msgs_sent"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE mpisect_mpi_msgs_sent counter"),
            std::string::npos);
  EXPECT_NE(prom.find("{rank=\"0\"}"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MPISECT_LOG parsing (satellite c)

TEST(LogEnv, ParseLogLevelAcceptsAliases) {
  using support::LogLevel;
  EXPECT_EQ(support::parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(support::parse_log_level("DEBUG"), LogLevel::Debug);
  EXPECT_EQ(support::parse_log_level(" info "), LogLevel::Info);
  EXPECT_EQ(support::parse_log_level("warning"), LogLevel::Warn);
  EXPECT_EQ(support::parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(support::parse_log_level("none"), LogLevel::Off);
  EXPECT_EQ(support::parse_log_level("bogus"), std::nullopt);
}

}  // namespace
