// Self-observability contracts: the span tracer is free when disabled,
// drops oldest (never UB) on overflow, renders well-formed exports, and —
// the load-bearing property — enabling it changes nothing about the
// simulation: final virtual times, trace bytes and telemetry CSV are
// bit-identical across backends and worker counts. Plus the MPISECT_LOG
// parse edge cases, the per-rank memory accountant, and the metrics page
// serve's {"op":"stats"} answers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "obs/counters.hpp"
#include "obs/memory.hpp"
#include "obs/spans.hpp"
#include "serve/service.hpp"
#include "support/log.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"
#include "trace/recorder.hpp"

#include "thread_executor.hpp"

namespace {

using namespace mpisect;

// --- MPISECT_LOG parsing edge cases (satellite 3) ------------------------

TEST(ObsLog, ParseLogLevelAcceptsCanonicalNames) {
  using support::LogLevel;
  EXPECT_EQ(support::parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(support::parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(support::parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(support::parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(support::parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(support::parse_log_level("off"), LogLevel::Off);
}

TEST(ObsLog, ParseLogLevelAcceptsAliasesAndMixedCase) {
  using support::LogLevel;
  EXPECT_EQ(support::parse_log_level("warning"), LogLevel::Warn);
  EXPECT_EQ(support::parse_log_level("none"), LogLevel::Off);
  EXPECT_EQ(support::parse_log_level("WARN"), LogLevel::Warn);
  EXPECT_EQ(support::parse_log_level("WaRnInG"), LogLevel::Warn);
  EXPECT_EQ(support::parse_log_level("  info  "), LogLevel::Info);
  EXPECT_EQ(support::parse_log_level("\tERROR\n"), LogLevel::Error);
}

TEST(ObsLog, ParseLogLevelRejectsUnknownAndEmpty) {
  EXPECT_FALSE(support::parse_log_level("").has_value());
  EXPECT_FALSE(support::parse_log_level("   ").has_value());
  EXPECT_FALSE(support::parse_log_level("verbose").has_value());
  EXPECT_FALSE(support::parse_log_level("warn ing").has_value());
  EXPECT_FALSE(support::parse_log_level("2").has_value());
}

// --- span tracer ---------------------------------------------------------

TEST(ObsSpans, DisabledCostsNoRecording) {
  obs::set_enabled_for_test(false);
  obs::reset_spans_for_test();
  {
    const obs::Span s("should.not.appear");
  }
  EXPECT_EQ(obs::spans_recorded(), 0u);
  EXPECT_TRUE(obs::snapshot_spans().empty());
}

TEST(ObsSpans, EnabledRecordsNamedSpans) {
  obs::set_enabled_for_test(true);
  obs::reset_spans_for_test();
  {
    const obs::Span s("unit.test.span");
  }
  obs::record_span("unit.manual.span", 10, 5);
  const auto spans = obs::snapshot_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "unit.test.span");
  EXPECT_STREQ(spans[1].name, "unit.manual.span");
  EXPECT_EQ(spans[1].t0_ns, 10u);
  EXPECT_EQ(spans[1].dur_ns, 5u);
  EXPECT_EQ(obs::spans_dropped(), 0u);
  obs::set_enabled_for_test(false);
}

TEST(ObsSpans, OverflowKeepsNewestAndCountsDrops) {
  obs::set_enabled_for_test(true);
  obs::set_ring_capacity(8);
  obs::reset_spans_for_test();
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::record_span("overflow.span", /*t0_ns=*/i, /*dur_ns=*/1);
  }
  const auto spans = obs::snapshot_spans();
  ASSERT_EQ(spans.size(), 8u);  // ring keeps the newest `capacity` spans
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].t0_ns, 12 + i);  // oldest surviving span is #12
  }
  EXPECT_EQ(obs::spans_recorded(), 20u);
  EXPECT_EQ(obs::spans_dropped(), 12u);
  obs::set_ring_capacity(8192);
  obs::reset_spans_for_test();
  obs::set_enabled_for_test(false);
}

TEST(ObsSpans, ChromeJsonAndCsvRendersAreWellFormed) {
  std::vector<obs::SpanRecord> spans;
  spans.push_back({"a.b", 1000, 2000, 0});
  spans.push_back({"c \"quoted\"", 5000, 1, 3});
  const std::string json = obs::render_chrome_json(spans);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"a.b\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("spans_dropped"), std::string::npos);

  const std::string csv = obs::render_csv(spans);
  EXPECT_NE(csv.find("name,tid,t0_ns,dur_ns\n"), std::string::npos);
  EXPECT_NE(csv.find("a.b,0,1000,2000\n"), std::string::npos);
}

TEST(ObsSpans, WriteSelfTracePicksFormatByExtension) {
  obs::set_enabled_for_test(true);
  obs::reset_spans_for_test();
  obs::record_span("write.span", 1, 2);
  const std::string json_path = "test_obs_trace.json";
  const std::string csv_path = "test_obs_trace.csv";
  ASSERT_TRUE(obs::write_self_trace(json_path));
  ASSERT_TRUE(obs::write_self_trace(csv_path));
  const auto slurp = [](const std::string& p) {
    std::string out;
    if (std::FILE* f = std::fopen(p.c_str(), "rb")) {
      char buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
      std::fclose(f);
    }
    return out;
  };
  EXPECT_NE(slurp(json_path).find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(slurp(csv_path).find("write.span,"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
  obs::reset_spans_for_test();
  obs::set_enabled_for_test(false);
}

// --- bit-identity: tracing must not perturb the simulation ---------------

struct RunResult {
  std::vector<double> final_times;
  std::vector<std::uint8_t> trace_bytes;
  std::string telemetry_csv;
};

/// workers: fiber-scheduler workers, or testutil::kThreadPerRank.
RunResult run_conv(int workers) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0x5EED;
  testutil::set_workers(opts, workers);
  mpisim::World world(8, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
  telemetry::SamplerOptions sopts;
  sopts.dt = 0.01;
  auto sampler = telemetry::TelemetrySampler::install(world, sopts);

  apps::conv::ConvolutionConfig cfg;
  cfg.steps = 10;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));

  RunResult r;
  r.final_times = world.final_times();
  r.trace_bytes = rec->finish().encode();
  r.telemetry_csv =
      telemetry::timeline_csv(telemetry::build_timeline(*sampler));
  return r;
}

TEST(ObsSpans, SelfTracePerturbsNothingAcrossBackends) {
  for (const int workers : {1, 4, testutil::kThreadPerRank}) {
    obs::set_enabled_for_test(false);
    const RunResult off = run_conv(workers);
    obs::set_enabled_for_test(true);
    const RunResult on = run_conv(workers);
    obs::set_enabled_for_test(false);
    EXPECT_EQ(off.final_times, on.final_times);
    EXPECT_EQ(off.trace_bytes, on.trace_bytes);
    EXPECT_EQ(off.telemetry_csv, on.telemetry_csv);
    EXPECT_GT(obs::spans_recorded(), 0u);  // the on-run actually traced
    obs::reset_spans_for_test();
  }
}

// --- per-rank memory accounting ------------------------------------------

TEST(ObsMem, ChannelChargesReachHighWaterThenDrain) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0x5EED;
  mpisim::World world(4, opts);
  // One order under any scheduling: every eager send completes before the
  // barrier and every receive is posted after it, so each payload waits in
  // its receiver's unexpected queue.
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    std::vector<double> buf(256, static_cast<double>(ctx.rank()));
    const std::size_t bytes = buf.size() * sizeof(double);
    const int peer = ctx.rank() ^ 1;
    comm.send(buf.data(), bytes, peer, /*tag=*/7);
    comm.barrier();
    comm.recv(buf.data(), bytes, peer, /*tag=*/7);
  });
  const obs::MemAccount& mem = world.mem_account();
  // Every rank queued at least one entry at some point...
  EXPECT_GT(mem.total_hwm(), 0u);
  EXPECT_GT(mem.bytes_per_rank(), 0.0);
  EXPECT_GE(mem.peak_rank_hwm(),
            static_cast<std::uint64_t>(256 * sizeof(double)));
  // ...and everything matched: nothing is still charged after the run.
  EXPECT_EQ(mem.total_current(), 0u);
}

TEST(ObsMem, UpdateMaxIsMonotone) {
  std::atomic<std::uint64_t> hwm{10};
  obs::update_max(hwm, 5);
  EXPECT_EQ(hwm.load(), 10u);
  obs::update_max(hwm, 25);
  EXPECT_EQ(hwm.load(), 25u);
}

// --- metrics surfaces ----------------------------------------------------

TEST(ObsMetrics, PrometheusTextExposesCoreSeries) {
  const telemetry::Registry reg(1);
  const std::string text = telemetry::metrics_page(reg);
  for (const char* name :
       {"obs_spans_recorded", "obs_spans_dropped", "obs_self_trace_enabled",
        "obs_codec_compress_bytes_in", "obs_sched_parks",
        "obs_sched_ready_depth_sum", "obs_sched_switch_latency_ns",
        "obs_mem_channel_bytes_hwm", "obs_mem_bytes_per_rank"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  // Exposition format: every obs counter has HELP and TYPE lines.
  for (const obs::CounterDesc& d : obs::kCounterTable) {
    EXPECT_NE(text.find(std::string("# HELP ") + d.name + " "),
              std::string::npos)
        << d.name;
    EXPECT_NE(text.find(std::string("# TYPE ") + d.name + " " + d.type),
              std::string::npos)
        << d.name;
  }
  EXPECT_NE(text.find("# TYPE obs_spans_recorded counter"),
            std::string::npos);
  // The registry part is prometheus_text() itself, the obs part follows.
  EXPECT_EQ(text.rfind(telemetry::prometheus_text(reg), 0), 0u);
}

TEST(ObsMetrics, ResetZeroesEveryTableField) {
  obs::Counters c;
  for (const obs::CounterDesc& d : obs::kCounterTable) (c.*d.field).store(7);
  c.reset();
  for (const obs::CounterDesc& d : obs::kCounterTable) {
    EXPECT_EQ((c.*d.field).load(), 0u) << d.name;
  }
}

TEST(ObsMetrics, WorldRunFoldsSchedulerAndMemoryCounters) {
  obs::counters().reset();
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0x5EED;
  mpisim::World world(4, opts);
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    const double mine = static_cast<double>(ctx.rank());
    double sum = 0.0;
    comm.allreduce(&mine, &sum, 1, mpisim::Datatype::Double,
                   mpisim::ReduceOp::Sum);
  });
  EXPECT_GT(obs::counters().sched_parks.load(), 0u);
  EXPECT_GT(obs::counters().sched_wakes.load(), 0u);
  EXPECT_EQ(obs::counters().mem_ranks.load(), 4u);
  EXPECT_GT(obs::counters().mem_stack_bytes_hwm.load(), 0u);
  EXPECT_GT(obs::counters().sched_ready_depth_samples.load(), 0u);
  EXPECT_GE(obs::counters().sched_ready_depth_sum.load(),
            obs::counters().sched_ready_depth_samples.load());
}

TEST(ObsServe, StatsOpMergesServeAndObsSeries) {
  serve::Service svc;
  const std::string resp = svc.handle_line("{\"id\":1,\"op\":\"stats\"}");
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(resp.find("mpisect_serve_requests"), std::string::npos);
  EXPECT_NE(resp.find("obs_sched_switches"), std::string::npos);
  EXPECT_NE(resp.find("obs_spans_recorded"), std::string::npos);
  // stats is the one scrape op: metrics is unknown, and the error lists
  // the six ops.
  const std::string err =
      svc.handle_line("{\"id\":2,\"op\":\"metrics\"}");
  EXPECT_NE(err.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(err.find("unknown op 'metrics' "
                     "(info|replay|sweep|timeline|analyze|stats)"),
            std::string::npos)
      << err;
}

}  // namespace
