// Replay-engine coverage: same-model replays are bit-identical to the
// recording (final times, section totals, Fig. 3 metrics), cross-preset
// replays predict a direct run within 5%, what-if knobs move results the
// right way, and inconsistent traces fail loudly instead of hanging. A
// sweep's one batched walk is byte-identical to one replay per point, and
// verify's frame-0 walk agrees with a same-model what-if replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/faults/plan.hpp"
#include "mpisim/runtime.hpp"
#include "profiler/section_profiler.hpp"
#include "serve/queries.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "trace/report.hpp"

namespace {

using namespace mpisect;

mpisim::WorldOptions options_for(const mpisim::MachineModel& m,
                                 std::uint64_t seed = 0x5EED) {
  mpisim::WorldOptions opts;
  opts.machine = m;
  opts.seed = seed;
  return opts;
}

void run_convolution(mpisim::World& world, int steps) {
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
}

trace::TraceFile record_convolution(const mpisim::MachineModel& m, int ranks,
                                    int steps) {
  mpisim::World world(ranks, options_for(m));
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
  run_convolution(world, steps);
  return rec->finish();
}

/// Sum a label's inclusive time over all ranks, straight from the recorded
/// footer (i.e. as measured during the original run).
double footer_total(const trace::TraceFile& tf, const std::string& label) {
  double total = 0.0;
  for (std::size_t id = 0; id < tf.labels.size(); ++id) {
    if (tf.labels[id] != label) continue;
    for (const auto& rs : tf.ranks) {
      for (const auto& t : rs.totals) {
        if (t.label == id) total += t.inclusive;
      }
    }
  }
  return total;
}

double replayed_total(const trace::ReplayResult& res,
                      const std::string& label) {
  double total = 0.0;
  for (const auto& s : res.sections) {
    if (s.label == label) total += s.total_inclusive;
  }
  return total;
}

// A deliberately messy SPMD body touching every traced construct: compute
// gaps, isend/irecv/wait, eager and rendezvous sends, probe, sendrecv,
// collectives, split + dup subcommunicators, nested sections, pcontrol.
void kitchen_sink(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  const int r = world.rank();
  const int n = world.size();
  sections::MPIX_Section_enter(world, "PHASE");
  ctx.compute(1e-4 * (r + 1));

  std::vector<char> out(2048, static_cast<char>(r));
  std::vector<char> in(2048);
  auto sreq = world.isend(out.data(), out.size(), (r + 1) % n, 7);
  auto rreq = world.irecv(in.data(), in.size(), (r + n - 1) % n, 7);
  (void)rreq.wait();
  (void)sreq.wait();

  // Rendezvous-sized pairwise exchange with a probe on the receiver.
  std::vector<char> big(64 * 1024, static_cast<char>(r));
  if (r % 2 == 0) {
    world.send(big.data(), big.size(), r + 1, 9);
  } else {
    const mpisim::Status st = world.probe(r - 1, 9);
    std::vector<char> rbuf(st.bytes);
    (void)world.recv(rbuf.data(), rbuf.size(), r - 1, 9);
  }
  ctx.compute(3e-5);

  char a = static_cast<char>(r);
  char b = 0;
  (void)world.sendrecv(&a, 1, (r + 1) % n, 11, &b, 1, (r + n - 1) % n, 11);

  const double sum = world.allreduce_one(static_cast<double>(r),
                                         mpisim::ReduceOp::Sum);
  ctx.compute(sum * 1e-7);
  world.barrier();
  char payload[16] = {};
  world.bcast(payload, sizeof payload, 0);

  mpisim::Comm half = world.split(r % 2, r);
  sections::MPIX_Section_enter(half, "HALF");
  half.barrier();
  sections::MPIX_Section_exit(half, "HALF");
  mpisim::Comm copy = half.dup();
  copy.barrier();
  copy.free();
  half.free();

  ctx.pcontrol(1, "tail");
  ctx.compute(5e-5);
  ctx.pcontrol(-1, "tail");
  sections::MPIX_Section_exit(world, "PHASE");
}

TEST(TraceReplay, SameModelConvolutionVerifiesExactly) {
  const trace::TraceFile tf =
      record_convolution(mpisim::MachineModel::nehalem_cluster(), 8, 12);
  const trace::VerifyResult v = trace::verify_roundtrip(tf);
  EXPECT_TRUE(v.ok) << v.detail;
}

TEST(TraceReplay, SameModelKitchenSinkVerifiesExactly) {
  mpisim::World world(6,
                      options_for(mpisim::MachineModel::nehalem_cluster()));
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "kitchen-sink"});
  world.run(kitchen_sink);
  const trace::TraceFile tf = rec->finish();
  const trace::VerifyResult v = trace::verify_roundtrip(tf);
  EXPECT_TRUE(v.ok) << v.detail;

  // Encode -> decode -> replay must agree too (wire format preserves the
  // replay inputs exactly).
  const trace::TraceFile back = trace::TraceFile::decode(tf.encode());
  const trace::VerifyResult v2 = trace::verify_roundtrip(back);
  EXPECT_TRUE(v2.ok) << v2.detail;
}

TEST(TraceReplay, SameModelReproducesFig3MetricsBitwise) {
  mpisim::World world(8,
                      options_for(mpisim::MachineModel::nehalem_cluster()));
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world, {.keep_instances = true});
  auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
  run_convolution(world, 10);

  const trace::TraceFile tf = rec->finish();
  const trace::ReplayResult res =
      trace::replay(tf, tf.header.machine, {.collect_metrics = true});

  int compared = 0;
  for (const auto& s : res.sections) {
    const sections::AggregatedMetrics want =
        prof.aggregated_metrics(s.comm, s.label);
    if (want.instances == 0) continue;
    ++compared;
    EXPECT_EQ(s.agg.instances, want.instances) << s.label;
    EXPECT_EQ(s.agg.total_span, want.total_span) << s.label;
    EXPECT_EQ(s.agg.total_section_mean, want.total_section_mean) << s.label;
    EXPECT_EQ(s.agg.total_imbalance, want.total_imbalance) << s.label;
    EXPECT_EQ(s.agg.max_entry_imb, want.max_entry_imb) << s.label;
    EXPECT_EQ(s.agg.mean_entry_imb, want.mean_entry_imb) << s.label;
  }
  EXPECT_GE(compared, 4);  // LOAD/HALO/CONVOLVE/STORE at least
}

// The predictive acceptance criterion: record on Nehalem, replay on the KNL
// preset with the automatic compute rescale, and land within 5% of what a
// direct KNL run of the app measures for the step-phase sections.
//
// The two machines' compute-noise sigmas are equalized first: recorded
// compute gaps have the recording machine's multiplicative noise baked in,
// and no replay can un-draw it (wait-dominated sections like HALO expose
// exactly the sigma ratio otherwise). Network latency/bandwidth/jitter and
// compute rate DO differ between the presets — that is what the what-if
// re-models.
TEST(TraceReplay, CrossPresetPredictsDirectRunWithin5Percent) {
  const mpisim::MachineModel nehalem = mpisim::MachineModel::nehalem_cluster();
  mpisim::MachineModel knl = mpisim::MachineModel::knl();
  knl.compute_noise_sigma = nehalem.compute_noise_sigma;
  const int ranks = 8;
  const int steps = 30;

  const trace::TraceFile recorded = record_convolution(nehalem, ranks, steps);
  const trace::TraceFile direct = record_convolution(knl, ranks, steps);

  trace::ReplayOptions opts;
  opts.compute_scale = nehalem.flops_per_core / knl.flops_per_core;
  const trace::ReplayResult predicted = trace::replay(recorded, knl, opts);

  // LOAD/STORE model sequential I/O whose cost is not compute-rate bound,
  // so the flops rescale does not apply to them; the step-phase sections
  // (the ones the paper's bounds build on) and the walltime must transfer.
  for (const std::string label : {"CONVOLVE", "HALO", "MPI_MAIN"}) {
    const double want = footer_total(direct, label);
    const double got = replayed_total(predicted, label);
    ASSERT_GT(want, 0.0) << label;
    EXPECT_NEAR(got / want, 1.0, 0.05)
        << label << ": predicted " << got << " direct " << want;
  }
}

// With the true (unequalized) presets the noise-sigma mismatch perturbs
// wait sections, but the aggregate walltime must still predict closely —
// zero-mean noise washes out of gap sums.
TEST(TraceReplay, CrossPresetWalltimeSurvivesNoiseSigmaMismatch) {
  const mpisim::MachineModel nehalem = mpisim::MachineModel::nehalem_cluster();
  const mpisim::MachineModel knl = mpisim::MachineModel::knl();
  const trace::TraceFile recorded = record_convolution(nehalem, 8, 30);
  const trace::TraceFile direct = record_convolution(knl, 8, 30);
  trace::ReplayOptions opts;
  opts.compute_scale = nehalem.flops_per_core / knl.flops_per_core;
  const trace::ReplayResult predicted = trace::replay(recorded, knl, opts);
  const double want = footer_total(direct, "MPI_MAIN");
  const double got = replayed_total(predicted, "MPI_MAIN");
  ASSERT_GT(want, 0.0);
  EXPECT_NEAR(got / want, 1.0, 0.05)
      << "predicted " << got << " direct " << want;
}

TEST(TraceReplay, LatencyIncreaseInflatesHaloAndMakespan) {
  const trace::TraceFile tf =
      record_convolution(mpisim::MachineModel::nehalem_cluster(), 8, 12);
  const trace::ReplayResult base = trace::replay(tf, tf.header.machine, {});
  mpisim::MachineModel slow = tf.header.machine;
  slow.net.intra_node.latency *= 8.0;
  slow.net.inter_node.latency *= 8.0;
  const trace::ReplayResult slowed = trace::replay(tf, slow, {});
  EXPECT_GT(replayed_total(slowed, "HALO"), replayed_total(base, "HALO"));
  EXPECT_GT(slowed.makespan, base.makespan);
}

TEST(TraceReplay, ComputeScaleShrinksComputeSections) {
  const trace::TraceFile tf =
      record_convolution(mpisim::MachineModel::nehalem_cluster(), 8, 12);
  const trace::ReplayResult base = trace::replay(tf, tf.header.machine, {});
  const trace::ReplayResult fast =
      trace::replay(tf, tf.header.machine, {.compute_scale = 0.5});
  const double base_conv = replayed_total(base, "CONVOLVE");
  const double fast_conv = replayed_total(fast, "CONVOLVE");
  EXPECT_LT(fast_conv, base_conv);
  EXPECT_NEAR(fast_conv / base_conv, 0.5, 0.1);
  EXPECT_LT(fast.makespan, base.makespan);
}

TEST(TraceReplay, TimelineIsMergedAndTimeOrdered) {
  const trace::TraceFile tf =
      record_convolution(mpisim::MachineModel::nehalem_cluster(), 4, 6);
  const trace::ReplayResult res =
      trace::replay(tf, tf.header.machine, {.timeline = true});
  ASSERT_FALSE(res.timeline.empty());
  std::map<int, int> depth;
  for (std::size_t i = 1; i < res.timeline.size(); ++i) {
    const auto& prev = res.timeline[i - 1];
    const auto& cur = res.timeline[i];
    EXPECT_TRUE(prev.t < cur.t || (prev.t == cur.t && prev.rank <= cur.rank))
        << "entry " << i << " out of order";
  }
  for (const auto& e : res.timeline) {
    depth[e.rank] += e.enter ? 1 : -1;
    EXPECT_GE(depth[e.rank], 0);
  }
  for (const auto& [rank, d] : depth) EXPECT_EQ(d, 0) << "rank " << rank;
}

TEST(TraceReplay, MissingSendCausesDiagnosedStall) {
  trace::TraceFile tf =
      record_convolution(mpisim::MachineModel::nehalem_cluster(), 4, 4);
  auto& events = tf.ranks[0].events;
  const auto it = std::find_if(events.begin(), events.end(),
                               [](const trace::Event& ev) {
                                 return ev.kind == trace::EventKind::SendPost;
                               });
  ASSERT_NE(it, events.end());
  // Divert the message to a sequence number nobody waits for: the receiver
  // blocks forever and the round-robin scheduler must diagnose the stall
  // (erasing the event instead would trip the backref check first).
  it->seq += 1000000;
  try {
    (void)trace::replay(tf, tf.header.machine, {});
    FAIL() << "replay of an inconsistent trace did not throw";
  } catch (const trace::TraceError& err) {
    EXPECT_NE(std::string(err.what()).find("stall"), std::string::npos)
        << err.what();
  }
}

TEST(TraceReplay, ClockRegressionIsDetected) {
  trace::TraceFile tf =
      record_convolution(mpisim::MachineModel::nehalem_cluster(), 4, 4);
  bool tampered = false;
  for (auto& ev : tf.ranks[2].events) {
    if (ev.has_time && ev.t_before > 0.0 &&
        ev.kind != trace::EventKind::Finalize) {
      ev.t_before = -1.0;
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  EXPECT_THROW((void)trace::replay(tf, tf.header.machine, {}),
               trace::TraceError);
}

TEST(TraceReplay, VerifyDetectsTamperedFooter) {
  trace::TraceFile tf =
      record_convolution(mpisim::MachineModel::nehalem_cluster(), 4, 4);
  ASSERT_FALSE(tf.ranks[1].totals.empty());
  tf.ranks[1].totals[0].inclusive += 1e-9;
  const trace::VerifyResult v = trace::verify_roundtrip(tf);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.detail.find("rank 1"), std::string::npos) << v.detail;
}

TEST(TraceReplay, RankCountMismatchIsRejected) {
  trace::TraceFile tf =
      record_convolution(mpisim::MachineModel::nehalem_cluster(), 4, 4);
  tf.ranks.pop_back();
  EXPECT_THROW((void)trace::replay(tf, tf.header.machine, {}),
               trace::TraceError);
}

// --- one walk per sweep ---------------------------------------------------

trace::TraceFile record_conv(int ranks, int steps, const std::string& progress,
                             std::uint64_t seed = 42) {
  mpisim::WorldOptions opts =
      options_for(mpisim::MachineModel::nehalem_cluster(), seed);
  opts.progress = mpisim::ProgressModel::parse(progress);
  mpisim::World world(ranks, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
  run_convolution(world, steps);
  return rec->finish();
}

/// The 64-rank, 10-step convolution under one progress model, recorded
/// once per test binary.
const trace::TraceFile& conv64(const std::string& progress) {
  static std::map<std::string, trace::TraceFile> cache;
  auto it = cache.find(progress);
  if (it == cache.end()) {
    it = cache.emplace(progress, record_conv(64, 10, progress)).first;
  }
  return it->second;
}

/// What run_sweep did per point before batching: resolve one grid point,
/// replay it on its own, render its rows, in grid order.
std::string reference_sweep(const trace::TraceFile& tf,
                            const serve::SweepQuery& q) {
  std::optional<double> t_seq;
  if (q.tseq > 0) t_seq = q.tseq;
  std::string out = trace::sweep_csv_header();
  for (const std::string& name : q.models) {
    const mpisim::MachineModel base =
        name == "recorded" ? tf.header.machine
                           : *mpisim::MachineModel::preset(name);
    for (const double ls : q.latency_scales) {
      for (const double bs : q.bandwidth_scales) {
        for (const std::string& c : q.compute_scales) {
          const double cs =
              c == "auto"
                  ? tf.header.machine.flops_per_core / base.flops_per_core
                  : std::stod(c);
          mpisim::MachineModel m = base;
          m.net.intra_node.latency *= ls;
          m.net.inter_node.latency *= ls;
          m.net.intra_node.bandwidth *= bs;
          m.net.inter_node.bandwidth *= bs;
          for (const std::string& p : q.progress) {
            const mpisim::ProgressModel pm =
                p == "recorded" ? tf.header.progress
                                : mpisim::ProgressModel::parse(p);
            const mpisim::MachineModel mp = trace::fold_progress(
                m, tf.header.progress, pm, name == "recorded");
            for (const double dr : q.drop_rates) {
              if (dr < 0.0 || dr >= 1.0) {
                throw trace::TraceError(
                    "bad drop-rates entry (need 0 <= p < 1)");
              }
              trace::ReplayOptions o;
              o.compute_scale = cs;
              o.progress = pm;
              if (dr > 0.0) {
                char spec[48];
                std::snprintf(spec, sizeof spec, "drop:p=%.9g", dr);
                o.faults = mpisim::faults::FaultPlan::parse(spec);
                o.fault_seed = q.fault_seed;
              }
              out += trace::sweep_csv_rows(trace::replay(tf, mp, o), name, ls,
                                           bs, cs, dr, pm.spec(), t_seq);
            }
          }
        }
      }
    }
  }
  return out;
}

/// The CSV, or "error: <what>" when the sweep throws.
template <class Fn>
std::string outcome(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return std::string("error: ") + e.what();
  }
}

/// run_sweep and the per-point reference agree byte for byte; returns the
/// shared outcome.
std::string expect_same_sweep(const trace::TraceFile& tf,
                              const serve::SweepQuery& q) {
  const std::string want = outcome([&] { return reference_sweep(tf, q); });
  const std::string got = outcome([&] { return serve::run_sweep(tf, q); });
  EXPECT_EQ(got, want);
  return got;
}

bool is_error(const std::string& outcome_text) {
  return outcome_text.rfind("error: ", 0) == 0;
}

std::size_t rows(const std::string& csv) {
  std::size_t n = 0;
  for (const char c : csv) n += c == '\n' ? 1 : 0;
  return n;
}

serve::SweepQuery model_grid() {
  serve::SweepQuery q;
  q.models = {"recorded", "knl", "broadwell-2s"};
  q.latency_scales = {0.5, 1.0, 2.0};
  q.bandwidth_scales = {1.0, 0.5};
  q.compute_scales = {"1", "auto"};
  q.tseq = 1.0;
  return q;
}

serve::SweepQuery drop_grid() {
  serve::SweepQuery q;
  q.drop_rates = {0.0, 0.01, 0.02, 0.05, 0.1};
  q.fault_seed = 17;
  return q;
}

serve::SweepQuery progress_grid() {
  serve::SweepQuery q;
  q.progress = {"recorded", "blocking-only", "opportunistic",
                "progress-thread"};
  q.drop_rates = {0.0, 0.02};
  return q;
}

TEST(SweepOneWalk, Conv64GridsMatchPerPointReplays) {
  for (const std::string progress :
       {"blocking-only", "opportunistic", "progress-thread"}) {
    const trace::TraceFile& tf = conv64(progress);
    for (const serve::SweepQuery& q :
         {model_grid(), drop_grid(), progress_grid()}) {
      SCOPED_TRACE(progress + " " + serve::canonical(q));
      const std::string got = expect_same_sweep(tf, q);
      EXPECT_FALSE(is_error(got)) << got;
    }
  }
}

TEST(SweepOneWalk, CiGridWithPartialLastBatchMatches) {
  // 36 points: four full batches of 8 and a last batch of 4.
  const trace::TraceFile tf = record_conv(16, 50, "blocking-only");
  serve::SweepQuery q;
  q.models = {"nehalem-cluster", "knl", "broadwell-2s"};
  q.latency_scales = {0.5, 1, 2, 4};
  q.bandwidth_scales = {0.5, 1, 2};
  q.compute_scales = {"auto"};
  const std::string got = expect_same_sweep(tf, q);
  ASSERT_FALSE(is_error(got)) << got;

  // The batch a point lands in does not change its rows: the three
  // single-model sweeps batch the same points differently.
  const std::string header = trace::sweep_csv_header();
  std::string joined = header;
  for (const std::string& model : q.models) {
    serve::SweepQuery one = q;
    one.models = {model};
    joined += serve::run_sweep(tf, one).substr(header.size());
  }
  EXPECT_EQ(got, joined);
}

TEST(SweepOneWalk, Lulesh64GridWithDropsMatches) {
  mpisim::World world(64, options_for(mpisim::MachineModel::knl()));
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "lulesh"});
  apps::lulesh::LuleshConfig cfg;
  cfg.s = 4;
  cfg.steps = 3;
  cfg.full_fidelity = false;
  apps::lulesh::LuleshApp app(cfg);
  world.run(std::ref(app));
  const trace::TraceFile tf = rec->finish();
  serve::SweepQuery q;
  q.models = {"recorded", "nehalem-cluster"};
  q.latency_scales = {1.0, 3.0};
  q.bandwidth_scales = {1.0, 0.25};
  q.drop_rates = {0.0, 0.03};
  const std::string got = expect_same_sweep(tf, q);
  EXPECT_FALSE(is_error(got)) << got;
  EXPECT_GT(rows(got), 16u);
}

TEST(SweepOneWalk, BatchEdgesMatch) {
  const trace::TraceFile& tf = conv64("blocking-only");
  const std::string header = trace::sweep_csv_header();
  // 1 point, exactly one full batch (8), and one point past it (9).
  for (const std::size_t n : {1u, 8u, 9u}) {
    serve::SweepQuery q;
    q.latency_scales.clear();
    for (std::size_t i = 0; i < n; ++i) {
      q.latency_scales.push_back(0.5 + 0.25 * static_cast<double>(i));
    }
    SCOPED_TRACE(n);
    const std::string got = expect_same_sweep(tf, q);
    ASSERT_FALSE(is_error(got)) << got;
    EXPECT_GT(rows(got), rows(header));
  }
}

TEST(SweepOneWalk, AutoComputeScaleAndFaultSeedMatch) {
  const trace::TraceFile& tf = conv64("opportunistic");
  serve::SweepQuery q;
  q.models = {"knl", "recorded"};
  q.compute_scales = {"auto", "0.5"};
  q.drop_rates = {0.0, 0.05};
  q.fault_seed = 0xC0FFEE;
  const std::string got = expect_same_sweep(tf, q);
  EXPECT_FALSE(is_error(got)) << got;
  // A different fault seed re-draws the drops.
  serve::SweepQuery other = q;
  other.fault_seed = 1;
  EXPECT_NE(expect_same_sweep(tf, other), got);
}

TEST(SweepOneWalk, BadDropRateAfterValidPointsKeepsItsError) {
  const trace::TraceFile& tf = conv64("blocking-only");
  serve::SweepQuery q;
  q.latency_scales = {1.0, 2.0};
  q.drop_rates = {0.0, 0.01, 1.5};
  EXPECT_EQ(expect_same_sweep(tf, q),
            "error: bad drop-rates entry (need 0 <= p < 1)");
}

TEST(SweepOneWalk, LostMessageThrowsThePerPointText) {
  const trace::TraceFile& tf = conv64("blocking-only");
  serve::SweepQuery q;
  q.latency_scales = {1.0, 2.0, 4.0};
  q.drop_rates = {0.0, 0.9};
  // The first failing point in grid order names the message, even where a
  // later point of the same walk loses an earlier one; an unknown model
  // after a failing point does not mask its error.
  serve::SweepQuery later_loses_first;
  later_loses_first.models = {"knl", "recorded"};
  later_loses_first.drop_rates = {0.5, 0.95};
  serve::SweepQuery bad_model_after = q;
  bad_model_after.models = {"recorded", "no-such-model"};
  for (const serve::SweepQuery& query :
       {q, later_loses_first, bad_model_after}) {
    const std::string got = expect_same_sweep(tf, query);
    EXPECT_TRUE(is_error(got)) << got.substr(0, 200);
    EXPECT_NE(got.find("lost under the fault plan"), std::string::npos)
        << got;
  }
}

TEST(SweepOneWalk, BatchedReplayEqualsOnePointReplays) {
  const trace::TraceFile& tf = conv64("progress-thread");
  std::vector<trace::WhatIfPoint> points;
  for (const std::string name : {"knl", "broadwell-2s", "nehalem-cluster"}) {
    for (const bool timeline : {false, true}) {
      trace::ReplayOptions o;
      o.timeline = timeline;
      o.collect_metrics = !timeline;
      points.push_back({*mpisim::MachineModel::preset(name), o});
    }
  }
  const std::vector<trace::ReplayResult> got = trace::replay(tf, points);
  ASSERT_EQ(got.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const trace::ReplayResult want =
        trace::replay(tf, points[i].machine, points[i].options);
    EXPECT_EQ(trace::render_json(got[i], 1.0), trace::render_json(want, 1.0));
    EXPECT_EQ(trace::render_chrome(got[i]), trace::render_chrome(want));
    EXPECT_EQ(got[i].final_times, want.final_times);
  }
}

/// verify_roundtrip as a same-model two-frame replay judged it: the
/// what-if frame against the recorded footer, or the replay's error.
std::string two_frame_verify(const trace::TraceFile& tf) {
  return outcome([&]() -> std::string {
    const trace::ReplayResult rr = trace::replay(tf, tf.header.machine, {});
    for (std::size_t r = 0; r < tf.ranks.size(); ++r) {
      const std::string rank = "rank " + std::to_string(r);
      if (rr.final_times[r] != tf.ranks[r].t_final) {
        return rank + ": final time diverged from recording";
      }
      const auto& got = rr.rank_totals[r];
      const auto& rec = tf.ranks[r].totals;
      if (got.size() != rec.size()) {
        return rank + ": section totals count mismatch";
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].comm != rec[i].comm || got[i].label != rec[i].label ||
            got[i].count != rec[i].count ||
            got[i].inclusive != rec[i].inclusive) {
          return rank + " section " + tf.labels[rec[i].label] +
                 ": totals diverged from recording";
        }
      }
    }
    return "ok";
  });
}

std::string verify_outcome(const trace::TraceFile& tf) {
  return outcome([&] {
    const trace::VerifyResult v = trace::verify_roundtrip(tf);
    return v.ok ? std::string("ok") : v.detail;
  });
}

TEST(SweepOneWalk, VerifyAgreesWithTwoFrameReplayOnCorruptClocks) {
  const trace::TraceFile clean = record_conv(8, 6, "progress-thread");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  /// Set the t_before of rank 3's n-th timestamped event (-1: the last).
  const auto corrupt = [&](int nth, double value) {
    trace::TraceFile tf = clean;
    std::vector<trace::Event*> timed;
    for (trace::Event& ev : tf.ranks[3].events) {
      if (ev.has_time) timed.push_back(&ev);
    }
    const auto at = nth < 0 ? timed.size() - 1 : static_cast<std::size_t>(nth);
    timed.at(at)->t_before = value;
    return tf;
  };
  std::vector<trace::TraceFile> cases;
  cases.push_back(clean);
  for (const int nth : {0, 2, 4, -1}) cases.push_back(corrupt(nth, nan));
  cases.push_back(corrupt(3, 1e9));
  cases.push_back(corrupt(3, -1.0));
  trace::TraceFile nan_start = clean;
  nan_start.ranks[5].t0 = nan;
  cases.push_back(nan_start);
  trace::TraceFile no_tax = clean;  // compute factor 0: 0/0 is NaN
  no_tax.header.progress.core_tax = -1.0;
  cases.push_back(no_tax);
  trace::TraceFile nan_overhead = clean;
  nan_overhead.header.machine.net.send_overhead = nan;
  cases.push_back(nan_overhead);

  std::size_t ok = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string want = two_frame_verify(cases[i]);
    EXPECT_EQ(verify_outcome(cases[i]), want) << "case " << i;
    ok += want == "ok" ? 1 : 0;
  }
  EXPECT_EQ(ok, 1u);  // only the clean trace verifies
}

}  // namespace
