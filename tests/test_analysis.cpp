// Offline happens-before analyzer: recorded-frame interpretation must be
// bit-identical to the replay's recorded frame (critical-path total ==
// replay makespan exactly), match sets must flag the seeded wildcard race
// with the concrete alternate sender, the latent-deadlock pass must find
// the wait-for cycle an alternate matching produces in a run that
// completed, and deterministic traces must analyze to zero findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/report.hpp"
#include "apps/convolution/convolution.hpp"
#include "checker/diagnostics.hpp"
#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/message.hpp"
#include "mpisim/progress.hpp"
#include "mpisim/runtime.hpp"
#include "telemetry/registry.hpp"
#include "trace/events.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace {

using namespace mpisect;

mpisim::WorldOptions jittery_options(std::uint64_t seed = 0x5EED) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = seed;
  return opts;
}

trace::TraceFile record_body(int ranks,
                             const std::function<void(mpisim::Ctx&)>& body,
                             const mpisim::WorldOptions& opts) {
  mpisim::World world(ranks, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "fixture"});
  world.run(body);
  return rec->finish();
}

trace::TraceFile record_body(int ranks,
                             const std::function<void(mpisim::Ctx&)>& body,
                             std::uint64_t seed = 0x5EED) {
  return record_body(ranks, body, jittery_options(seed));
}

trace::TraceFile record_convolution(
    int ranks, int steps, const mpisim::WorldOptions& opts = jittery_options()) {
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  return record_body(ranks, std::ref(app), opts);
}

// Rank 0's wildcard receive has two concurrent eligible senders (rank 1,
// recorded, and the causally independent rank 2). Both matchings complete.
void race_body(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  char buf[4] = {};
  static const char payload[4] = {};
  switch (world.rank()) {
    case 0:
      world.recv(buf, sizeof buf, mpisim::kAnySource, 5);
      world.recv(buf, sizeof buf, mpisim::kAnySource, 5);
      break;
    case 1:
      world.send(payload, sizeof payload, 0, 5);
      world.send(payload, sizeof payload, 2, 9);
      break;
    case 2:
      world.recv(buf, sizeof buf, 1, 9);
      world.send(payload, sizeof payload, 0, 5);
      break;
    default:
      break;
  }
}

// Same race, but the alternate matching starves rank 0's second receive
// while rank 2 waits on rank 0: a latent 0 <-> 2 wait-for cycle.
void latent_body(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  char buf[4] = {};
  static const char payload[4] = {};
  switch (world.rank()) {
    case 0:
      world.recv(buf, sizeof buf, mpisim::kAnySource, 5);
      world.recv(buf, sizeof buf, 2, 5);
      world.send(payload, sizeof payload, 2, 6);
      break;
    case 1:
      world.send(payload, sizeof payload, 0, 5);
      world.send(payload, sizeof payload, 2, 9);
      break;
    case 2:
      world.recv(buf, sizeof buf, 1, 9);
      world.send(payload, sizeof payload, 0, 5);
      world.recv(buf, sizeof buf, 0, 6);
      break;
    default:
      break;
  }
}

TEST(AnalysisInterp, ReproducesRecordedFinalTimesBitExactly) {
  const trace::TraceFile tf = record_convolution(8, 10);
  const analysis::InterpResult in = analysis::interpret(tf);
  ASSERT_EQ(in.final_times.size(), tf.ranks.size());
  for (std::size_t r = 0; r < tf.ranks.size(); ++r) {
    EXPECT_EQ(in.final_times[r], tf.ranks[r].t_final) << "rank " << r;
  }
}

TEST(AnalysisInterp, MakespanMatchesReplayBitExactly) {
  const trace::TraceFile tf = record_convolution(8, 10);
  const analysis::InterpResult in = analysis::interpret(tf);
  const trace::ReplayResult rr = trace::replay(tf, tf.header.machine);
  EXPECT_EQ(in.makespan, rr.makespan);  // bitwise, not approx
}

// Sums exit minus enter times of interpret() per (rank, comm, label) and
// compares them bit for bit with the totals the live run recorded in the
// footer. This checks the analyzer against the recording itself, not
// against replay: under progress-thread every rendezvous delivery carries
// the thread latency, and a walk that drops it shifts the event times
// inside a section while Finalize still re-adopts the recorded clock.
TEST(AnalysisInterp,
     SectionTotalsFromEventTimesMatchFooterUnderEveryProgressModel) {
  const auto rendezvous = [](mpisim::Ctx& ctx) {
    mpisim::Comm world = ctx.world_comm();
    std::vector<char> buf(64 * 1024);
    sections::MPIX_Section_enter(world, "XFER");
    if (world.rank() == 0) {
      world.send(buf.data(), buf.size(), 1, 7);
    } else {
      world.recv(buf.data(), buf.size(), 0, 7);
    }
    sections::MPIX_Section_exit(world, "XFER");
  };
  for (const char* spec : {"blocking-only", "opportunistic", "progress-thread"}) {
    mpisim::WorldOptions opts = jittery_options();
    opts.progress = mpisim::ProgressModel::parse(spec);
    const trace::TraceFile fixtures[] = {record_body(2, rendezvous, opts),
                                         record_convolution(64, 10, opts)};
    for (const trace::TraceFile& tf : fixtures) {
      const analysis::InterpResult in = analysis::interpret(tf);
      std::size_t compared = 0;
      for (std::size_t r = 0; r < tf.ranks.size(); ++r) {
        const auto& events = tf.ranks[r].events;
        std::vector<std::pair<std::pair<int, std::uint32_t>, double>> open;
        std::map<std::pair<int, std::uint32_t>, double> sums;
        for (std::size_t i = 0; i < events.size(); ++i) {
          const double t = in.times[r][i].t;
          if (events[i].kind == trace::EventKind::SectionEnter) {
            open.push_back({{events[i].comm, events[i].label}, t});
          } else if (events[i].kind == trace::EventKind::SectionExit) {
            ASSERT_FALSE(open.empty());
            sums[open.back().first] += t - open.back().second;
            open.pop_back();
          }
        }
        ASSERT_EQ(sums.size(), tf.ranks[r].totals.size()) << spec;
        for (const trace::SectionTotal& tot : tf.ranks[r].totals) {
          const std::pair<int, std::uint32_t> key{tot.comm, tot.label};
          EXPECT_EQ(sums[key], tot.inclusive)  // bitwise
              << spec << " rank " << r << " label " << tf.labels[tot.label];
          ++compared;
        }
      }
      EXPECT_GT(compared, 0u) << spec;
    }
  }
}

TEST(AnalysisInterp, DeterministicTraceSkipsVectorClocks) {
  const trace::TraceFile tf = record_convolution(4, 5);
  const analysis::InterpResult in = analysis::interpret(tf);
  EXPECT_FALSE(in.has_wildcard);
  EXPECT_TRUE(in.envelopes_recorded);
  EXPECT_TRUE(in.clocks.empty());
}

TEST(AnalysisCriticalPath, TotalEqualsReplayMakespanBitExactly) {
  const trace::TraceFile tf = record_convolution(8, 10);
  const analysis::AnalysisResult res = analysis::analyze(tf);
  const trace::ReplayResult rr = trace::replay(tf, tf.header.machine);
  EXPECT_EQ(res.critical_path.t_total, rr.makespan);  // bitwise
  EXPECT_EQ(res.critical_path.end_rank, res.interp.last_rank);
  EXPECT_GT(res.critical_path.length, 0u);
}

TEST(AnalysisCriticalPath, SlackOfLastRankIsZero) {
  const trace::TraceFile tf = record_convolution(8, 10);
  const analysis::AnalysisResult res = analysis::analyze(tf);
  ASSERT_GE(res.critical_path.end_rank, 0);
  EXPECT_EQ(res.critical_path.rank_slack[static_cast<std::size_t>(
                res.critical_path.end_rank)],
            0.0);
}

TEST(AnalysisRaces, FlagsWildcardRaceWithConcreteAlternate) {
  const trace::TraceFile tf = record_body(3, race_body);
  const analysis::AnalysisResult res = analysis::analyze(tf);
  ASSERT_EQ(res.races.size(), 1u);
  const analysis::RaceFinding& rf = res.races[0];
  const analysis::RecvInfo& rv = res.interp.recvs[rf.recv_slot];
  EXPECT_EQ(rv.rank, 0);
  EXPECT_EQ(rv.post_src, mpisim::kAnySource);
  ASSERT_EQ(rf.alternates.size(), 1u);
  // The recorded match is rank 1 (causally first); the alternate is the
  // concurrent rank 2 send.
  EXPECT_EQ(rv.matched_src, 1);
  EXPECT_EQ(rf.alternates[0].src, 2);
  EXPECT_EQ(rf.alternates[0].tag, 5);
  // Both matchings complete: no latent deadlock.
  EXPECT_TRUE(res.latent.empty());
}

TEST(AnalysisRaces, RaceDiagnosticNamesAllAlternateSenders) {
  const trace::TraceFile tf = record_body(3, race_body);
  const analysis::AnalysisResult res = analysis::analyze(tf);
  ASSERT_EQ(res.diagnostics.size(), 1u);
  const checker::Diagnostic& d = res.diagnostics[0];
  EXPECT_EQ(d.category, checker::Category::MessageRace);
  EXPECT_EQ(d.severity, checker::Severity::Warning);
  EXPECT_EQ(d.rank, 0);
  EXPECT_NE(d.message.find("rank 2"), std::string::npos);
  EXPECT_NE(d.site.find("ANY_SOURCE"), std::string::npos);
}

TEST(AnalysisLatent, FindsWaitForCycleInAlternateMatching) {
  const trace::TraceFile tf = record_body(3, latent_body);
  const analysis::AnalysisResult res = analysis::analyze(tf);
  ASSERT_EQ(res.races.size(), 1u);
  ASSERT_EQ(res.latent.size(), 1u);
  const analysis::LatentDeadlock& ld = res.latent[0];
  EXPECT_EQ(ld.forced.src, 2);
  ASSERT_EQ(ld.analysis.cycles.size(), 1u);
  const auto& cyc = ld.analysis.cycles[0].ranks;
  EXPECT_EQ(cyc.size(), 2u);
  EXPECT_NE(std::find(cyc.begin(), cyc.end(), 0), cyc.end());
  EXPECT_NE(std::find(cyc.begin(), cyc.end(), 2), cyc.end());
  // Lowered as an error diagnostic (races are warnings).
  ASSERT_EQ(res.diagnostics.size(), 2u);
  EXPECT_EQ(res.diagnostics[1].category, checker::Category::LatentDeadlock);
  EXPECT_EQ(res.diagnostics[1].severity, checker::Severity::Error);
  EXPECT_EQ(res.error_count(), 1u);
}

TEST(AnalysisLatent, CompletedAlternateMatchingIsNotReported) {
  const trace::TraceFile tf = record_body(3, race_body);
  const analysis::AnalysisResult res = analysis::analyze(tf);
  EXPECT_EQ(res.races.size(), 1u);
  EXPECT_TRUE(res.latent.empty());
  EXPECT_EQ(res.error_count(), 0u);
}

TEST(AnalysisClean, DeterministicTraceHasZeroFindings) {
  const trace::TraceFile tf = record_convolution(8, 10);
  const analysis::AnalysisResult res = analysis::analyze(tf);
  EXPECT_TRUE(res.diagnostics.empty());
  EXPECT_TRUE(res.races.empty());
  EXPECT_TRUE(res.latent.empty());
  EXPECT_EQ(res.finding_count(), 0u);
}

TEST(AnalysisCompat, MissingEnvelopesSkipRacePassesWithInfoDiag) {
  trace::TraceFile tf = record_body(3, race_body);
  // Simulate a pre-v3 trace: strip the posted envelopes.
  for (auto& rs : tf.ranks) {
    for (auto& ev : rs.events) {
      if (ev.kind == trace::EventKind::RecvPost ||
          ev.kind == trace::EventKind::Probe) {
        ev.post_src = trace::Event::kNotRecorded;
        ev.tag = 0;
      }
    }
  }
  const analysis::AnalysisResult res = analysis::analyze(tf);
  EXPECT_FALSE(res.interp.envelopes_recorded);
  EXPECT_TRUE(res.races.empty());
  EXPECT_TRUE(res.latent.empty());
  ASSERT_EQ(res.diagnostics.size(), 1u);
  EXPECT_EQ(res.diagnostics[0].severity, checker::Severity::Info);
  EXPECT_EQ(res.finding_count(), 0u);  // Info is not a finding: exit 0
  // The critical path is still available — it needs no envelopes.
  const trace::ReplayResult rr = trace::replay(tf, tf.header.machine);
  EXPECT_EQ(res.critical_path.t_total, rr.makespan);
}

TEST(AnalysisDeterminism, SameTraceAnalyzesToByteIdenticalReports) {
  const trace::TraceFile tf = record_body(3, latent_body);
  const analysis::AnalysisResult a = analysis::analyze(tf);
  const analysis::AnalysisResult b = analysis::analyze(tf);
  EXPECT_EQ(analysis::render_json(a), analysis::render_json(b));
  EXPECT_EQ(analysis::render_text(a), analysis::render_text(b));
}

TEST(AnalysisSections, CriticalPathAttributesSectionTime) {
  const auto body = [](mpisim::Ctx& ctx) {
    mpisim::Comm world = ctx.world_comm();
    sections::MPIX_Section_enter(world, "RING");
    char buf[8] = {};
    static const char payload[8] = {};
    const int next = (world.rank() + 1) % world.size();
    const int prev = (world.rank() + world.size() - 1) % world.size();
    for (int i = 0; i < 4; ++i) {
      if (world.rank() == 0) {
        world.send(payload, sizeof payload, next, 3);
        world.recv(buf, sizeof buf, prev, 3);
      } else {
        world.recv(buf, sizeof buf, prev, 3);
        world.send(payload, sizeof payload, next, 3);
      }
    }
    sections::MPIX_Section_exit(world, "RING");
  };
  const trace::TraceFile tf = record_body(3, body);
  const analysis::AnalysisResult res = analysis::analyze(tf);
  EXPECT_TRUE(res.diagnostics.empty());
  double ring_s = 0.0;
  double total_s = 0.0;
  for (const auto& sec : res.critical_path.sections) {
    total_s += sec.seconds;
    if (sec.label < res.labels.size() && res.labels[sec.label] == "RING") {
      ring_s += sec.seconds;
    }
  }
  EXPECT_GT(ring_s, 0.0);
  EXPECT_GE(ring_s / total_s, 0.9);  // the ring dominates the path
}

TEST(AnalysisTelemetry, CountersMatchFindingsAndPath) {
  const trace::TraceFile tf = record_body(3, latent_body);
  const analysis::AnalysisResult res = analysis::analyze(tf);
  telemetry::Registry reg(res.nranks);
  analysis::fill_telemetry(res, reg);
  const auto races = reg.find("analysis.races");
  const auto latent = reg.find("analysis.latent_deadlocks");
  const auto pev = reg.find("analysis.path_events");
  ASSERT_TRUE(races && latent && pev);
  EXPECT_EQ(reg.value(*races, 0), 1.0);  // the race is at rank 0
  EXPECT_EQ(reg.total(*races), 1.0);
  EXPECT_EQ(reg.total(*latent), 1.0);
  EXPECT_EQ(reg.total(*pev),
            static_cast<double>(res.critical_path.length));
}

}  // namespace
