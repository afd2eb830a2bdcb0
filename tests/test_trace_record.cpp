// Recorder behaviour: same-seed determinism (byte-identical files), zero
// virtual-time perturbation, tool stacking with the profiler and checker in
// either order, teardown of a still-attached recorder with its World, and
// the delta/varint size bound for paper-scale runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "checker/checker.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"
#include "profiler/pcontrol.hpp"
#include "profiler/section_profiler.hpp"
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

void run_convolution(mpisim::World& world, int steps) {
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
}

trace::TraceFile record_convolution(std::uint64_t seed, int ranks,
                                    int steps) {
  mpisim::World world(ranks, jittery_options(seed));
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
  run_convolution(world, steps);
  return rec->finish();
}

TEST(TraceRecord, SameSeedRunsProduceByteIdenticalFiles) {
  const auto a = record_convolution(0x1234, 8, 15).encode();
  const auto b = record_convolution(0x1234, 8, 15).encode();
  EXPECT_EQ(a, b);
}

TEST(TraceRecord, DifferentSeedsProduceDifferentFiles) {
  const auto a = record_convolution(0x1234, 8, 15).encode();
  const auto b = record_convolution(0x9999, 8, 15).encode();
  EXPECT_NE(a, b);
}

TEST(TraceRecord, RecordingPerturbsVirtualTimeByExactlyZero) {
  std::vector<double> bare;
  {
    mpisim::World world(8, jittery_options());
    sections::SectionRuntime::install(world);
    run_convolution(world, 15);
    bare = world.final_times();
  }
  std::vector<double> recorded;
  {
    mpisim::World world(8, jittery_options());
    sections::SectionRuntime::install(world);
    auto rec = trace::TraceRecorder::install(world, {});
    run_convolution(world, 15);
    recorded = world.final_times();
  }
  ASSERT_EQ(bare.size(), recorded.size());
  for (std::size_t r = 0; r < bare.size(); ++r) {
    EXPECT_EQ(bare[r], recorded[r]) << "rank " << r;  // bitwise, not approx
  }
}

TEST(TraceRecord, InstallIsIdempotent) {
  mpisim::World world(2, jittery_options());
  sections::SectionRuntime::install(world);
  auto a = trace::TraceRecorder::install(world, {});
  auto b = trace::TraceRecorder::install(world, {});
  EXPECT_EQ(a.get(), b.get());
}

// Every tool attaches to the world's ToolStack, so profiler + checker +
// tracer stack in any install order, and each tool still sees every event.
void check_stacked(bool recorder_last) {
  mpisim::World world(4, jittery_options());
  sections::SectionRuntime::install(world);
  std::shared_ptr<trace::TraceRecorder> rec;
  std::unique_ptr<profiler::SectionProfiler> prof;
  std::shared_ptr<checker::MpiChecker> chk;
  if (recorder_last) {
    prof = std::make_unique<profiler::SectionProfiler>(world);
    chk = checker::MpiChecker::install(world);
    rec = trace::TraceRecorder::install(world, {});
  } else {
    rec = trace::TraceRecorder::install(world, {});
    prof = std::make_unique<profiler::SectionProfiler>(world);
    chk = checker::MpiChecker::install(world);
  }
  run_convolution(world, 8);

  const trace::TraceFile tf = rec->finish();
  EXPECT_GT(tf.total_events(), 0u);
  const auto verdict = trace::verify_roundtrip(tf);
  EXPECT_TRUE(verdict.ok) << verdict.detail;

  EXPECT_GT(prof->main_time(), 0.0);  // profiler still observed sections
  chk->analyze();
  EXPECT_TRUE(chk->diagnostics().empty());  // checker still saw clean run
}

// Pcontrol phases are a tool like the recorder: neither construction
// order disconnects the other from the Pcontrol events of a 2-rank run.
void check_pcontrol_reaches_both(bool recorder_first) {
  mpisim::World world(2, jittery_options());
  std::shared_ptr<trace::TraceRecorder> rec;
  std::unique_ptr<profiler::PcontrolPhases> phases;
  if (recorder_first) {
    rec = trace::TraceRecorder::install(world, {});
    phases = std::make_unique<profiler::PcontrolPhases>(world);
  } else {
    phases = std::make_unique<profiler::PcontrolPhases>(world);
    rec = trace::TraceRecorder::install(world, {});
  }
  world.run([](mpisim::Ctx& ctx) {
    ctx.pcontrol(1, "phase");
    ctx.compute_exact(0.5);
    ctx.pcontrol(-1, "phase");
  });
  const trace::TraceFile tf = rec->finish();
  std::size_t recorded = 0;
  for (const auto& rank : tf.ranks) {
    for (const auto& ev : rank.events) {
      if (ev.kind == trace::EventKind::Pcontrol) ++recorded;
    }
  }
  EXPECT_EQ(recorded, 4u);
  EXPECT_EQ(phases->total_phase("phase").count, 2);
  EXPECT_NEAR(phases->total_phase("phase").total, 1.0, 1e-12);
}

TEST(TraceRecord, PcontrolReachesRecorderAndPhasesRecorderFirst) {
  check_pcontrol_reaches_both(/*recorder_first=*/true);
}

TEST(TraceRecord, PcontrolReachesRecorderAndPhasesPhasesFirst) {
  check_pcontrol_reaches_both(/*recorder_first=*/false);
}

TEST(TraceRecord, StacksWithProfilerAndCheckerRecorderLast) {
  check_stacked(/*recorder_last=*/true);
}

TEST(TraceRecord, StacksWithProfilerAndCheckerRecorderFirst) {
  check_stacked(/*recorder_last=*/false);
}

/// An extension that is also a tool, like the recorder: it notes the size
/// of the tool stack its destructor finds, then detaches.
class StackProbe final : public mpisim::Extension,
                         public mpisim::hooks::Tool {
 public:
  StackProbe(mpisim::World& world, std::size_t& seen)
      : world_(&world), seen_(&seen) {
    world.tool_stack().attach(this, mpisim::hooks::kOrderRecorder);
  }
  ~StackProbe() override {
    *seen_ = world_->tool_stack().size();
    world_->tool_stack().detach(this);
  }
  StackProbe(const StackProbe&) = delete;
  StackProbe& operator=(const StackProbe&) = delete;

 private:
  mpisim::World* world_;
  std::size_t* seen_;
};

// The World owns the last reference to a recorder nobody detached, so the
// recorder detaches inside ~World; the tool stack must still be alive then.
TEST(TraceRecord, WorldTeardownDetachesAnAttachedRecorder) {
  std::size_t stack_size_at_teardown = 0;
  std::weak_ptr<trace::TraceRecorder> weak;
  {
    mpisim::World world(2, jittery_options());
    sections::SectionRuntime::install(world);
    world.attach_extension(
        std::make_shared<StackProbe>(world, stack_size_at_teardown));
    auto rec = trace::TraceRecorder::install(world, {});
    run_convolution(world, 2);
    EXPECT_GT(rec->finish().total_events(), 0u);
    weak = rec;
  }
  EXPECT_TRUE(weak.expired());
  EXPECT_GE(stack_size_at_teardown, 1u)
      << "an extension's destructor saw a fresh tool stack, not the live one";
}

TEST(TraceRecord, HeaderCarriesProvenance) {
  const trace::TraceFile tf = record_convolution(0xABCD, 4, 5);
  EXPECT_EQ(tf.header.app, "convolution");
  EXPECT_EQ(tf.header.seed, 0xABCDu);
  EXPECT_EQ(tf.header.nranks, 4);
  EXPECT_EQ(tf.header.machine.name, "nehalem-cluster");
  EXPECT_EQ(tf.ranks.size(), 4u);
}

TEST(TraceRecord, LabelTableIsLexicographic) {
  const trace::TraceFile tf = record_convolution(0x5EED, 4, 5);
  ASSERT_GT(tf.labels.size(), 1u);
  for (std::size_t i = 1; i < tf.labels.size(); ++i) {
    EXPECT_LT(tf.labels[i - 1], tf.labels[i]);
  }
}

// Acceptance bound: a 64-rank x 1000-step convolution trace stays "a few
// MB" thanks to delta/varint encoding — and well under 10 bytes/event.
TEST(TraceRecord, PaperScaleTraceStaysSmall) {
  const trace::TraceFile tf = record_convolution(0x5EED, 64, 1000);
  const auto bytes = tf.encode();
  const std::uint64_t events = tf.total_events();
  ASSERT_GT(events, 0u);
  EXPECT_LT(bytes.size(), 8u * 1024 * 1024)
      << events << " events, " << bytes.size() << " bytes";
  EXPECT_LT(static_cast<double>(bytes.size()) / static_cast<double>(events),
            10.0);
}

}  // namespace
