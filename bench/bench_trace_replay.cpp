// Microbenchmarks (google-benchmark) of the trace subsystem: host-time
// recording overhead per event, encode/decode throughput, and replay
// throughput in events/s — the costs that decide whether "record one run,
// replay thousands of what-ifs" is actually cheaper than re-running, and
// what a sweep costs per point when its points share one walk.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>

#include "apps/convolution/convolution.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/session.hpp"
#include "serve/queries.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace {

using namespace mpisect;

mpisim::WorldOptions nehalem_options() {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  return opts;
}

void run_convolution(mpisim::World& world, int steps) {
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
}

trace::TraceFile record_convolution(int ranks, int steps) {
  const auto world_ptr =
      mpisim::Session(ranks, nehalem_options()).world_builder().build();
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
  run_convolution(world, steps);
  return rec->finish();
}

/// Simulated ranks retired per wall-clock second — the scheduler-throughput
/// number BENCH_*.json tracks alongside events/s.
void add_ranks_per_second(benchmark::State& state, int ranks) {
  state.counters["ranks_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(ranks),
      benchmark::Counter::kIsRate);
}

/// Host cost of one instrumented run WITHOUT the recorder (baseline).
void BM_RunWithoutRecorder(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto world_ptr2 =
        mpisim::Session(8, nehalem_options()).world_builder().build();
    mpisim::World& world = *world_ptr2;
    sections::SectionRuntime::install(world);
    run_convolution(world, steps);
    benchmark::DoNotOptimize(world.elapsed());
  }
  add_ranks_per_second(state, 8);
}
BENCHMARK(BM_RunWithoutRecorder)->Arg(20)->Unit(benchmark::kMillisecond);

/// Host cost of the same run WITH the recorder attached; the per-event
/// overhead is (this - baseline) / events.
void BM_RunWithRecorder(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto world_ptr3 =
        mpisim::Session(8, nehalem_options()).world_builder().build();
    mpisim::World& world = *world_ptr3;
    sections::SectionRuntime::install(world);
    auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
    run_convolution(world, steps);
    const trace::TraceFile tf = rec->finish();
    events = tf.total_events();
    benchmark::DoNotOptimize(tf.ranks.size());
  }
  state.counters["events"] = static_cast<double>(events);
  add_ranks_per_second(state, 8);
}
BENCHMARK(BM_RunWithRecorder)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_Encode(benchmark::State& state) {
  const trace::TraceFile tf = record_convolution(8, 50);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto buf = tf.encode();
    bytes = buf.size();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.counters["bytes_per_event"] =
      static_cast<double>(bytes) / static_cast<double>(tf.total_events());
}
BENCHMARK(BM_Encode);

void BM_Decode(benchmark::State& state) {
  const auto bytes = record_convolution(8, 50).encode();
  for (auto _ : state) {
    const trace::TraceFile tf = trace::TraceFile::decode(bytes);
    benchmark::DoNotOptimize(tf.ranks.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Decode);

/// Replay throughput: virtual what-if evaluation speed in events/s. This is
/// the number that makes parameter sweeps cheap — compare against
/// BM_RunWithoutRecorder for the speedup over re-running the app.
void BM_ReplaySameModel(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const trace::TraceFile tf = record_convolution(ranks, 50);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const trace::ReplayResult res = trace::replay(tf, tf.header.machine, {});
    events = res.events;
    benchmark::DoNotOptimize(res.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  add_ranks_per_second(state, ranks);
}
BENCHMARK(BM_ReplaySameModel)->Arg(8)->Arg(32);

void BM_ReplayWhatIfSweepPoint(benchmark::State& state) {
  const trace::TraceFile tf = record_convolution(8, 50);
  mpisim::MachineModel knl = mpisim::MachineModel::knl();
  trace::ReplayOptions opts;
  opts.compute_scale =
      tf.header.machine.flops_per_core / knl.flops_per_core;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const trace::ReplayResult res = trace::replay(tf, knl, opts);
    events = res.events;
    benchmark::DoNotOptimize(res.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ReplayWhatIfSweepPoint);

/// A 2x2x2 what-if sweep (two models, two latency and two bandwidth
/// scales) of the 32-rank trace BM_ReplaySameModel/32 replays. Its 8
/// points share one walk: compare against 8x that per-point cost.
void BM_SweepEightPoints(benchmark::State& state) {
  const trace::TraceFile tf = record_convolution(32, 50);
  serve::SweepQuery q;
  q.models = {"recorded", "knl"};
  q.latency_scales = {1.0, 2.0};
  q.bandwidth_scales = {1.0, 0.5};
  for (auto _ : state) {
    const std::string csv = serve::run_sweep(tf, q);
    benchmark::DoNotOptimize(csv.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * tf.total_events()));
  state.counters["points"] = 8;
}
BENCHMARK(BM_SweepEightPoints)->Unit(benchmark::kMillisecond);

}  // namespace
