// Scheduler throughput microbenchmarks (google-benchmark): wall-clock cost
// of running a fixed seeded convolution world on the fiber scheduler,
// across rank counts and worker pool sizes. The ranks/s counter is the
// number BENCH_*.json tracks — the paper-scale worlds (64+ ranks, Table 7)
// are only practical when it stays roughly flat as ranks grow past the core
// count. Every benchmark here runs on real time: the benchmark thread only
// waits while workers do the work, so its own CPU time would make any rate
// meaningless.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <ctime>
#include <functional>

#include "apps/convolution/convolution.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/session.hpp"

namespace {

using namespace mpisect;

mpisim::WorldOptions options(int workers) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.workers = workers;
  return opts;
}

void run_world(int ranks, const mpisim::WorldOptions& opts, int steps) {
  const auto world_ptr =
      mpisim::Session(ranks, opts).world_builder().build();
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 256;
  cfg.height = std::max(256, ranks);  // the decomposition needs a row per rank
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  benchmark::DoNotOptimize(world.elapsed());
}

void with_rank_counter(benchmark::State& state, int ranks) {
  state.counters["ranks_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(ranks),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ranks);
}

/// Fiber scheduler, default worker pool. Sweeps rank counts past what one
/// OS thread per rank could sensibly host on a small machine.
void BM_SchedulerCooperative(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto opts = options(0);
  for (auto _ : state) run_world(ranks, opts, /*steps=*/10);
  with_rank_counter(state, ranks);
}
BENCHMARK(BM_SchedulerCooperative)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Worker-pool sensitivity: serialized (1 worker) vs small pools, at 64
/// ranks and at 4096, where the ranks' state no longer fits in cache and
/// cross-core traffic between halo neighbours shows. Args are (ranks,
/// workers). Virtual-time results are identical either way; only
/// wall-clock changes. cpu_us_per_rank_step is process CPU time (every
/// worker) per rank per step: above its 1-worker value, the excess is
/// parallel overhead.
void BM_SchedulerWorkerSweep(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  constexpr int kSteps = 10;
  const auto opts = options(workers);
  const std::clock_t cpu0 = std::clock();
  for (auto _ : state) run_world(ranks, opts, kSteps);
  const double cpu_s =
      static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
  with_rank_counter(state, ranks);
  state.counters["cpu_us_per_rank_step"] =
      cpu_s * 1e6 /
      (static_cast<double>(state.iterations()) * ranks * kSteps);
}
BENCHMARK(BM_SchedulerWorkerSweep)
    ->ArgNames({"ranks", "workers"})
    ->ArgsProduct({{64, 4096}, {1, 2, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
