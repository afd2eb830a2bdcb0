#include "minomp/team.hpp"

#include <algorithm>

namespace mpisect::minomp {
namespace {

int clamp_threads(int t) { return std::clamp(t, 1, 1024); }

/// Number of world ranks block-placed on the same node as `rank`.
int ranks_on_same_node(const mpisim::MachineModel& m, int rank,
                       int world_size) {
  const int cpn = std::max(m.net.cores_per_node, 1);
  const int node = rank / cpn;
  const int first = node * cpn;
  return std::max(1, std::min(world_size - first, cpn));
}

}  // namespace

Team::Team(mpisim::Ctx& ctx, int num_threads)
    : Team(ctx, num_threads, memory_model_for(ctx.machine())) {}

Team::Team(mpisim::Ctx& ctx, int num_threads, MemoryModel mem)
    : ctx_(ctx), threads_(clamp_threads(num_threads)), mem_(mem) {
  const auto& m = ctx_.machine();
  ranks_on_node_ = ranks_on_same_node(m, ctx_.rank(), ctx_.size());
  cores_avail_ = static_cast<double>(m.cores_per_node) /
                 static_cast<double>(ranks_on_node_);
}

void Team::charge_loop(std::int64_t n, double flops_per_iter,
                       const KernelProfile& kernel) {
  const double serial =
      ctx_.machine().compute_seconds(static_cast<double>(n) * flops_per_iter);
  charge_region(serial, kernel,
                chunk_count(schedule_, n, threads_, chunk_size_));
}

RegionCharge Team::charge_region(double serial_seconds,
                                 const KernelProfile& kernel,
                                 std::int64_t chunks_hint) {
  const RegionCharge charge =
      region_time(ctx_.machine(), mem_, kernel, serial_seconds, threads_,
                  cores_avail_, ranks_on_node_, schedule_, chunks_hint);
  const double t_before = ctx_.now();
  // Charge through Ctx::compute so the machine's compute noise applies.
  ctx_.compute(charge.total());
  ctx_.world().tool_stack().notify(
      &mpisim::hooks::Tool::on_omp_region, ctx_,
      mpisim::TapOmpRegion{threads_, serial_seconds, charge.compute,
                           charge.imbalance, charge.overhead, t_before});
  return charge;
}

RegionCharge Team::preview_region(double serial_seconds,
                                  const KernelProfile& kernel,
                                  int threads) const {
  return region_time(ctx_.machine(), mem_, kernel, serial_seconds,
                     clamp_threads(threads), cores_avail_, ranks_on_node_,
                     schedule_, 0);
}

}  // namespace mpisect::minomp
