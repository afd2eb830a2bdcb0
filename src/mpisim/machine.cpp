#include "mpisim/machine.hpp"

#include <algorithm>
#include <cmath>

#include "support/strings.hpp"

namespace mpisect::mpisim {

double MachineModel::thread_capacity(int threads,
                                     double cores_avail) const noexcept {
  if (threads <= 0 || cores_avail <= 0.0) return 0.0;
  // Threads pack cores layer by layer: the first `cores_avail` threads get
  // full cores, the next layer shares via SMT at smt_yield[1], and so on.
  // Beyond hw_threads_per_core layers the OS time-slices: zero marginal
  // throughput (handled by the caller's oversubscription penalty).
  double capacity = 0.0;
  double remaining = threads;
  for (int layer = 0; layer < hw_threads_per_core && remaining > 0.0;
       ++layer) {
    const double in_layer = std::min(remaining, cores_avail);
    capacity += in_layer * smt_yield[static_cast<std::size_t>(
                               std::min(layer, 3))];
    remaining -= in_layer;
  }
  return std::max(capacity, 1e-9);
}

MachineModel MachineModel::nehalem_cluster() {
  MachineModel m;
  m.name = "nehalem-cluster";
  m.cores_per_node = 8;
  m.nodes = 57;  // 456 cores
  m.hw_threads_per_core = 1;  // hyper-threading disabled on the testbed
  m.flops_per_core = 2.2e9;
  m.compute_noise_sigma = 0.02;
  m.net.cores_per_node = 8;
  m.net.intra_node = LinkParams{0.6e-6, 5.0e9};
  m.net.inter_node = LinkParams{2.8e-6, 2.5e9};
  m.net.send_overhead = 4e-7;
  m.net.recv_overhead = 4e-7;
  m.net.eager_threshold = 16 * 1024;
  // Heavy-tailed noise: occasional OS/network stalls of hundreds of
  // milliseconds. With hundreds of messages per time-step these propagate
  // through halo dependencies and dominate the HALO section at scale —
  // the paper's "accumulation of variability" (Sec. 5.1).
  m.net.jitter.kind = JitterModel::Kind::Lognormal;
  m.net.jitter.rel_sigma = 0.22;
  m.net.jitter.add_sigma = 4e-6;
  m.net.jitter.spike_prob = 0.008;
  m.net.jitter.spike_mean = 0.25;
  m.omp.fork_join_base = 1.5e-6;
  m.omp.fork_join_per_thread = 4e-7;
  return m;
}

MachineModel MachineModel::knl() {
  MachineModel m;
  m.name = "knl";
  m.cores_per_node = 68;
  m.nodes = 1;
  m.hw_threads_per_core = 4;
  // KNL cores are slow scalar engines; the paper's sequential Lulesh run
  // takes 882 s vs the Broadwell's ~what a workstation core delivers.
  m.flops_per_core = 0.9e9;
  m.smt_yield = {1.0, 0.32, 0.18, 0.10};
  m.compute_noise_sigma = 0.012;
  m.net.cores_per_node = 272;  // all ranks share the node (shared memory)
  m.net.intra_node = LinkParams{0.9e-6, 6.0e9};
  m.net.inter_node = LinkParams{0.9e-6, 6.0e9};
  m.net.send_overhead = 6e-7;
  m.net.recv_overhead = 6e-7;
  m.net.jitter.kind = JitterModel::Kind::Lognormal;
  m.net.jitter.rel_sigma = 0.10;
  m.net.jitter.add_sigma = 2e-6;
  // "OpenMP overhead tends to increase more rapidly than on the Broadwell"
  // (paper Sec. 5.2): larger per-thread fork/join and barrier terms.
  m.omp.fork_join_base = 6e-6;
  m.omp.fork_join_per_thread = 2.2e-6;
  m.omp.barrier_log_cost = 4e-6;
  m.omp.static_imbalance = 0.05;
  m.omp.oversubscription_penalty = 1.6;
  return m;
}

MachineModel MachineModel::broadwell_2s() {
  MachineModel m;
  m.name = "broadwell-2s";
  m.cores_per_node = 36;  // 2 sockets x 18 cores
  m.nodes = 1;
  m.hw_threads_per_core = 2;
  m.flops_per_core = 3.6e9;
  m.smt_yield = {1.0, 0.25, 0.0, 0.0};
  m.compute_noise_sigma = 0.008;
  m.net.cores_per_node = 72;
  m.net.intra_node = LinkParams{0.5e-6, 9.0e9};
  m.net.inter_node = LinkParams{0.5e-6, 9.0e9};
  m.net.send_overhead = 3e-7;
  m.net.recv_overhead = 3e-7;
  m.net.jitter.kind = JitterModel::Kind::Lognormal;
  m.net.jitter.rel_sigma = 0.08;
  m.net.jitter.add_sigma = 1e-6;
  m.omp.fork_join_base = 1.8e-6;
  m.omp.fork_join_per_thread = 4.5e-7;
  m.omp.barrier_log_cost = 1.2e-6;
  m.omp.static_imbalance = 0.03;
  m.omp.oversubscription_penalty = 1.35;
  return m;
}

MachineModel MachineModel::ideal(int cores_per_node, int nodes) {
  MachineModel m;
  m.name = "ideal";
  m.cores_per_node = cores_per_node;
  m.nodes = nodes;
  m.hw_threads_per_core = 1;
  m.flops_per_core = 1.0e9;
  m.smt_yield = {1.0, 0.0, 0.0, 0.0};
  m.compute_noise_sigma = 0.0;
  m.net.cores_per_node = cores_per_node;
  m.net.intra_node = LinkParams{1e-6, 10.0e9};
  m.net.inter_node = LinkParams{2e-6, 5.0e9};
  m.net.send_overhead = 1e-7;
  m.net.recv_overhead = 1e-7;
  m.net.jitter.kind = JitterModel::Kind::None;
  m.omp.fork_join_base = 1e-6;
  m.omp.fork_join_per_thread = 1e-7;
  m.omp.barrier_log_cost = 0.0;
  m.omp.static_imbalance = 0.0;
  return m;
}

std::optional<MachineModel> MachineModel::preset(std::string_view name) {
  if (name == "nehalem-cluster" || name == "nehalem") {
    return nehalem_cluster();
  }
  if (name == "knl") return knl();
  if (name == "broadwell-2s" || name == "broadwell") return broadwell_2s();
  if (name == "ideal") return ideal();
  return std::nullopt;
}

std::vector<std::string> MachineModel::preset_names() {
  return {"nehalem-cluster", "knl", "broadwell-2s", "ideal"};
}

namespace {

const char* jitter_kind_name(JitterModel::Kind k) noexcept {
  switch (k) {
    case JitterModel::Kind::None: return "none";
    case JitterModel::Kind::Gaussian: return "gaussian";
    case JitterModel::Kind::Lognormal: return "lognormal";
  }
  return "?";
}

}  // namespace

std::string MachineModel::describe() const {
  return support::format(
      "machine %s: %d node(s) x %d core(s) x %d hw thread(s)\n"
      "  compute: %.3g flops/core, noise sigma %.3g\n"
      "  net: intra %.3g s + B/%.3g B/s, inter %.3g s + B/%.3g B/s\n"
      "  net: overhead send %.3g s recv %.3g s, eager <= %zu B\n"
      "  net: nbc tree %s\n"
      "  jitter: %s rel %.3g add %.3g spike p=%.3g mean %.3g\n"
      "  omp: fork %.3g + %.3g/thr, barrier %.3g*log2, imbalance %.3g",
      name.c_str(), nodes, cores_per_node, hw_threads_per_core,
      flops_per_core, compute_noise_sigma, net.intra_node.latency,
      net.intra_node.bandwidth, net.inter_node.latency,
      net.inter_node.bandwidth, net.send_overhead, net.recv_overhead,
      net.eager_threshold,
      net.hierarchical_nbc ? "hierarchical (intra-node + fabric)" : "flat",
      jitter_kind_name(net.jitter.kind),
      net.jitter.rel_sigma, net.jitter.add_sigma, net.jitter.spike_prob,
      net.jitter.spike_mean, omp.fork_join_base, omp.fork_join_per_thread,
      omp.barrier_log_cost, omp.static_imbalance);
}

}  // namespace mpisect::mpisim
