#include "mpisim/netmodel.hpp"

#include <algorithm>
#include <cmath>

#include "mpisim/progress.hpp"

namespace mpisect::mpisim {
namespace {

// Salt constants separating draw streams.
constexpr std::uint64_t kSaltTransferMul = 0x11;
constexpr std::uint64_t kSaltTransferAdd = 0x22;
constexpr std::uint64_t kSaltTransferSpike = 0x33;
constexpr std::uint64_t kSaltCpu = 0x44;

}  // namespace

double NetworkModel::jitter_factor(std::uint64_t stream,
                                   std::uint64_t seq) const noexcept {
  if (jitter.kind == JitterModel::Kind::None || jitter.rel_sigma <= 0.0) {
    return 1.0;
  }
  const support::CounterRng rng(seed);
  const auto s = support::stream_id(stream, kSaltTransferMul);
  if (jitter.kind == JitterModel::Kind::Gaussian) {
    return std::max(0.0, 1.0 + jitter.rel_sigma * rng.gaussian(s, seq));
  }
  // Lognormal with unit median; sigma expressed on the underlying normal.
  return rng.lognormal(s, seq, 0.0, jitter.rel_sigma);
}

double NetworkModel::jitter_additive(std::uint64_t stream,
                                     std::uint64_t seq) const noexcept {
  if (jitter.kind == JitterModel::Kind::None) return 0.0;
  const support::CounterRng rng(seed);
  double extra = 0.0;
  if (jitter.add_sigma > 0.0) {
    const auto s = support::stream_id(stream, kSaltTransferAdd);
    extra += std::fabs(jitter.add_sigma * rng.gaussian(s, seq));
  }
  if (jitter.spike_prob > 0.0 && jitter.spike_mean > 0.0) {
    const auto s = support::stream_id(stream, kSaltTransferSpike);
    if (rng.uniform(s, seq) < jitter.spike_prob) {
      extra += rng.exponential(s, seq + (1ULL << 40), jitter.spike_mean);
    }
  }
  return extra;
}

JitterDraw NetworkModel::transfer_jitter(int src, int dst,
                                        std::uint64_t seq) const noexcept {
  const auto edge = support::stream_id(static_cast<std::uint64_t>(src) + 1,
                                       static_cast<std::uint64_t>(dst) + 1);
  return {jitter_factor(edge, seq), jitter_additive(edge, seq)};
}

double NetworkModel::transfer_cost(int src, int dst, std::size_t bytes,
                                   const JitterDraw& draw) const noexcept {
  const LinkParams& link = same_node(src, dst) ? intra_node : inter_node;
  return link.cost(bytes) * draw.factor + draw.additive;
}

double NetworkModel::transfer_cost(int src, int dst, std::size_t bytes,
                                   std::uint64_t seq) const noexcept {
  return transfer_cost(src, dst, bytes, transfer_jitter(src, dst, seq));
}

JitterDraw NetworkModel::cpu_jitter(int rank, std::uint64_t seq,
                                    std::uint64_t kind_salt) const noexcept {
  const auto stream = support::stream_id(static_cast<std::uint64_t>(rank) + 1,
                                         kSaltCpu, kind_salt);
  return {jitter_factor(stream, seq), 0.0};
}

double NetworkModel::cpu_overhead(int rank, double base, std::uint64_t seq,
                                  std::uint64_t kind_salt) const noexcept {
  return cpu_overhead(base, cpu_jitter(rank, seq, kind_salt));
}

double NetworkModel::nbc_cost(int p, std::uint64_t bytes) const noexcept {
  if (!hierarchical_nbc) {
    return nbc_algo_cost(inter_node.latency, inter_node.bandwidth, p, bytes);
  }
  const int cpn = cores_per_node > 0 ? cores_per_node : 1;
  const int local = std::min(p, cpn);
  const int nodes = (p + cpn - 1) / cpn;
  // nodes == 1 makes the inter-node term zero rounds, so a single-node
  // communicator pays a pure shared-memory tree.
  return nbc_algo_cost(intra_node.latency, intra_node.bandwidth, local,
                       bytes) +
         nbc_algo_cost(inter_node.latency, inter_node.bandwidth, nodes,
                       bytes);
}

}  // namespace mpisect::mpisim
