// Network performance model (LogGP-flavoured) with deterministic jitter.
//
// A transfer between two ranks costs
//     latency + bytes / bandwidth
// with link parameters chosen by locality (same node vs. different nodes)
// and an optional multiplicative lognormal jitter drawn from a counter-based
// RNG keyed on (edge, sequence-number). Sender/receiver CPU overheads (the
// "o" of LogP) are charged on the local clocks.
//
// The jitter keying is the load-bearing design decision: because the draw
// depends only on logical identifiers, a run's virtual timeline is fully
// reproducible, yet over a 1000-step halo-exchange loop the skew performs a
// random walk that propagates through message dependencies — the
// "accumulation of variability" the paper observes on its Nehalem cluster.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/rng.hpp"

namespace mpisect::mpisim {

/// Jitter applied multiplicatively to transfer costs and additively to
/// latency. All draws are deterministic given (seed, edge, seq).
struct JitterModel {
  enum class Kind { None, Gaussian, Lognormal };
  Kind kind = Kind::None;
  /// Relative sigma of the multiplicative term (e.g. 0.15 = 15%).
  double rel_sigma = 0.0;
  /// Absolute sigma (seconds) of an additive latency term; models OS noise
  /// spikes independent of message size.
  double add_sigma = 0.0;
  /// Probability of a "noise spike" (heavy tail); each spike adds an
  /// exponential extra delay with mean spike_mean seconds.
  double spike_prob = 0.0;
  double spike_mean = 0.0;
  bool operator==(const JitterModel&) const = default;
};

/// The jitter drawn for one keyed event: a multiplicative factor on its
/// base cost and an additive term. Two models with the same seed and
/// JitterModel draw the same values for the same key.
struct JitterDraw {
  double factor = 1.0;
  double additive = 0.0;
};

/// One link class: base latency plus streaming bandwidth.
struct LinkParams {
  double latency = 1e-6;       ///< seconds
  double bandwidth = 1e9;      ///< bytes/second
  [[nodiscard]] double cost(std::size_t bytes) const noexcept {
    return latency + static_cast<double>(bytes) / bandwidth;
  }
};

class NetworkModel {
 public:
  LinkParams intra_node;        ///< shared-memory transport
  LinkParams inter_node;        ///< fabric transport
  double send_overhead = 3e-7;  ///< CPU seconds charged on the sender
  double recv_overhead = 3e-7;  ///< CPU seconds charged on the receiver
  std::size_t eager_threshold = 16 * 1024;  ///< rendezvous above this
  int cores_per_node = 1;       ///< block rank placement: node = rank / cpn
  /// Topology-aware nonblocking-collective cost: when set, nbc_cost()
  /// models a two-level tree (combine within each node over the intra-node
  /// link, then disseminate across nodes over the fabric) instead of a
  /// flat ceil(log2 p) fabric tree. Off by default so every artifact —
  /// trace headers included — stays bit-identical to earlier versions; at
  /// 65,536 ranks the flat formula overcharges badly because log2 p rounds
  /// of fabric latency ignore that most pairs share a node.
  bool hierarchical_nbc = false;
  JitterModel jitter;

  /// Deterministic RNG seed for all draws from this model.
  std::uint64_t seed = 0x5EC710975EEDULL;

  [[nodiscard]] int node_of(int world_rank) const noexcept {
    return world_rank / (cores_per_node > 0 ? cores_per_node : 1);
  }
  [[nodiscard]] bool same_node(int a, int b) const noexcept {
    return node_of(a) == node_of(b);
  }

  /// End-to-end wire cost of one message (no CPU overheads, which the
  /// caller charges locally). `seq` is the per-edge message sequence number
  /// used to key the jitter draw.
  [[nodiscard]] double transfer_cost(int src, int dst, std::size_t bytes,
                                     std::uint64_t seq) const noexcept;
  /// The jitter draws transfer_cost() keys on (src, dst, seq).
  [[nodiscard]] JitterDraw transfer_jitter(int src, int dst,
                                           std::uint64_t seq) const noexcept;
  /// transfer_cost() with its draws supplied, e.g. shared with another
  /// model of the same seed and jitter.
  [[nodiscard]] double transfer_cost(int src, int dst, std::size_t bytes,
                                     const JitterDraw& draw) const noexcept;

  /// Jittered CPU overhead for one send/recv call. `kind_salt`
  /// disambiguates the draw stream (0 = send, 1 = recv).
  [[nodiscard]] double cpu_overhead(int rank, double base, std::uint64_t seq,
                                    std::uint64_t kind_salt) const noexcept;
  /// The jitter draw cpu_overhead() keys on (rank, seq, kind_salt).
  [[nodiscard]] JitterDraw cpu_jitter(int rank, std::uint64_t seq,
                                      std::uint64_t kind_salt) const noexcept;
  /// cpu_overhead() with its draw supplied.
  [[nodiscard]] static double cpu_overhead(double base,
                                           const JitterDraw& draw) noexcept {
    return base * draw.factor;
  }

  /// Modeled background-algorithm cost of a nonblocking collective over p
  /// ranks. Flat (default): ceil(log2 p) rounds of one inter-node link
  /// cost — exactly the historical nbc_algo_cost charge. Hierarchical
  /// (hierarchical_nbc): ceil(log2 min(p, cores_per_node)) intra-node
  /// rounds to combine within each node plus ceil(log2 ceil(p/cpn))
  /// inter-node rounds to disseminate across nodes; collapses to a pure
  /// intra-node tree when all ranks share one node. The single shared
  /// formula for the live simulator, the replayer and the interpolator —
  /// they must never drift.
  [[nodiscard]] double nbc_cost(int p, std::uint64_t bytes) const noexcept;

 private:
  [[nodiscard]] double jitter_factor(std::uint64_t stream,
                                     std::uint64_t seq) const noexcept;
  [[nodiscard]] double jitter_additive(std::uint64_t stream,
                                       std::uint64_t seq) const noexcept;
};

}  // namespace mpisect::mpisim
