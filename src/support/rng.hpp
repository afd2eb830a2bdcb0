// Deterministic counter-based random numbers.
//
// All stochastic behaviour in the simulator (network jitter, compute noise)
// is drawn through CounterRng, a stateless SplitMix64-based generator keyed
// on (seed, stream, counter). Two properties matter for reproduction work:
//
//  1. Bit-for-bit reproducibility: a run is a pure function of its seed, so
//     every figure the bench harness prints can be regenerated exactly.
//  2. Order-independence: the value drawn for, say, the 512th message on the
//     edge (3 -> 4) does not depend on how rank threads interleave in real
//     time, because it is keyed by logical identifiers, not by call order.
#pragma once

#include <cstdint>

namespace mpisect::support {

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Stateless counter-based RNG. Each (seed, stream, counter) triple maps to
/// an independent uniform 64-bit value; callers advance their own counters.
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed) noexcept : seed_(seed) {}

  /// Raw 64-bit draw for (stream, counter).
  [[nodiscard]] std::uint64_t bits(std::uint64_t stream,
                                   std::uint64_t counter) const noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform(std::uint64_t stream,
                               std::uint64_t counter) const noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(std::uint64_t stream, std::uint64_t counter,
                               double lo, double hi) const noexcept;

  /// Standard normal via Box-Muller (uses counter and counter+2^32 as the
  /// two uniforms so adjacent counters stay independent).
  [[nodiscard]] double gaussian(std::uint64_t stream,
                                std::uint64_t counter) const noexcept;

  /// Lognormal with the given parameters of the underlying normal.
  [[nodiscard]] double lognormal(std::uint64_t stream, std::uint64_t counter,
                                 double mu, double sigma) const noexcept;

  /// Exponential with the given mean.
  [[nodiscard]] double exponential(std::uint64_t stream, std::uint64_t counter,
                                   double mean) const noexcept;

  /// Integer in [0, n) (n > 0).
  [[nodiscard]] std::uint64_t below(std::uint64_t stream,
                                    std::uint64_t counter,
                                    std::uint64_t n) const noexcept;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

/// Convenience: derive a stream id from small component identifiers, e.g.
/// stream_id(src, dst) for a network edge.
[[nodiscard]] constexpr std::uint64_t stream_id(std::uint64_t a,
                                                std::uint64_t b = 0,
                                                std::uint64_t c = 0) noexcept {
  return splitmix64(a ^ splitmix64(b ^ splitmix64(c)));
}

/// Stateful sequential PRNG for workload generation (procedural images,
/// mesh perturbations). Thin wrapper around SplitMix64 iteration.
class SequentialRng {
 public:
  explicit SequentialRng(std::uint64_t seed) noexcept : state_(seed) {}
  [[nodiscard]] std::uint64_t next() noexcept;
  [[nodiscard]] double uniform() noexcept;
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

 private:
  std::uint64_t state_;
};

}  // namespace mpisect::support
