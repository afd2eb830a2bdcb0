#include "support/rng.hpp"

#include <cmath>
#include <numbers>

namespace mpisect::support {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Map 64 random bits to a double in [0, 1) with 53 bits of precision.
constexpr double bits_to_unit(std::uint64_t b) noexcept {
  return static_cast<double>(b >> 11) * 0x1.0p-53;
}

}  // namespace

std::uint64_t CounterRng::bits(std::uint64_t stream,
                               std::uint64_t counter) const noexcept {
  return splitmix64(seed_ ^ splitmix64(stream ^ splitmix64(counter)));
}

double CounterRng::uniform(std::uint64_t stream,
                           std::uint64_t counter) const noexcept {
  return bits_to_unit(bits(stream, counter));
}

double CounterRng::uniform(std::uint64_t stream, std::uint64_t counter,
                           double lo, double hi) const noexcept {
  return lo + (hi - lo) * uniform(stream, counter);
}

double CounterRng::gaussian(std::uint64_t stream,
                            std::uint64_t counter) const noexcept {
  // Two independent uniforms from well-separated counters.
  double u1 = uniform(stream, counter);
  const double u2 = uniform(stream, counter + (1ULL << 32));
  if (u1 <= 0.0) u1 = 0x1.0p-53;  // avoid log(0)
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

double CounterRng::lognormal(std::uint64_t stream, std::uint64_t counter,
                             double mu, double sigma) const noexcept {
  return std::exp(mu + sigma * gaussian(stream, counter));
}

double CounterRng::exponential(std::uint64_t stream, std::uint64_t counter,
                               double mean_) const noexcept {
  double u = uniform(stream, counter);
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean_ * std::log(u);
}

std::uint64_t CounterRng::below(std::uint64_t stream, std::uint64_t counter,
                                std::uint64_t n) const noexcept {
  // Multiplicative range reduction; bias is negligible for n << 2^64.
  const auto b = bits(stream, counter);
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(b) * n) >> 64);
}

std::uint64_t SequentialRng::next() noexcept {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t x = state_;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double SequentialRng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double SequentialRng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

}  // namespace mpisect::support
