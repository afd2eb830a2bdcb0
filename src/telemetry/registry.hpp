// Metrics registry — the instrument store of the telemetry layer.
//
// Design constraints (ISSUE 4):
//   * zero virtual-time perturbation: instruments never touch clocks, never
//     draw RNG, never block a rank;
//   * lock-cheap hot path: Rank-scope instruments are per-rank padded slots
//     written only by the owning rank thread (single-writer; accessed via
//     relaxed atomic_ref so the live view may read them mid-run);
//     Process-scope instruments are relaxed atomics (counters/gauges) or a
//     mutex-guarded histogram (distributions are process scope only, and
//     one mutex guards them all);
//   * two determinism classes, explicit in the type system:
//       Scope::Rank     — bumped from hooks/taps on the owning rank, a pure
//                         function of per-rank program order. Deterministic
//                         across scheduler backends and worker counts;
//                         eligible for exported time series.
//       Scope::Process  — wall-clock-order dependent (scheduler occupancy,
//                         channel queue depths observed cross-rank). Shown
//                         in the Prometheus dump and the live view only,
//                         never in deterministic exports.
//
// Instruments are registered before World::run (registration is not
// thread-safe); bumping is. Ids are dense and stable for the registry's
// lifetime, so the sampler can snapshot "all Rank-scope scalars of rank r"
// as one indexed pass.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/histogram.hpp"

namespace mpisect::telemetry {

enum class Kind { Counter, Gauge, Distribution };
enum class Scope { Rank, Process };

using InstrumentId = std::size_t;

struct InstrumentDesc {
  std::string name;  ///< dotted lowercase, e.g. "mpi.msgs_sent"
  std::string help;
  std::string unit;  ///< "", "bytes", "seconds", "messages", ...
  Kind kind = Kind::Counter;
  Scope scope = Scope::Rank;
};

class Registry {
 public:
  explicit Registry(int nranks);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registration (pre-run, not thread-safe). Returns the dense id.
  InstrumentId add_counter(std::string name, Scope scope, std::string help,
                           std::string unit = {});
  InstrumentId add_gauge(std::string name, Scope scope, std::string help,
                         std::string unit = {});
  /// Process-scope fixed-bin distribution spanning [lo, hi] (see
  /// support::Histogram).
  InstrumentId add_distribution(std::string name, double lo, double hi,
                                int bins, std::string help,
                                std::string unit = {});

  // -- hot path -----------------------------------------------------------

  /// Counter increment. Rank scope: call only from the owning rank thread.
  void inc(InstrumentId id, int rank, double v = 1.0) noexcept;
  /// Gauge store (same ownership rule).
  void set(InstrumentId id, int rank, double v) noexcept;
  /// Distribution sample.
  void observe(InstrumentId id, double x) noexcept;

  // -- reads --------------------------------------------------------------

  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] const InstrumentDesc& desc(InstrumentId id) const;
  [[nodiscard]] std::optional<InstrumentId> find(std::string_view name) const;

  /// Rank-scope scalar value of one rank; Process scope: pass rank = -1.
  [[nodiscard]] double value(InstrumentId id, int rank) const;
  /// Sum over rank slots (Rank scope) or the process value.
  [[nodiscard]] double total(InstrumentId id) const;
  /// Distribution histogram (nullptr if `id` is a scalar).
  [[nodiscard]] const support::Histogram* histogram(InstrumentId id) const;

  /// Ids of every Rank-scope counter/gauge, in registration order — the
  /// column order of the sampler's per-window delta vectors.
  [[nodiscard]] const std::vector<InstrumentId>& rank_scalars()
      const noexcept {
    return rank_scalars_;
  }
  /// Values of every rank_scalars() instrument for `rank`, into `out`
  /// (resized). Used by the sampler at each interval boundary.
  void snapshot_rank(int rank, std::vector<double>& out) const;

 private:
  /// One cache line per rank slot so neighbouring ranks never false-share.
  struct alignas(64) Cell {
    double v = 0.0;
  };
  struct Slot {
    InstrumentDesc desc;
    std::vector<Cell> rank;  ///< Rank-scope scalars
    std::unique_ptr<std::atomic<double>> process;
    std::unique_ptr<support::Histogram> process_hist;
  };

  InstrumentId add_scalar(std::string name, Scope scope, Kind kind,
                          std::string help, std::string unit);

  int nranks_;
  std::vector<Slot> slots_;
  std::vector<InstrumentId> rank_scalars_;
  mutable std::mutex process_hist_mu_;  ///< guards every process histogram
};

}  // namespace mpisect::telemetry
