// The MPI_Section runtime — the paper's primary contribution (Section 4).
//
// A *section* is "a temporal outline of a distributed code region entered by
// all the MPI processes belonging to a given communicator". Entering and
// leaving are non-blocking collective calls: each rank records only local
// state (a per-communicator stack) and the runtime notifies tools through
// the PMPI-interceptable callbacks of hooks.hpp, passing 32 bytes of tool
// payload preserved from enter to leave.
//
// Invariants enforced (paper: "sections are always perfectly nested,
// entered in the same order and exited in the opposite order"):
//   * exit label must equal the top of the per-communicator stack;
//   * an implicit MPI_MAIN section brackets MPI_Init..MPI_Finalize on the
//     world communicator;
//   * optional *validation mode* cross-checks label and depth across all
//     ranks of the communicator with a non-intrusive rendezvous that costs
//     no virtual time ("non-intrusive synchronization primitives which
//     could be selectively enabled").
//
// The runtime attaches to a World as an Extension:
//   auto sect = sections::SectionRuntime::install(world);
//   world.run([](Ctx& ctx) {
//     Comm comm = ctx.world_comm();
//     MPIX_Section_enter(comm, "HALO");
//     ...
//     MPIX_Section_exit(comm, "HALO");
//   });
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sections/labels.hpp"
#include "mpisim/hooks.hpp"
#include "mpisim/lane_table.hpp"
#include "mpisim/runtime.hpp"

namespace mpisect::sections {

/// Result codes for the MPIX_Section calls (0 = success, matching MPI).
enum SectionResult : int {
  kSectionOk = 0,
  kSectionErrNoRuntime = 1,   ///< SectionRuntime not installed on the world
  kSectionErrBadLabel = 2,    ///< null/empty label
  kSectionErrNotNested = 3,   ///< exit label does not match the stack top
  kSectionErrEmptyStack = 4,  ///< exit with no open section
  kSectionErrMismatch = 5,    ///< validation: ranks disagree on label/depth
  kSectionErrComm = 6,        ///< invalid communicator
  kSectionErrLeaked = 7,      ///< section still open at MPI_Finalize
};

[[nodiscard]] const char* section_result_name(int code) noexcept;

/// The implicit outermost section (entered in MPI_Init, left in
/// MPI_Finalize — paper Sec. 4).
inline constexpr const char* kMainSectionLabel = "MPI_MAIN";

/// One open section on a rank's stack.
struct ActiveSection {
  LabelId label = kInvalidLabel;
  std::uint64_t instance = 0;  ///< occurrence number of (comm,label)
  double t_in = 0.0;           ///< virtual entry time on this rank
  int depth = 0;               ///< 0 = MPI_MAIN
  std::array<char, mpisim::kSectionDataBytes> data{};  ///< tool payload
};

/// Counters exposed for overhead benches and tests.
struct SectionCounters {
  std::uint64_t enters = 0;
  std::uint64_t exits = 0;
  std::uint64_t validation_rounds = 0;
  std::uint64_t errors = 0;
};

class SectionRuntime final : public mpisim::Extension {
 public:
  /// Create and attach a SectionRuntime to the world (before run()).
  /// Returns the existing instance if one is already attached.
  static std::shared_ptr<SectionRuntime> install(mpisim::World& world);
  /// The world's SectionRuntime, or nullptr. Borrowed (the world owns it)
  /// and free of reference counting: MPIX_Section_enter/exit call this on
  /// every section event from every scheduler worker.
  static SectionRuntime* find(mpisim::World& world);

  /// Non-blocking collective section entry (MPIX_Section_enter).
  int enter(mpisim::Ctx& ctx, mpisim::Comm& comm, const char* label);
  /// Non-blocking collective section exit (MPIX_Section_exit).
  int exit(mpisim::Ctx& ctx, mpisim::Comm& comm, const char* label);

  /// Enable/disable the cross-rank consistency check (defaults to the
  /// world option validate_sections).
  void set_validation(bool enabled) noexcept { validate_.store(enabled); }
  [[nodiscard]] bool validation() const noexcept { return validate_.load(); }

  [[nodiscard]] LabelRegistry& labels() noexcept { return labels_; }

  /// Snapshot of the calling rank's open-section stack on `comm` —
  /// innermost last. This is the "debugger would tell you the bug is in
  /// the communication section" use case (paper Sec. 5.3).
  [[nodiscard]] std::vector<ActiveSection> stack_snapshot(
      const mpisim::Ctx& ctx, const mpisim::Comm& comm) const;
  /// Nesting depth of the calling rank's open-section stack on `comm`
  /// (counts the implicit MPI_MAIN on the world communicator). Exposed so
  /// correctness tools can lint section usage without a shadow stack.
  [[nodiscard]] int open_depth(const mpisim::Ctx& ctx,
                               const mpisim::Comm& comm) const;
  /// Human-readable " / "-joined stack labels for the calling rank.
  [[nodiscard]] std::string stack_string(const mpisim::Ctx& ctx,
                                         const mpisim::Comm& comm) const;

  /// Aggregate counters over all ranks (sample after run()).
  [[nodiscard]] SectionCounters counters() const;

  // Extension interface: MPI_MAIN bracketing.
  void on_rank_init(mpisim::Ctx& ctx) override;
  void on_rank_finalize(mpisim::Ctx& ctx) override;

  explicit SectionRuntime(int world_size);

 private:
  struct RankState {
    /// context id -> open-section stack.
    std::map<int, std::vector<ActiveSection>> stacks;
    /// occurrence_key(context id, label) -> occurrence counter.
    mpisim::LaneTable<std::uint64_t> occurrences;
    SectionCounters counters;
  };
  RankState& state_of(const mpisim::Ctx& ctx);
  const RankState& state_of(const mpisim::Ctx& ctx) const;
  int validate(mpisim::Ctx& ctx, mpisim::Comm& comm, LabelId label, int depth,
               bool entering);

  LabelRegistry labels_;
  std::vector<RankState> ranks_;  ///< indexed by world rank, owner-only access
  std::atomic<bool> validate_{false};
};

}  // namespace mpisect::sections
