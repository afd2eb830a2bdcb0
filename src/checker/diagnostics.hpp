// Structured findings for mpicheck.
//
// Every analysis pass (deadlock, resource leak, collective consistency,
// section lint) reports through one DiagnosticSink so a run produces a
// single ordered list of findings that the reporters (checker/report.hpp)
// can render as text, CSV or JSON. Diagnostics carry the offending world
// rank, the virtual time at which the condition was observed, the call or
// section label, and a severity — the fields MUST-style tools print.
//
// The sink is mutex-protected: runtime passes emit from rank threads and
// from the deadlock watchdog concurrently.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace mpisect::checker {

enum class Severity { Info, Warning, Error };

enum class Category {
  Deadlock,            ///< cross-rank wait-for cycle or orphaned wait
  ResourceLeak,        ///< unfreed request/communicator, pending op
  CollectiveMismatch,  ///< call/root/count disagreement across ranks
  P2PMismatch,         ///< send/recv size (datatype-count) mismatch
  SectionMisuse,       ///< unbalanced/misnested/mismatched MPIX_Section use
  InjectedFault,       ///< hang/kill traced to the run's fault plan
  MessageRace,         ///< wildcard receive with >1 concurrent eligible send
  LatentDeadlock,      ///< alternate matching of a completed run deadlocks
};

inline constexpr int kCategoryCount = static_cast<int>(Category::LatentDeadlock) + 1;

[[nodiscard]] const char* severity_name(Severity s) noexcept;
/// Upper-case report tag ("DEADLOCK", "RESOURCE_LEAK", ...).
[[nodiscard]] const char* category_name(Category c) noexcept;

/// One finding.
struct Diagnostic {
  Category category = Category::Deadlock;
  Severity severity = Severity::Error;
  int rank = -1;          ///< primary offending world rank; -1 = global
  int comm_context = -1;  ///< communicator involved; -1 = n/a
  double t_virtual = 0.0; ///< virtual time of the observation
  std::string site;       ///< call site label (MPI call or section label)
  std::string message;    ///< human-readable description
};

/// Thread-safe collector of findings.
class DiagnosticSink {
 public:
  void emit(Diagnostic d);

  /// Snapshot of all findings in emission order.
  [[nodiscard]] std::vector<Diagnostic> diagnostics() const;
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] std::size_t count(Category c) const;

 private:
  mutable std::mutex mu_;
  std::vector<Diagnostic> diags_;
};

}  // namespace mpisect::checker
