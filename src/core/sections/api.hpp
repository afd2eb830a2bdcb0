// Paper-faithful MPI_Section interface (Figures 1 and 2 of the paper).
//
//   /* Enter an MPI Section */
//   int MPIX_Section_enter(MPI_Comm comm, const char *label);
//   /* Leave an MPI Section */
//   int MPIX_Section_exit(MPI_Comm comm, const char *label);
//
// plus the tool-side callbacks
//
//   int MPIX_Section_enter_cb(MPI_Comm comm, const char *label, char data[32]);
//   int MPIX_Section_leave_cb(MPI_Comm comm, const char *label, char data[32]);
//
// which a C++ tool "redefines" by overriding hooks::Tool::on_section_enter /
// on_section_leave and attaching to the world's ToolStack (the PMPI
// analogue in this runtime); a plain-C tool registers a function pair with
// MPIX_Section_set_callbacks. A ScopedSection RAII helper is provided for
// C++ call sites; the paper's point that "application programmers are only
// required to manipulate two function calls" is preserved — the free
// functions are the canonical interface.
//
// The stable public ABI lives in include/mpix_section.h (plain C); the
// overloads here are the typed C++ view of the same functions, and
// mpix_handle() converts a Comm into the opaque MPIX_Comm the C entry
// points take.
#pragma once

#include "core/sections/runtime.hpp"
#include "mpisim/comm.hpp"
#include "mpix_section.h"

namespace mpisect::sections {

/// Enter an MPI Section — non-blocking collective on `comm`.
/// Returns kSectionOk (0) or a SectionResult error code.
int MPIX_Section_enter(mpisim::Comm& comm, const char* label);

/// Leave an MPI Section — non-blocking collective on `comm`.
int MPIX_Section_exit(mpisim::Comm& comm, const char* label);

/// The opaque C handle for `comm`, as taken by the extern "C" entry points
/// of include/mpix_section.h. Valid for the lifetime of `comm`.
[[nodiscard]] inline ::MPIX_Comm mpix_handle(mpisim::Comm& comm) noexcept {
  return reinterpret_cast<::MPIX_Comm>(&comm);
}

/// RAII wrapper: enters on construction, exits on destruction.
class ScopedSection {
 public:
  ScopedSection(mpisim::Comm& comm, const char* label)
      : comm_(&comm), label_(label) {
    rc_ = MPIX_Section_enter(comm, label);
  }
  ~ScopedSection() {
    if (rc_ == kSectionOk) MPIX_Section_exit(*comm_, label_);
  }
  ScopedSection(const ScopedSection&) = delete;
  ScopedSection& operator=(const ScopedSection&) = delete;

  [[nodiscard]] int enter_result() const noexcept { return rc_; }

 private:
  mpisim::Comm* comm_;
  const char* label_;
  int rc_;
};

}  // namespace mpisect::sections
