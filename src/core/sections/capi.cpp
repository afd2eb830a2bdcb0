// C ABI of the section interface: the extern "C" functions declared in
// include/mpix_section.h, implemented as thin shims over the C++ overloads
// in api.hpp. MPIX_Comm is a reinterpret_cast'ed mpisim::Comm*.
#include "mpix_section.h"

#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/hooks.hpp"

namespace {

namespace sec = mpisect::sections;
namespace sim = mpisect::mpisim;

// The macros are the public ABI; the enum is the implementation. Keep
// them bound together at compile time.
static_assert(MPIX_SECTION_OK == sec::kSectionOk);
static_assert(MPIX_SECTION_ERR_NO_RUNTIME == sec::kSectionErrNoRuntime);
static_assert(MPIX_SECTION_ERR_BAD_LABEL == sec::kSectionErrBadLabel);
static_assert(MPIX_SECTION_ERR_NOT_NESTED == sec::kSectionErrNotNested);
static_assert(MPIX_SECTION_ERR_EMPTY_STACK == sec::kSectionErrEmptyStack);
static_assert(MPIX_SECTION_ERR_MISMATCH == sec::kSectionErrMismatch);
static_assert(MPIX_SECTION_ERR_COMM == sec::kSectionErrComm);
static_assert(MPIX_SECTION_ERR_LEAKED == sec::kSectionErrLeaked);
static_assert(MPIX_SECTION_DATA_BYTES == sim::kSectionDataBytes);

sim::Comm* unwrap(MPIX_Comm comm) {
  return reinterpret_cast<sim::Comm*>(comm);
}

}  // namespace

extern "C" int MPIX_Section_enter(MPIX_Comm comm, const char* label) {
  if (comm == nullptr) return MPIX_SECTION_ERR_COMM;
  return sec::MPIX_Section_enter(*unwrap(comm), label);
}

extern "C" int MPIX_Section_exit(MPIX_Comm comm, const char* label) {
  if (comm == nullptr) return MPIX_SECTION_ERR_COMM;
  return sec::MPIX_Section_exit(*unwrap(comm), label);
}

// The pair lives in the world's SectionRuntime: enter fires it before the
// attached tools, exit after them, and setting it leaves the tools attached.
extern "C" int MPIX_Section_set_callbacks(MPIX_Comm comm,
                                          MPIX_Section_enter_cb on_enter,
                                          MPIX_Section_exit_cb on_exit) {
  if (comm == nullptr || !unwrap(comm)->valid()) return MPIX_SECTION_ERR_COMM;
  auto* const rt = sec::SectionRuntime::find(unwrap(comm)->ctx().world());
  if (rt == nullptr) return MPIX_SECTION_ERR_NO_RUNTIME;
  rt->set_c_callbacks(on_enter, on_exit);
  return MPIX_SECTION_OK;
}
