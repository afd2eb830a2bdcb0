#include "core/sections/api.hpp"

namespace mpisect::sections {

int MPIX_Section_enter(mpisim::Comm& comm, const char* label) {
  if (!comm.valid()) return kSectionErrComm;
  auto* const rt = SectionRuntime::find(comm.ctx().world());
  if (!rt) return kSectionErrNoRuntime;
  return rt->enter(comm.ctx(), comm, label);
}

int MPIX_Section_exit(mpisim::Comm& comm, const char* label) {
  if (!comm.valid()) return kSectionErrComm;
  auto* const rt = SectionRuntime::find(comm.ctx().world());
  if (!rt) return kSectionErrNoRuntime;
  return rt->exit(comm.ctx(), comm, label);
}

}  // namespace mpisect::sections
