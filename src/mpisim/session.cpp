#include "mpisim/session.hpp"

#include <utility>

#include "mpisim/error.hpp"

namespace mpisect::mpisim {

namespace {
constexpr const char* kPsetWorld = "mpi://WORLD";
constexpr const char* kPsetSelf = "mpi://SELF";
}  // namespace

// ---------------------------------------------------------------------------
// WorldBuilder
// ---------------------------------------------------------------------------

std::string WorldBuilder::describe() const {
  ExecModel em;
  em.backend = opts_.exec;
  em.workers = opts_.workers;
  em.stack_kb = opts_.stack_kb;
  std::string s = "ranks=" + std::to_string(nranks_);
  s += " exec=" + em.spec();
  s += " progress=" + opts_.progress.spec();
  s += " seed=" + std::to_string(opts_.seed);
  return s;
}

std::unique_ptr<World> WorldBuilder::build() const {
  return std::make_unique<World>(nranks_, opts_);
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(int nranks, WorldOptions defaults)
    : nranks_(nranks), defaults_(std::move(defaults)) {
  require(nranks_ > 0, Err::Arg, "session size must be positive");
}

int Session::num_psets() const noexcept { return 2; }

std::string Session::pset_name(int n) const {
  if (n < 0 || n >= num_psets()) {
    throw MpiError(Err::Arg,
                   "process-set index out of range: " + std::to_string(n));
  }
  return n == 0 ? kPsetWorld : kPsetSelf;
}

bool Session::has_pset(const std::string& name) const noexcept {
  return name == kPsetWorld || name == kPsetSelf;
}

int Session::pset_size(const std::string& name) const {
  if (!has_pset(name)) {
    throw MpiError(Err::Arg, "unknown process set '" + name +
                                 "' (expected mpi://WORLD or mpi://SELF)");
  }
  return name == kPsetWorld ? nranks_ : 1;
}

WorldBuilder Session::world_builder(const std::string& pset) const {
  WorldBuilder b(pset_size(pset));
  b.options(defaults_);
  return b;
}

}  // namespace mpisect::mpisim
