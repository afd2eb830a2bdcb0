#include "checker/diagnostics.hpp"

namespace mpisect::checker {

const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

const char* category_name(Category c) noexcept {
  switch (c) {
    case Category::Deadlock: return "DEADLOCK";
    case Category::ResourceLeak: return "RESOURCE_LEAK";
    case Category::CollectiveMismatch: return "COLLECTIVE_MISMATCH";
    case Category::P2PMismatch: return "P2P_MISMATCH";
    case Category::SectionMisuse: return "SECTION_MISUSE";
    case Category::InjectedFault: return "INJECTED_FAULT";
    case Category::MessageRace: return "MESSAGE_RACE";
    case Category::LatentDeadlock: return "LATENT_DEADLOCK";
  }
  return "?";
}

void DiagnosticSink::emit(Diagnostic d) {
  const std::lock_guard lock(mu_);
  diags_.push_back(std::move(d));
}

std::vector<Diagnostic> DiagnosticSink::diagnostics() const {
  const std::lock_guard lock(mu_);
  return diags_;
}

std::size_t DiagnosticSink::count() const {
  const std::lock_guard lock(mu_);
  return diags_.size();
}

std::size_t DiagnosticSink::count(Category c) const {
  const std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& d : diags_) {
    if (d.category == c) ++n;
  }
  return n;
}

}  // namespace mpisect::checker
