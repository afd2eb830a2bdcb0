#include "mpisim/toolstack.hpp"

#include <algorithm>

namespace mpisect::mpisim::hooks {

void ToolStack::attach(Tool* tool, int order) {
  detach(tool);
  // After every entry of the same order: ties keep attach order.
  const auto at = std::upper_bound(
      entries_.begin(), entries_.end(), order,
      [](int o, const Entry& e) { return o < e.order; });
  entries_.insert(at, Entry{tool, order});
}

void ToolStack::detach(Tool* tool) {
  std::erase_if(entries_, [tool](const Entry& e) { return e.tool == tool; });
}

}  // namespace mpisect::mpisim::hooks
