// LaneTable — the flat key -> lane map behind the matching engine.
//
// A Channel keeps six of these (message and receive lanes by (src,tag), by
// source and by tag). A rank usually has a handful of live keys per table,
// so lanes sit in one vector scanned linearly. Past kLinearMax keys (the
// root of a p-way gatherv, a Lulesh rank's 26 neighbours) the table adds an
// open-addressing index over the same vector, so lookups stay O(1). A lane
// is erased the moment it drains: the erased slot takes the last lane, and
// the index repairs itself by backward-shift deletion, so no tombstones
// build up. Neither path allocates once the vector and index have grown to
// the channel's working set, so cycling internal collective tags (a new
// tag per operation, 1024 values) costs no allocator traffic and holds no
// empty lanes. The section runtime and the profiler reuse it for their
// per-rank (context, label) occurrence counters and section statistics.
//
// Any insert or erase may move lanes: a List* is valid until the table's
// next mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpisect::mpisim {

template <class List>
class LaneTable {
 public:
  static constexpr std::size_t kLinearMax = 8;

  [[nodiscard]] List* find(std::uint64_t key) noexcept {
    if (index_.empty()) {
      for (Lane& l : lanes_) {
        if (l.key == key) return &l.list;
      }
      return nullptr;
    }
    const std::uint32_t pos = index_[slot(key)];
    return pos != 0 ? &lanes_[pos - 1].list : nullptr;
  }

  [[nodiscard]] const List* find(std::uint64_t key) const noexcept {
    return const_cast<LaneTable*>(this)->find(key);
  }

  /// The lane for `key`, created empty if absent.
  [[nodiscard]] List& operator[](std::uint64_t key) {
    if (List* l = find(key)) return *l;
    lanes_.push_back({key, List{}});
    if (!index_.empty() && 2 * lanes_.size() <= index_.size()) {
      index_[slot(key)] = static_cast<std::uint32_t>(lanes_.size());
    } else if (!index_.empty() || lanes_.size() > kLinearMax) {
      rebuild_index();
    }
    return lanes_.back().list;
  }

  /// Drop `key`'s lane (no-op if absent).
  void erase(std::uint64_t key) noexcept {
    std::size_t pos = 0;
    if (index_.empty()) {
      while (pos < lanes_.size() && lanes_[pos].key != key) ++pos;
      if (pos == lanes_.size()) return;
    } else {
      std::size_t i = slot(key);
      if (index_[i] == 0) return;
      pos = index_[i] - 1;
      // Backward-shift deletion: pull later members of the probe run into
      // the hole unless their home slot lies cyclically in (hole, j].
      for (std::size_t j = (i + 1) & mask(); index_[j] != 0;
           j = (j + 1) & mask()) {
        const std::size_t home = hash(lanes_[index_[j] - 1].key) & mask();
        const bool stays = i <= j ? (i < home && home <= j)
                                  : (i < home || home <= j);
        if (!stays) {
          index_[i] = index_[j];
          i = j;
        }
      }
      index_[i] = 0;
    }
    const std::size_t last = lanes_.size() - 1;
    if (pos != last) {
      lanes_[pos] = lanes_[last];
      if (!index_.empty()) {
        index_[slot(lanes_[pos].key)] = static_cast<std::uint32_t>(pos + 1);
      }
    }
    lanes_.pop_back();
  }

  /// fn(key, list) for every lane, in no particular order.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (Lane& l : lanes_) fn(l.key, l.list);
  }
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Lane& l : lanes_) fn(l.key, l.list);
  }

 private:
  struct Lane {
    std::uint64_t key;
    List list;
  };

  static std::size_t hash(std::uint64_t key) noexcept {
    key ^= key >> 31;
    key *= 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(key ^ (key >> 32));
  }
  [[nodiscard]] std::size_t mask() const noexcept { return index_.size() - 1; }

  /// The index slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t slot(std::uint64_t key) const noexcept {
    std::size_t i = hash(key) & mask();
    while (index_[i] != 0 && lanes_[index_[i] - 1].key != key) {
      i = (i + 1) & mask();
    }
    return i;
  }

  /// Size the index for the current lanes (at most half full) and
  /// re-insert all.
  void rebuild_index() {
    std::size_t cap = 4 * kLinearMax;
    while (cap < 2 * lanes_.size()) cap *= 2;
    index_.assign(cap, 0);
    for (std::size_t p = 0; p < lanes_.size(); ++p) {
      index_[slot(lanes_[p].key)] = static_cast<std::uint32_t>(p + 1);
    }
  }

  std::vector<Lane> lanes_;
  /// Empty until the table first outgrows kLinearMax; then a power-of-two
  /// open-addressing table of lane positions + 1 (0 = empty slot).
  std::vector<std::uint32_t> index_;
};

}  // namespace mpisect::mpisim
