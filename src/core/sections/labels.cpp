#include "core/sections/labels.hpp"

#include "support/rng.hpp"

namespace mpisect::sections {
namespace {

constexpr std::size_t kInitialSlots = 16;

}  // namespace

LabelRegistry::Table::Table(std::size_t capacity)
    : mask(capacity - 1),
      slots(std::make_unique<std::atomic<const Entry*>[]>(capacity)) {
  for (std::size_t i = 0; i < capacity; ++i) {
    slots[i].store(nullptr, std::memory_order_relaxed);
  }
}

LabelRegistry::LabelRegistry() {
  tables_.push_back(std::make_unique<Table>(kInitialSlots));
  table_.store(tables_.back().get(), std::memory_order_release);
}

LabelRegistry::~LabelRegistry() = default;

const LabelRegistry::Entry* LabelRegistry::find(
    const Table& t, std::uint64_t hash, std::string_view label) noexcept {
  for (std::size_t i = hash & t.mask;; i = (i + 1) & t.mask) {
    const Entry* e = t.slots[i].load(std::memory_order_acquire);
    if (e == nullptr) return nullptr;
    if (e->hash == hash && e->text == label) return e;
  }
}

void LabelRegistry::place(Table& t, const Entry* e) noexcept {
  std::size_t i = e->hash & t.mask;
  while (t.slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & t.mask;
  }
  t.slots[i].store(e, std::memory_order_release);
}

LabelId LabelRegistry::intern(std::string_view label) {
  const std::uint64_t hash = label_hash(label);
  if (const Entry* e = find(*table_.load(std::memory_order_acquire), hash,
                            label)) {
    return e->id;
  }
  const std::lock_guard lock(mu_);
  Table* t = table_.load(std::memory_order_relaxed);
  if (const Entry* e = find(*t, hash, label)) return e->id;
  const auto id = static_cast<LabelId>(entries_.size());
  entries_.push_back(
      std::make_unique<Entry>(Entry{hash, id, std::string(label)}));
  if (2 * entries_.size() > t->mask + 1) {
    // Publish a doubled table holding every entry; the old one stays alive
    // for readers that loaded it before the swap.
    tables_.push_back(std::make_unique<Table>(2 * (t->mask + 1)));
    t = tables_.back().get();
    for (const auto& e : entries_) place(*t, e.get());
    table_.store(t, std::memory_order_release);
  } else {
    place(*t, entries_.back().get());
  }
  return id;
}

std::string LabelRegistry::name(LabelId id) const {
  const std::lock_guard lock(mu_);
  if (id >= entries_.size()) return "?";
  return entries_[id]->text;
}

LabelId LabelRegistry::lookup(std::string_view label) const {
  const Entry* e = find(*table_.load(std::memory_order_acquire),
                        label_hash(label), label);
  return e == nullptr ? kInvalidLabel : e->id;
}

std::size_t LabelRegistry::size() const {
  const std::lock_guard lock(mu_);
  return entries_.size();
}

std::vector<std::string> LabelRegistry::all() const {
  const std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& e : entries_) names.push_back(e->text);
  return names;
}

std::uint64_t label_hash(std::string_view label) noexcept {
  // FNV-1a, then a SplitMix finalizer for avalanche.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return support::splitmix64(h);
}

}  // namespace mpisect::sections
