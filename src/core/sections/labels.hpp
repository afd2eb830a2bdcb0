// Label interning for MPI sections.
//
// Section labels are user strings ("HALO", "LagrangeNodal", ...). Tools
// compare and aggregate them constantly, so the runtime interns each label
// once and hands out dense 32-bit ids. Every section enter and exit of
// every rank interns its label (the runtime, the profiler, the recorder
// and the sampler each keep a registry), so the hit path is lock-free:
//
//   * intern() and lookup() of an already-interned label hash the text and
//     probe an open-addressing table of immutable entries with acquire
//     loads. They take no mutex and allocate nothing.
//   * The first intern() of a label takes the mutex, appends the entry and
//     publishes it into the table with a release store (or publishes a
//     doubled table). Tables and entries are never freed before the
//     registry dies, so a concurrent reader never sees a dangling pointer.
//   * name(), size() and all() take the mutex. They are off the per-event
//     path (diagnostics, validation mode and report assembly).
//
// The table is part of the registry, so two registries never share ids.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mpisect::sections {

using LabelId = std::uint32_t;
inline constexpr LabelId kInvalidLabel = ~LabelId{0};

class LabelRegistry {
 public:
  LabelRegistry();
  ~LabelRegistry();

  LabelRegistry(const LabelRegistry&) = delete;
  LabelRegistry& operator=(const LabelRegistry&) = delete;

  /// Intern a label, returning its dense id (stable for the registry's
  /// lifetime; ids count up from 0 in first-intern order). Thread-safe;
  /// lock-free when the label is already interned.
  LabelId intern(std::string_view label);

  /// Name of an interned id ("?" for unknown ids). Thread-safe; takes the
  /// mutex.
  [[nodiscard]] std::string name(LabelId id) const;

  /// Id of an already-interned label, or kInvalidLabel. Thread-safe and
  /// lock-free.
  [[nodiscard]] LabelId lookup(std::string_view label) const;

  [[nodiscard]] std::size_t size() const;

  /// Snapshot of all interned names, indexed by id.
  [[nodiscard]] std::vector<std::string> all() const;

 private:
  struct Entry {
    std::uint64_t hash;
    LabelId id;
    std::string text;
  };
  /// Open-addressing table, linear probing, at most half full. Slots only
  /// ever go from null to an entry, so a probe that meets null is a miss.
  struct Table {
    explicit Table(std::size_t capacity);
    std::size_t mask;
    std::unique_ptr<std::atomic<const Entry*>[]> slots;
  };

  [[nodiscard]] static const Entry* find(const Table& t, std::uint64_t hash,
                                         std::string_view label) noexcept;
  static void place(Table& t, const Entry* e) noexcept;

  std::atomic<Table*> table_;
  mutable std::mutex mu_;
  /// Entries by id, and every table ever published (readers may still
  /// probe a retired one). Both guarded by mu_.
  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<std::unique_ptr<Table>> tables_;
};

/// Flat-table key of a (communicator context, label) pair — what the
/// runtime and the profiler count section occurrences by.
[[nodiscard]] inline std::uint64_t occurrence_key(int context,
                                                  LabelId label) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(context))
          << 32) |
         label;
}

/// 64-bit stable hash of a label string — used by the validation pass to
/// compare labels across ranks without shipping strings.
[[nodiscard]] std::uint64_t label_hash(std::string_view label) noexcept;

}  // namespace mpisect::sections
