#ifndef PIOQO_COMMON_FLAT_MAP_H_
#define PIOQO_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace pioqo {

/// Open-addressed hash map from integer keys to small values — the
/// allocation-free replacement for the buffer pool's `std::unordered_map`
/// page/inflight tables (DESIGN.md §13).
///
/// Layout: one contiguous slot array, linear probing, power-of-two capacity,
/// `Mix64` key scrambling (sequential PageIds and monotonically increasing
/// read ids would cluster under an identity hash). Deletion uses
/// backward-shift compaction, so there are no tombstones and probe chains
/// never degrade over time. Load factor is kept at or below 1/2.
///
/// Contract:
///  - Keys are `uint64_t`; the all-ones key (`kEmptyKey`) is reserved as the
///    empty-slot sentinel and must never be inserted. (PageIds are 32-bit
///    and read ids start at 1, so nothing in the pool can collide with it.)
///  - `Erase` MOVES other entries (backward shift), and a growing `Insert`
///    rehashes: pointers returned by `Find` are invalidated by both. Callers
///    that need stable addresses store slot indices into a side array (as the
///    buffer pool's frame slab does) or re-`Find` after mutation.
///  - Values must be movable; moves happen on erase and rehash.
template <typename Value>
class FlatIntMap {
 public:
  static constexpr uint64_t kEmptyKey = ~0ULL;

  FlatIntMap() { Rehash(kMinCapacity); }

  /// Pre-sizes so `n` entries fit without rehashing (load factor <= 1/2).
  void Reserve(size_t n) {
    size_t want = kMinCapacity;
    while (want < n * 2) want <<= 1;
    if (want > capacity_) Rehash(want);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr. Invalidated by any mutation.
  Value* Find(uint64_t key) {
    size_t i = IndexOf(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const Value* Find(uint64_t key) const {
    return const_cast<FlatIntMap*>(this)->Find(key);
  }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  /// Inserts a new entry; `key` must not already be present (checked).
  Value& Insert(uint64_t key, Value value) {
    PIOQO_CHECK(key != kEmptyKey);
    if ((size_ + 1) * 2 > capacity_) Rehash(capacity_ << 1);
    size_t i = IndexOf(key);
    while (slots_[i].key != kEmptyKey) {
      PIOQO_CHECK(slots_[i].key != key) << "duplicate key " << key;
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++size_;
    return slots_[i].value;
  }

  /// Removes `key` if present (backward-shift compaction, no tombstones).
  bool Erase(uint64_t key) {
    size_t i = IndexOf(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmptyKey) return false;
      i = (i + 1) & mask_;
    }
    // Shift the rest of the probe cluster back over the hole so every
    // surviving entry stays reachable from its ideal slot.
    size_t hole = i;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (slots_[j].key == kEmptyKey) break;
      const size_t ideal = IndexOf(slots_[j].key);
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    slots_[hole].value = Value{};
    --size_;
    return true;
  }

  /// Drops every entry; keeps the current capacity.
  void clear() {
    for (Slot& s : slots_) {
      if (s.key != kEmptyKey) {
        s.key = kEmptyKey;
        s.value = Value{};
      }
    }
    size_ = 0;
  }

  /// Calls `fn(key, value&)` for every entry, in unspecified (slot) order.
  /// `fn` must not mutate the map.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(s.key, s.value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(s.key, s.value);
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    uint64_t key = kEmptyKey;
    Value value{};
  };

  size_t IndexOf(uint64_t key) const {
    return static_cast<size_t>(Mix64(key)) & mask_;
  }

  void Rehash(size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    capacity_ = new_capacity;
    mask_ = new_capacity - 1;
    size_ = 0;
    for (Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      size_t i = IndexOf(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  size_t capacity_ = 0;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace pioqo

#endif  // PIOQO_COMMON_FLAT_MAP_H_
