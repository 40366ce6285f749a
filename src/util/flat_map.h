// An open-addressing hash table for trivially copyable keys and values.
//
// The packet data path keeps its per-packet state in these: the loop
// accounting window and the source pins of ContraSwitch, the flowlet pins
// and path-switch tombstones of FlowletTable, and the TCP endpoints' send
// times and out-of-order sets. A node-based std::unordered_map allocates
// on every insert; this table keeps every entry in one flat slot array
// that grows by doubling, so once its capacity has settled no operation
// allocates, which the zero-allocation contract of the data path depends
// on (DESIGN.md §6).
//
// Collisions resolve by linear probing. Erase shifts the rest of the probe
// run back into the hole instead of leaving a tombstone, so lookups never
// walk dead slots. Each slot carries a stamp, and a slot is live only when
// its stamp equals the table's current epoch: clear() empties the whole
// table in O(1) by advancing the epoch (a full stamp sweep once every 65535
// clears, when the 16-bit epoch wraps). Storage is allocated on the first
// insert; release() frees it.
//
// Nothing may hold a returned value pointer across an insert or an erase:
// both can move slots.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace contra::util {

/// Hash for integer keys: splitmix64, so near-sequential ids (packet ids,
/// sequence numbers) spread over the low bits the table masks with.
struct MixHash {
  size_t operator()(uint64_t x) const { return static_cast<size_t>(mix64(x)); }
};

template <typename K, typename V, typename Hash = MixHash>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>,
                "FlatMap is restricted to trivially copyable keys and values");

 public:
  /// `min_slots` (rounded up to a power of two) is the slot count of the
  /// first allocation.
  explicit FlatMap(size_t min_slots = 16)
      : min_slots_(std::bit_ceil(std::max<size_t>(min_slots, 2))) {}
  FlatMap(const FlatMap&) = default;
  FlatMap& operator=(const FlatMap&) = default;
  /// A moved-from table is empty and holds no storage.
  FlatMap(FlatMap&& other) noexcept { *this = std::move(other); }
  FlatMap& operator=(FlatMap&& other) noexcept {
    if (this != &other) {
      slots_ = std::move(other.slots_);
      mask_ = other.mask_;
      size_ = other.size_;
      min_slots_ = other.min_slots_;
      epoch_ = other.epoch_;
      other.release();
    }
    return *this;
  }

  size_t size() const { return size_; }
  /// Allocated slots (0 before the first insert and after release()).
  size_t capacity() const { return slots_.size(); }

  /// The value stored for `key`, or nullptr.
  V* find(const K& key) {
    const size_t i = index_of(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  const V* find(const K& key) const {
    const size_t i = index_of(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }

  /// Stores `value` under `key` unless the key is present. Returns the
  /// stored value and whether it was inserted.
  std::pair<V*, bool> try_emplace(const K& key, const V& value = V{}) {
    if (slots_.empty()) grow();
    size_t i = home(key);
    for (; live(i); i = next(i)) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {  // keep the load at most 3/4
      grow();
      i = home(key);
      while (live(i)) i = next(i);
    }
    Slot& slot = slots_[i];
    slot.key = key;
    slot.stamp = epoch_;
    slot.value = value;
    ++size_;
    return {&slot.value, true};
  }

  /// The value stored for `key`, value-initialized first if absent.
  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Removes `key`; false if it was absent.
  bool erase(const K& key) {
    size_t hole = index_of(key);
    if (hole == kNone) return false;
    // Backward shift: walk the rest of the probe run and pull each entry
    // whose home lies at or before the hole into it, so every remaining key
    // stays reachable from its home without passing an empty slot.
    for (size_t j = next(hole); live(j); j = next(j)) {
      const size_t from_home = (j - home(slots_[j].key)) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].stamp = 0;
    --size_;
    return true;
  }

  /// Empties the table in O(1), keeping its storage.
  void clear() {
    size_ = 0;
    if (++epoch_ == 0) {  // the epoch wrapped: stale stamps could look live
      for (Slot& slot : slots_) slot.stamp = 0;
      epoch_ = 1;
    }
  }

  /// Empties the table and frees its storage.
  void release() {
    std::vector<Slot>().swap(slots_);
    mask_ = 0;
    size_ = 0;
    epoch_ = 1;
  }

 private:
  // The stamp sits between key and value, where every key and value type
  // of the data path leaves padding anyway.
  struct Slot {
    K key{};
    uint16_t stamp = 0;  ///< live iff == epoch_; 0 is never an epoch
    [[no_unique_address]] V value{};
  };
  static constexpr size_t kNone = ~size_t{0};

  size_t home(const K& key) const { return static_cast<size_t>(Hash{}(key)) & mask_; }
  size_t next(size_t i) const { return (i + 1) & mask_; }
  bool live(size_t i) const { return slots_[i].stamp == epoch_; }

  size_t index_of(const K& key) const {
    if (size_ == 0) return kNone;
    for (size_t i = home(key); live(i); i = next(i)) {
      if (slots_[i].key == key) return i;
    }
    return kNone;
  }

  void grow() {
    const size_t slots = slots_.empty() ? min_slots_ : slots_.size() * 2;
    const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots));
    const uint16_t old_epoch = epoch_;
    mask_ = slots_.size() - 1;
    epoch_ = 1;
    for (const Slot& slot : old) {
      if (slot.stamp != old_epoch) continue;
      size_t i = home(slot.key);
      while (live(i)) i = next(i);
      slots_[i] = slot;
      slots_[i].stamp = epoch_;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t min_slots_ = 16;
  uint16_t epoch_ = 1;
};

/// FlatMap without values: membership only.
template <typename K, typename Hash = MixHash>
class FlatSet {
 public:
  explicit FlatSet(size_t min_slots = 16) : map_(min_slots) {}

  size_t size() const { return map_.size(); }
  size_t capacity() const { return map_.capacity(); }
  bool contains(const K& key) const { return map_.find(key) != nullptr; }
  /// False if `key` was already present.
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  /// False if `key` was absent.
  bool erase(const K& key) { return map_.erase(key); }
  void clear() { map_.clear(); }
  void release() { map_.release(); }

 private:
  struct Unit {};
  FlatMap<K, Unit, Hash> map_;
};

}  // namespace contra::util
