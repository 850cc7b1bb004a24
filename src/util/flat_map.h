// Open-addressing hash map keyed by std::uint64_t, built for the per-call
// hot paths (history aggregation, per-pair policy state, ground-truth
// memoization).  Compared to std::unordered_map it stores entries in one
// contiguous slot array (no per-node allocation, no pointer chase), hashes
// with a single SplitMix64 finalize, and probes linearly — a find is one
// multiply-shift plus a short cache-resident scan.
//
// Semantics are intentionally narrow:
//   - keys are arbitrary 64-bit values (no reserved sentinel),
//   - erase() uses backward-shift deletion (no tombstones), so probe
//     chains stay short even under the history window's eviction churn,
//   - erase_if() drops a whole victim set in one in-place compaction pass
//     (no tombstones, no allocation); it gives capacity back only when the
//     survivors fit in a quarter of it, so a table that refills every
//     period is not shrunk and regrown each time,
//   - clear() keeps the slot array so a recurring window reuses capacity;
//     shrink_to_fit() gives the capacity back after a burst,
//   - references are invalidated by rehash *and* by erase/erase_if (don't
//     hold them across inserts or erases).
//
// Iteration order is a deterministic function of the insert/erase sequence,
// so replays that feed identical observation streams iterate identically —
// which is what keeps serial and parallel experiment runs bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace via {

template <typename Value>
class FlatMap {
 public:
  FlatMap() = default;

  /// Ensures capacity for `n` entries without rehashing mid-fill.
  void reserve(std::size_t n) {
    const std::size_t cap = min_capacity(n);
    if (cap > slots_.size()) rehash(cap);
  }

  /// Rehashes down to the smallest capacity that holds the current entries
  /// (frees everything when empty), undoing a burst window's peak
  /// footprint.  Invalidates references.
  void shrink_to_fit() {
    if (size_ == 0) {
      std::vector<std::pair<std::uint64_t, Value>>().swap(slots_);
      std::vector<std::uint8_t>().swap(used_);
      return;
    }
    const std::size_t cap = min_capacity(size_);
    if (cap < slots_.size()) rehash(cap);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Heap bytes held by the slot arrays themselves.  Values that own heap
  /// storage (vectors, strings) are not followed; callers that need the
  /// full footprint add those via for_each.
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return slots_.capacity() * sizeof(std::pair<std::uint64_t, Value>) + used_.capacity();
  }

  /// Drops all entries but keeps the slot array (values are reset eagerly
  /// so reinserted keys start from a default-constructed Value).
  void clear() {
    if (size_ == 0) return;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) {
        used_[i] = 0;
        slots_[i].second = Value{};
      }
    }
    size_ = 0;
  }

  [[nodiscard]] Value* find(std::uint64_t key) noexcept {
    if (size_ == 0) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = splitmix64(key) & mask;; i = (i + 1) & mask) {
      if (!used_[i]) return nullptr;
      if (slots_[i].first == key) return &slots_[i].second;
    }
  }

  [[nodiscard]] const Value* find(std::uint64_t key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Inserts a default-constructed value if the key is absent.
  [[nodiscard]] Value& operator[](std::uint64_t key) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = splitmix64(key) & mask;; i = (i + 1) & mask) {
      if (!used_[i]) {
        used_[i] = 1;
        slots_[i].first = key;
        ++size_;
        return slots_[i].second;
      }
      if (slots_[i].first == key) return slots_[i].second;
    }
  }

  /// Inserts (or overwrites) key -> value.
  Value& insert(std::uint64_t key, Value value) {
    Value& slot = (*this)[key];
    slot = std::move(value);
    return slot;
  }

  /// Removes the key if present.  Backward-shift deletion: entries probing
  /// through the hole are moved back toward their home slot, so lookups
  /// never need tombstones and load stays honest under eviction churn.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = splitmix64(key) & mask;
    for (;; hole = (hole + 1) & mask) {
      if (!used_[hole]) return false;
      if (slots_[hole].first == key) break;
    }
    // Shift the rest of the probe chain back.  An entry may fill the hole
    // only when its home slot does not lie (cyclically) after the hole —
    // otherwise the move would break its own probe chain.
    std::size_t next = (hole + 1) & mask;
    while (used_[next]) {
      const std::size_t home = splitmix64(slots_[next].first) & mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        slots_[hole] = std::move(slots_[next]);
        hole = next;
      }
      next = (next + 1) & mask;
    }
    vacate(hole);
    --size_;
    return true;
  }

  /// Removes every entry for which pred(key, value) is true and returns how
  /// many it removed.  One walk over the slots, starting just after an
  /// empty slot so no probe chain is entered midway: a selected entry is
  /// reset to Value{}, and each survivor moves to the first free slot
  /// between its home and where it sits.  Every slot between a survivor's
  /// home and its new place has already been walked and stays occupied, so
  /// lookups stay valid without tombstones.  When anything was removed,
  /// capacity is given back only if the survivors fit in a quarter of it
  /// (all of it when none survive).  Invalidates references.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    if (size_ == 0) return 0;
    const std::size_t cap = slots_.size();
    const std::size_t mask = cap - 1;
    std::size_t start = 0;
    while (used_[start]) ++start;  // load <= 0.75: an empty slot exists
    std::size_t dropped = 0;
    for (std::size_t step = 1; step < cap; ++step) {
      const std::size_t i = (start + step) & mask;
      if (!used_[i]) continue;
      if (pred(slots_[i].first, slots_[i].second)) {
        vacate(i);
        ++dropped;
        continue;
      }
      for (std::size_t j = splitmix64(slots_[i].first) & mask; j != i; j = (j + 1) & mask) {
        if (!used_[j]) {
          slots_[j] = std::move(slots_[i]);
          used_[j] = 1;
          vacate(i);
          break;
        }
      }
    }
    if (dropped == 0) return 0;
    size_ -= dropped;
    if (size_ == 0 || min_capacity(size_) * 4 <= cap) shrink_to_fit();
    return dropped;
  }

  /// Visits every entry as fn(key, value); insertion-sequence-deterministic.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i].first, slots_[i].second);
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i].first, slots_[i].second);
    }
  }

  /// Clock-hand scan (second-chance eviction support): visits occupied
  /// slots starting at the hand, wrapping, as fn(key, value&) -> bool;
  /// stops after the first true and leaves the hand one past that slot.
  /// The hand position is in slot units, so the sweep order is a
  /// deterministic function of the insert/erase sequence.  No-op when
  /// empty; fn must eventually return true on a non-empty map.
  template <typename Fn>
  void clock_sweep(std::size_t& hand, Fn&& fn) {
    if (size_ == 0) return;
    for (;;) {
      if (hand >= slots_.size()) hand = 0;
      const std::size_t i = hand++;
      if (used_[i] && fn(slots_[i].first, slots_[i].second)) return;
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// Smallest power-of-two capacity holding `n` entries at load <= 0.75.
  static std::size_t min_capacity(std::size_t n) noexcept {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;
    return cap;
  }

  /// Empties slot i, resetting its value so a later insert there starts
  /// from a default-constructed Value (and heap the value owned is freed).
  void vacate(std::size_t i) {
    used_[i] = 0;
    slots_[i].first = 0;
    slots_[i].second = Value{};
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::pair<std::uint64_t, Value>> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.clear();
    slots_.resize(new_cap);
    used_.assign(new_cap, 0);
    const std::size_t mask = new_cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      for (std::size_t j = splitmix64(old_slots[i].first) & mask;; j = (j + 1) & mask) {
        if (!used_[j]) {
          used_[j] = 1;
          slots_[j] = std::move(old_slots[i]);
          break;
        }
      }
    }
  }

  std::vector<std::pair<std::uint64_t, Value>> slots_;
  std::vector<std::uint8_t> used_;  ///< parallel to slots_ (1 = occupied)
  std::size_t size_ = 0;
};

}  // namespace via
