// FlatHashMap: open-addressing hash map with linear probing and tombstone-free
// backward-shift deletion.
//
// The detector's shadow memory maps Loc -> per-location state on every
// monitored access, so lookup cost dominates the per-access constant of
// Theorem 5. std::unordered_map's node allocations would double the measured
// footprint in the E2 space experiment; a flat layout keeps bytes-per-location
// honest and cache behaviour predictable. Keys must be trivially copyable.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace race2d {

/// Fibonacci hashing: one multiply by 2^64/φ; the TOP bits index the table
/// (see probe_start), so stride-aligned keys — addresses are multiples of
/// 8 or 64 — still spread uniformly, at a fraction of a full mixer's cost.
struct Mix64Hash {
  std::size_t operator()(std::uint64_t x) const {
    return static_cast<std::size_t>(x * 0x9E3779B97F4A7C15ULL);
  }
};

template <typename K, typename V, typename Hash = Mix64Hash>
class FlatHashMap {
  static_assert(std::is_trivially_copyable_v<K>, "keys must be trivially copyable");

  struct Slot {
    K key;
    V value;
    bool occupied = false;
  };

 public:
  explicit FlatHashMap(std::size_t initial_capacity = 16) {
    slots_.resize(round_up_pow2(initial_capacity < 4 ? 4 : initial_capacity));
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table so `n` entries fit without triggering an
  /// incremental rehash (the 5/8 load-factor bound of maybe_grow). Never
  /// shrinks; existing entries are rehashed into the larger table.
  void reserve(std::size_t n) {
    std::size_t wanted = 4;
    while (n * 8 > wanted * 5) wanted <<= 1;
    if (wanted <= slots_.size()) return;
    rehash_to(wanted);
  }

  /// Returns the value for `key`, default-constructing it if absent.
  V& operator[](const K& key) {
    maybe_grow();
    std::size_t i = probe_start(key);
    while (slots_[i].occupied) {
      if (slots_[i].key == key) return slots_[i].value;
      i = next(i);
    }
    slots_[i].occupied = true;
    slots_[i].key = key;
    slots_[i].value = V{};
    ++size_;
    return slots_[i].value;
  }

  /// Returns a pointer to the value for `key`, or nullptr if absent.
  V* find(const K& key) {
    std::size_t i = probe_start(key);
    while (slots_[i].occupied) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = next(i);
    }
    return nullptr;
  }
  const V* find(const K& key) const {
    return const_cast<FlatHashMap*>(this)->find(key);
  }

  bool contains(const K& key) const { return find(key) != nullptr; }

  /// Removes `key` if present; returns whether a removal happened.
  /// Uses backward-shift deletion, so no tombstones accumulate.
  bool erase(const K& key) {
    std::size_t i = probe_start(key);
    while (slots_[i].occupied) {
      if (slots_[i].key == key) {
        std::size_t hole = i;
        std::size_t j = next(i);
        while (slots_[j].occupied) {
          const std::size_t home = probe_start(slots_[j].key);
          // Shift back entries whose home position precedes (cyclically) the
          // hole; this preserves the linear-probing invariant.
          const bool movable = (j > hole) ? (home <= hole || home > j)
                                          : (home <= hole && home > j);
          if (movable) {
            slots_[hole] = std::move(slots_[j]);
            hole = j;
          }
          j = next(j);
        }
        slots_[hole].occupied = false;
        slots_[hole].value = V{};
        --size_;
        return true;
      }
      i = next(i);
    }
    return false;
  }

  void clear() {
    for (auto& s : slots_) {
      s.occupied = false;
      s.value = V{};
    }
    size_ = 0;
  }

  /// Calls fn(key, value) for every occupied slot (unspecified order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& s : slots_)
      if (s.occupied) fn(s.key, s.value);
  }
  /// The same walk with the values writable (keys stay const).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& s : slots_)
      if (s.occupied) fn(static_cast<const K&>(s.key), s.value);
  }

  /// Heap bytes held by the table (for E2 space accounting).
  std::size_t heap_bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  std::size_t probe_start(const K& key) const {
    // Use the TOP bits of the hash (they carry the multiply's mixing).
    const int shift = std::countl_zero(slots_.size() - 1);
    return Hash{}(static_cast<std::uint64_t>(key)) >> shift;
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  void maybe_grow() {
    // Grow when the NEXT insert could push load past 5/8: plain (non-SIMD)
    // linear probing clusters badly beyond that, and the table must never
    // fill completely or the probe loops would not terminate.
    if ((size_ + 1) * 8 <= slots_.size() * 5) return;
    rehash_to(slots_.size() * 2);
  }

  void rehash_to(std::size_t new_slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_slot_count);
    size_ = 0;
    for (auto& s : old) {
      if (!s.occupied) continue;
      std::size_t i = probe_start(s.key);
      while (slots_[i].occupied) i = next(i);
      slots_[i].occupied = true;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace race2d
