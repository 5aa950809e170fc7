#ifndef S2_QUERY_HASH_INDEX_H_
#define S2_QUERY_HASH_INDEX_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace s2 {

/// Open-addressing hash index with linear probing. It maps a 64-bit hash
/// to dense entry ids (0, 1, 2, ... in insertion order) and stores nothing
/// else: the caller keeps keys and payloads in plain arrays indexed by
/// entry id and supplies the equality test. Slots keep the full hash, so
/// a probe only calls the equality test on a full-hash match and growth
/// never rehashes a key.
class HashIndex {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// Number of entries.
  size_t size() const { return size_; }

  /// The entry whose hash is `hash` and for which `eq(id)` holds, or
  /// kNone.
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq) const {
    if (slots_.empty()) return kNone;
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kNone) return kNone;
      if (slot.hash == hash && eq(slot.id)) return slot.id;
    }
  }

  /// Finds the entry as Find does; if there is none, adds one with the
  /// next id (size() before the call). Returns the id and whether it is
  /// new.
  template <typename Eq>
  std::pair<uint32_t, bool> FindOrInsert(uint64_t hash, const Eq& eq) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t i = hash & mask_;
    for (;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kNone) break;
      if (slot.hash == hash && eq(slot.id)) return {slot.id, false};
    }
    uint32_t id = static_cast<uint32_t>(size_++);
    slots_[i] = Slot{hash, id};
    return {id, true};
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kNone;
  };

  // Doubles the slot array (load factor <= 1/2) and reinserts every slot
  // by its stored hash.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNone) continue;
      size_t i = slot.hash & mask_;
      while (slots_[i].id != kNone) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Key equality for hash joins and grouping: same type and same bits. This
/// is the rule a byte-encoded key (EncodeKey) gives, so int 1 and double
/// 1.0 are different keys, as are 0.0 and -0.0, and NULL equals NULL
/// (joins drop NULL keys before they reach an index).
inline bool KeyEqual(const Value& a, const Value& b) {
  if (a.is_int()) return b.is_int() && a.as_int() == b.as_int();
  if (a.is_string()) return b.is_string() && a.as_string() == b.as_string();
  if (a.is_double()) {
    if (!b.is_double()) return false;
    double x = a.as_double(), y = b.as_double();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return b.is_null();
}

/// A tuple of key values, each read in place from a row or a stored key.
using KeyRef = std::span<const Value* const>;

/// Hash of a key tuple: Value::Hash of each column folded by HashCombine.
/// Values that are KeyEqual hash equally (Value::Hash is even coarser: it
/// gives 1 and 1.0 one hash, and KeyEqual then tells them apart).
inline uint64_t HashKey(KeyRef key) {
  uint64_t h = 0;
  for (const Value* v : key) h = HashCombine(h, v->Hash());
  return h;
}

inline bool KeyEqual(KeyRef key, const Value* stored) {
  for (size_t i = 0; i < key.size(); ++i) {
    if (!KeyEqual(*key[i], stored[i])) return false;
  }
  return true;
}

}  // namespace s2

#endif  // S2_QUERY_HASH_INDEX_H_
