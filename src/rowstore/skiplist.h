#ifndef S2_ROWSTORE_SKIPLIST_H_
#define S2_ROWSTORE_SKIPLIST_H_

#include <atomic>
#include <cstdint>

#include "common/rng.h"
#include "common/slice.h"
#include "common/types.h"

namespace s2 {

/// One MVCC version of a row. Versions form a newest-first singly linked
/// chain hanging off a skiplist node; readers walk the chain to the first
/// version visible at their snapshot, so readers never wait on writers
/// (paper Section 2.1.1).
struct RowVersion {
  std::atomic<Timestamp> commit_ts{kTsUncommitted};
  uint64_t txn_id = 0;
  bool deleted = false;  // true: this version deletes the row
  /// Written by a system "move transaction" (paper Section 4.2): the row
  /// was copied from a columnstore segment into the rowstore without
  /// changing logical table content. System versions never count as
  /// write-write conflicts against user snapshots.
  bool system = false;
  Row data;
  RowVersion* next = nullptr;  // older version
};

/// Lock-free concurrent skiplist keyed by encoded byte strings.
///
/// Concurrency contract:
///  - GetOrInsert / Find / iteration may run concurrently from any number
///    of threads (inserts use CAS splicing, LevelDB-style; nodes are never
///    unlinked concurrently).
///  - Purge() physically unlinks and frees nodes and requires external
///    exclusion against all concurrent access (the rowstore table takes
///    its exclusive lock). No caller may use a Node* kept across that
///    exclusion: the rowstore uses node pointers under its shared lock,
///    and rebuilds its secondary lists, whose entries point at primary
///    nodes, whenever a purge frees any.
class SkipList {
 public:
  static constexpr int kMaxHeight = 14;

  /// One allocation: the fields, `height` next pointers, then the key
  /// bytes (LevelDB's inline-key layout), so a search reads each key it
  /// compares from the node it already loaded.
  struct Node {
    /// Primary lists: the row's newest-first version chain.
    std::atomic<RowVersion*> versions{nullptr};
    /// Secondary lists: the row's node in the primary list, published with
    /// a release store after the entry is linked; null until then.
    std::atomic<Node*> row{nullptr};
    uint32_t key_size = 0;
    int height = 0;
    std::atomic<Node*> next[1];  // [height] pointers, allocated inline

    Slice key() const {
      return Slice(reinterpret_cast<const char*>(this) + KeyOffset(height),
                   key_size);
    }
    Node* Next(int level) const {
      return next[level].load(std::memory_order_acquire);
    }
  };

  SkipList();
  ~SkipList();

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Returns the node for `key`, inserting an empty one if absent.
  /// `created` reports whether this call inserted it.
  Node* GetOrInsert(Slice key, bool* created);

  /// Returns the node with exactly `key`, or nullptr.
  Node* Find(Slice key) const;

  /// Returns the first node with key >= `key`, or nullptr (seek for ordered
  /// scans).
  Node* Seek(Slice key) const;

  /// First node in key order, or nullptr.
  Node* First() const;

  /// Successor in key order, or nullptr.
  static Node* Next(const Node* node) { return node->Next(0); }

  /// Unlinks and frees (with their versions) every node for which
  /// `dead(node)` returns true. Requires external exclusion (no concurrent
  /// readers or writers). Returns the number of freed nodes.
  template <typename Pred>
  size_t Purge(Pred dead) {
    size_t purged = 0;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      Node* prev = head_;
      Node* cur = prev->next[level].load(std::memory_order_relaxed);
      while (cur != nullptr) {
        Node* next = cur->next[level].load(std::memory_order_relaxed);
        if (dead(cur)) {
          prev->next[level].store(next, std::memory_order_relaxed);
          if (level == 0) {
            // Levels run top-down, so level 0 unlinks the node last.
            DeleteNode(cur);
            ++purged;
          }
        } else {
          prev = cur;
        }
        cur = next;
      }
    }
    num_nodes_.fetch_sub(purged, std::memory_order_relaxed);
    return purged;
  }

  size_t num_nodes() const {
    return num_nodes_.load(std::memory_order_relaxed);
  }

 private:
  static size_t KeyOffset(int height) {
    return sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1);
  }
  static Node* NewNode(Slice key, int height);
  static void DeleteNode(Node* node);
  int RandomHeight();

  /// Finds the node >= key, filling prev[] with the rightmost node strictly
  /// before key at every level below the search height. `search_height`
  /// (when non-null) reports the max_height_ value the search used, i.e.
  /// how many prev[] levels were filled — a concurrent insert may bump
  /// max_height_ mid-search, so callers must not re-read it instead.
  Node* FindGreaterOrEqual(Slice key, Node** prev,
                           int* search_height = nullptr) const;

  Node* head_;
  std::atomic<int> max_height_{1};
  std::atomic<size_t> num_nodes_{0};
  std::atomic<uint64_t> rng_state_{0x853c49e6748fea9bULL};
};

}  // namespace s2

#endif  // S2_ROWSTORE_SKIPLIST_H_
