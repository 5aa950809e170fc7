#include "rowstore/skiplist.h"

#include <cstdlib>
#include <cstring>
#include <new>

namespace s2 {

SkipList::SkipList() { head_ = NewNode(Slice(), kMaxHeight); }

SkipList::~SkipList() {
  Node* node = head_->next[0].load(std::memory_order_relaxed);
  while (node != nullptr) {
    Node* next = node->next[0].load(std::memory_order_relaxed);
    DeleteNode(node);
    node = next;
  }
  DeleteNode(head_);
}

SkipList::Node* SkipList::NewNode(Slice key, int height) {
  void* mem = ::operator new(KeyOffset(height) + key.size());
  Node* node = new (mem) Node{};
  node->key_size = static_cast<uint32_t>(key.size());
  node->height = height;
  for (int i = 0; i < height; ++i) {
    new (&node->next[i]) std::atomic<Node*>(nullptr);
  }
  if (!key.empty()) {
    memcpy(static_cast<char*>(mem) + KeyOffset(height), key.data(),
           key.size());
  }
  return node;
}

void SkipList::DeleteNode(Node* node) {
  RowVersion* v = node->versions.load(std::memory_order_relaxed);
  while (v != nullptr) {
    RowVersion* next = v->next;
    delete v;
    v = next;
  }
  node->~Node();
  ::operator delete(node);
}

int SkipList::RandomHeight() {
  // xorshift on a shared atomic state; collisions only perturb the height
  // distribution, never correctness.
  uint64_t x = rng_state_.load(std::memory_order_relaxed);
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  rng_state_.store(x, std::memory_order_relaxed);
  int height = 1;
  while (height < kMaxHeight && (x & 3) == 0) {
    ++height;
    x >>= 2;
  }
  return height;
}

SkipList::Node* SkipList::FindGreaterOrEqual(Slice key, Node** prev,
                                             int* search_height) const {
  Node* x = head_;
  int start = max_height_.load(std::memory_order_relaxed);
  if (search_height != nullptr) *search_height = start;
  int level = start - 1;
  for (;;) {
    Node* next = x->Next(level);
    if (next != nullptr && next->key().Compare(key) < 0) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) return next;
      --level;
    }
  }
}

SkipList::Node* SkipList::GetOrInsert(Slice key, bool* created) {
  Node* prev[kMaxHeight];
  for (;;) {
    int searched = 0;
    Node* found = FindGreaterOrEqual(key, prev, &searched);
    if (found != nullptr && found->key() == key) {
      *created = false;
      return found;
    }
    // Fill prev for levels the search did not cover. This must use the
    // height the search actually ran with, not a fresh max_height_ read: a
    // concurrent insert can bump max_height_ between the search and here,
    // which would leave prev[] entries in that gap uninitialized.
    int height = RandomHeight();
    for (int i = searched; i < height; ++i) prev[i] = head_;
    if (height > max_height_.load(std::memory_order_relaxed)) {
      // Racy max bump is fine: a stale small value only costs search time.
      max_height_.store(height, std::memory_order_relaxed);
    }
    Node* node = NewNode(key, height);
    // Splice bottom-up. If the bottom-level CAS fails, someone inserted a
    // node in our window: retry the whole operation (the key may now
    // exist).
    node->next[0].store(prev[0]->Next(0), std::memory_order_relaxed);
    Node* expected = node->next[0].load(std::memory_order_relaxed);
    if (expected != nullptr && expected->key().Compare(key) <= 0) {
      DeleteNode(node);
      continue;  // a racing insert got in; re-search
    }
    if (!prev[0]->next[0].compare_exchange_strong(
            expected, node, std::memory_order_release)) {
      DeleteNode(node);
      continue;
    }
    // Upper levels: best-effort CAS; on failure re-find predecessors.
    for (int level = 1; level < height; ++level) {
      for (;;) {
        Node* next = prev[level]->Next(level);
        if (next != nullptr && next->key().Compare(key) < 0) {
          // Predecessor moved; re-find at this level.
          Node* x = prev[level];
          while (true) {
            Node* n2 = x->Next(level);
            if (n2 == nullptr || n2->key().Compare(key) >= 0) break;
            x = n2;
          }
          prev[level] = x;
          continue;
        }
        node->next[level].store(next, std::memory_order_relaxed);
        if (prev[level]->next[level].compare_exchange_strong(
                next, node, std::memory_order_release)) {
          break;
        }
      }
    }
    num_nodes_.fetch_add(1, std::memory_order_relaxed);
    *created = true;
    return node;
  }
}

SkipList::Node* SkipList::Find(Slice key) const {
  Node* node = FindGreaterOrEqual(key, nullptr);
  if (node != nullptr && node->key() == key) return node;
  return nullptr;
}

SkipList::Node* SkipList::Seek(Slice key) const {
  return FindGreaterOrEqual(key, nullptr);
}

SkipList::Node* SkipList::First() const { return head_->Next(0); }

}  // namespace s2
