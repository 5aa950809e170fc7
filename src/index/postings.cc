#include "index/postings.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace s2 {

namespace {
constexpr uint32_t kGroupSize = 64;

uint32_t NumGroups(uint64_t count) {
  return static_cast<uint32_t>((count + kGroupSize - 1) / kGroupSize);
}
}  // namespace

void EncodePostings(const std::vector<uint32_t>& rows, std::string* dst) {
  // Layout: [count varint]
  //         [skip: (num_groups - 1) * (first_row fixed32, delta_offset
  //          fixed32), one per group after the first]
  //         [delta varints]
  // The first group starts the deltas, so it needs no skip entry: a
  // one-row list is its count and one varint.
  PutVarint64(dst, rows.size());
  size_t skip_pos = dst->size();
  uint32_t num_groups = NumGroups(rows.size());
  if (num_groups > 1) dst->resize(skip_pos + (num_groups - 1) * 8);
  size_t deltas_pos = dst->size();
  uint32_t prev = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i % kGroupSize == 0) {
      if (i > 0) {
        uint32_t entry[2] = {rows[i],
                             static_cast<uint32_t>(dst->size() - deltas_pos)};
        memcpy(dst->data() + skip_pos + (i / kGroupSize - 1) * 8, entry, 8);
      }
      PutVarint64(dst, rows[i]);  // group leader stored absolute
    } else {
      PutVarint64(dst, rows[i] - prev);
    }
    prev = rows[i];
  }
}

Result<PostingsIterator> PostingsIterator::Open(Slice data) {
  PostingsIterator it;
  Slice in = data;
  S2_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&in));
  it.count_ = static_cast<uint32_t>(count);
  it.num_groups_ = NumGroups(count);
  size_t skip_bytes = it.num_groups_ > 1 ? (it.num_groups_ - 1) * 8 : 0;
  if (in.size() < skip_bytes) {
    return Status::Corruption("truncated postings skip table");
  }
  it.start_ = data.data();
  it.skip_ = in.data();
  in.RemovePrefix(skip_bytes);
  it.deltas_ = in;
  if (count > 0) {
    it.valid_ = true;
    it.LoadGroup(0);
    it.Next();  // position on the first posting
  }
  return it;
}

size_t PostingsIterator::encoded_size() const {
  size_t header = static_cast<size_t>(deltas_.data() - start_);
  if (count_ == 0) return header;
  // Walk the last group to its end.
  uint32_t last = num_groups_ - 1;
  size_t offset = GroupOffset(last);
  if (offset > deltas_.size()) return header + deltas_.size();
  Slice cursor(deltas_.data() + offset, deltas_.size() - offset);
  for (uint32_t i = last * kGroupSize; i < count_; ++i) {
    if (!GetVarint64(&cursor).ok()) break;
  }
  return static_cast<size_t>(cursor.data() - start_);
}

uint32_t PostingsIterator::GroupOffset(uint32_t group) const {
  return group == 0 ? 0 : DecodeFixed32(skip_ + (group - 1) * 8 + 4);
}

void PostingsIterator::LoadGroup(uint32_t group) {
  group_ = group;
  in_group_ = 0;
  index_ = group * kGroupSize;
  uint32_t offset = GroupOffset(group);
  if (offset > deltas_.size()) {
    // A damaged skip entry: end the list rather than read past it.
    index_ = count_;
    cursor_ = Slice();
    return;
  }
  cursor_ = Slice(deltas_.data() + offset, deltas_.size() - offset);
  current_ = 0;  // leader delta is absolute
}

void PostingsIterator::Next() {
  // Called with the iterator positioned *before* the posting to produce.
  if (index_ >= count_) {
    valid_ = false;
    return;
  }
  if (in_group_ == kGroupSize) {
    LoadGroup(group_ + 1);
    if (index_ >= count_) {
      valid_ = false;
      return;
    }
  }
  auto delta = GetVarint64(&cursor_);
  if (!delta.ok()) {
    valid_ = false;
    return;
  }
  current_ = in_group_ == 0 ? static_cast<uint32_t>(*delta)
                            : current_ + static_cast<uint32_t>(*delta);
  ++in_group_;
  ++index_;
}

void PostingsIterator::SeekTo(uint32_t target) {
  if (!valid_ || current_ >= target) return;
  // The current group starts at or below current_ < target. Find the last
  // later group whose first_row <= target (group g > 0 has skip entry
  // g - 1); jump there when there is one.
  uint32_t lo = group_ + 1, hi = num_groups_, best = group_;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (DecodeFixed32(skip_ + (mid - 1) * 8) <= target) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (best > group_) {
    LoadGroup(best);
    Next();
  }
  while (valid_ && current_ < target) Next();
}
Status IntersectPostings(std::vector<PostingsIterator> its,
                         std::vector<uint32_t>* out) {
  if (its.empty()) return Status::OK();
  for (const auto& it : its) {
    if (!it.Valid()) return Status::OK();  // empty intersection
  }
  // Leapfrog: repeatedly seek every iterator to the current max.
  for (;;) {
    uint32_t target = its[0].row();
    bool all_equal = true;
    for (auto& it : its) {
      if (it.row() != target) all_equal = false;
      target = std::max(target, it.row());
    }
    if (all_equal) {
      out->push_back(target);
      for (auto& it : its) {
        it.Next();
        if (!it.Valid()) return Status::OK();
      }
      continue;
    }
    for (auto& it : its) {
      it.SeekTo(target);
      if (!it.Valid()) return Status::OK();
    }
  }
}

Status UnionPostings(std::vector<PostingsIterator> its,
                     std::vector<uint32_t>* out) {
  for (;;) {
    uint32_t min = ~uint32_t{0};
    bool any = false;
    for (auto& it : its) {
      if (it.Valid()) {
        any = true;
        min = std::min(min, it.row());
      }
    }
    if (!any) return Status::OK();
    out->push_back(min);
    for (auto& it : its) {
      if (it.Valid() && it.row() == min) it.Next();
    }
  }
}

}  // namespace s2
