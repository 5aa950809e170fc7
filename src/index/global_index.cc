#include "index/global_index.h"

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_set>

#include "common/coding.h"

namespace s2 {

namespace {

// Slot layout: [occupied u8][hash u64][segment u64][offset u32] = 21 bytes.
constexpr size_t kSlotSize = 21;

void WriteSlot(char* slot, const IndexEntry& entry) {
  slot[0] = 1;
  memcpy(slot + 1, &entry.hash, 8);
  memcpy(slot + 9, &entry.segment_id, 8);
  memcpy(slot + 17, &entry.postings_offset, 4);
}

bool SlotOccupied(const char* slot) { return slot[0] != 0; }

IndexEntry ReadSlot(const char* slot) {
  IndexEntry entry;
  memcpy(&entry.hash, slot + 1, 8);
  memcpy(&entry.segment_id, slot + 9, 8);
  memcpy(&entry.postings_offset, slot + 17, 4);
  return entry;
}

// One table holding the entries of `sources` whose segment is not removed.
Result<ImmutableHashTable> BuildWithout(
    std::span<const ImmutableHashTable> sources,
    const std::unordered_set<uint64_t>& removed) {
  std::vector<IndexEntry> entries;
  std::vector<uint64_t> covered;
  std::unordered_set<uint64_t> seen_segments;
  for (const ImmutableHashTable& table : sources) {
    table.ForEach([&](const IndexEntry& entry) {
      if (removed.count(entry.segment_id) > 0) return;
      entries.push_back(entry);
      if (seen_segments.insert(entry.segment_id).second) {
        covered.push_back(entry.segment_id);
      }
    });
  }
  return ImmutableHashTable::Open(std::make_shared<const std::string>(
      ImmutableHashTable::Build(entries, std::move(covered))));
}

}  // namespace

std::string ImmutableHashTable::Build(
    const std::vector<IndexEntry>& entries,
    std::vector<uint64_t> covered_segments) {
  uint64_t table_size = std::bit_ceil(
      std::max<uint64_t>(4, entries.size() * 2));
  std::string out;
  PutVarint64(&out, entries.size());
  PutVarint64(&out, table_size);
  PutVarint64(&out, covered_segments.size());
  for (uint64_t seg : covered_segments) PutVarint64(&out, seg);

  size_t slots_base = out.size();
  out.resize(slots_base + table_size * kSlotSize, 0);
  char* slots = out.data() + slots_base;
  for (const IndexEntry& entry : entries) {
    uint64_t pos = entry.hash & (table_size - 1);
    while (SlotOccupied(slots + pos * kSlotSize)) {
      pos = (pos + 1) & (table_size - 1);
    }
    WriteSlot(slots + pos * kSlotSize, entry);
  }
  return out;
}

Result<ImmutableHashTable> ImmutableHashTable::Open(
    std::shared_ptr<const std::string> data) {
  ImmutableHashTable table;
  Slice in(*data);
  S2_ASSIGN_OR_RETURN(uint64_t num_entries, GetVarint64(&in));
  S2_ASSIGN_OR_RETURN(table.table_size_, GetVarint64(&in));
  S2_ASSIGN_OR_RETURN(uint64_t num_covered, GetVarint64(&in));
  table.covered_.reserve(num_covered);
  for (uint64_t i = 0; i < num_covered; ++i) {
    S2_ASSIGN_OR_RETURN(uint64_t seg, GetVarint64(&in));
    table.covered_.push_back(seg);
  }
  if (in.size() < table.table_size_ * kSlotSize) {
    return Status::Corruption("truncated hash table slots");
  }
  table.num_entries_ = num_entries;
  table.slots_ = in.data();
  table.data_ = std::move(data);
  return table;
}

void ImmutableHashTable::Lookup(
    uint64_t hash, const std::function<void(const IndexEntry&)>& cb) const {
  if (table_size_ == 0) return;
  uint64_t pos = hash & (table_size_ - 1);
  // Linear probing invariant: all entries colliding on this chain sit
  // between the home slot and the first empty slot.
  for (uint64_t probes = 0; probes < table_size_; ++probes) {
    const char* slot = slots_ + pos * kSlotSize;
    if (!SlotOccupied(slot)) return;
    IndexEntry entry = ReadSlot(slot);
    if (entry.hash == hash) cb(entry);
    pos = (pos + 1) & (table_size_ - 1);
  }
}

void ImmutableHashTable::ForEach(
    const std::function<void(const IndexEntry&)>& cb) const {
  for (uint64_t pos = 0; pos < table_size_; ++pos) {
    const char* slot = slots_ + pos * kSlotSize;
    if (SlotOccupied(slot)) cb(ReadSlot(slot));
  }
}

GlobalIndex::GlobalIndex(size_t max_tables)
    : max_tables_(max_tables == 0 ? 1 : max_tables) {}

void GlobalIndex::AddSegment(uint64_t segment_id,
                             const std::vector<IndexEntry>& entries) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto table = ImmutableHashTable::Open(std::make_shared<const std::string>(
      ImmutableHashTable::Build(entries, {segment_id})));
  if (table.ok()) tables_.push_back(std::move(*table));
  if (tables_.size() > max_tables_) MergeAllLocked();
}

void GlobalIndex::RemoveSegments(const std::vector<uint64_t>& segment_ids) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  removed_.insert(segment_ids.begin(), segment_ids.end());
  // Rewrite any table with >= half of its covered segments removed.
  std::vector<ImmutableHashTable> kept;
  for (ImmutableHashTable& table : tables_) {
    const auto& covered = table.covered_segments();
    size_t removed = std::count_if(covered.begin(), covered.end(),
                                   [&](uint64_t seg) {
                                     return removed_.count(seg) > 0;
                                   });
    if (removed * 2 < covered.size()) {
      kept.push_back(std::move(table));
      continue;
    }
    auto rewritten = BuildWithout({&table, 1}, removed_);
    if (!rewritten.ok()) {
      kept.push_back(std::move(table));
    } else if (rewritten->num_entries() > 0) {
      kept.push_back(std::move(*rewritten));
    }
  }
  tables_ = std::move(kept);
  ForgetUncoveredLocked();
}

void GlobalIndex::Lookup(
    uint64_t hash, const std::function<void(const IndexEntry&)>& cb) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const ImmutableHashTable& table : tables_) {
    table.Lookup(hash, [&](const IndexEntry& entry) {
      if (removed_.count(entry.segment_id) == 0) cb(entry);
    });
  }
}

size_t GlobalIndex::total_entries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t n = 0;
  for (const auto& table : tables_) n += table.num_entries();
  return n;
}

void GlobalIndex::MergeAllLocked() {
  // Merging is where removed segments' entries are dropped for good.
  auto table = BuildWithout(tables_, removed_);
  if (!table.ok()) return;
  tables_.clear();
  tables_.push_back(std::move(*table));
  ForgetUncoveredLocked();
}

void GlobalIndex::ForgetUncoveredLocked() {
  if (removed_.empty()) return;
  std::unordered_set<uint64_t> covered;
  for (const ImmutableHashTable& table : tables_) {
    covered.insert(table.covered_segments().begin(),
                   table.covered_segments().end());
  }
  std::erase_if(removed_,
                [&](uint64_t seg) { return covered.count(seg) == 0; });
}

}  // namespace s2
