#include "chunk/chunk_index.h"

#include <cassert>

namespace spitz {

uint32_t ChunkIndex::Find(const Hash256& id) const {
  if (table_.empty()) return kNone;
  for (size_t i = Home(id);; i = (i + 1) & mask_) {
    const uint32_t slot = table_[i];
    if (slot == kNone || at(slot).id == id) return slot;
  }
}

uint32_t ChunkIndex::Insert(const Record& record) {
  assert(record.length != 0 && Find(record.id) == kNone);
  if ((size_ + 1) * 4 > table_.size() * 3) Grow();
  uint32_t slot = free_;
  if (slot != kNone) {
    free_ = at(slot).base;
  } else {
    if (slots_ == pages_.size() * kPageRecords) {
      pages_.push_back(std::make_unique<Record[]>(kPageRecords));
    }
    slot = slots_++;
  }
  at(slot) = record;
  size_t i = Home(record.id);
  while (table_[i] != kNone) i = (i + 1) & mask_;
  table_[i] = slot;
  size_++;
  return slot;
}

size_t ChunkIndex::PositionOf(uint32_t slot) const {
  size_t i = Home(at(slot).id);
  while (table_[i] != slot) i = (i + 1) & mask_;
  return i;
}

void ChunkIndex::Erase(uint32_t slot) {
  // Backward shift: each later record of the probe run moves into the
  // hole unless its home lies after the hole, so every record stays
  // reachable from its home without a tombstone.
  size_t hole = PositionOf(slot);
  for (size_t j = (hole + 1) & mask_; table_[j] != kNone;
       j = (j + 1) & mask_) {
    const size_t home = Home(at(table_[j]).id);
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = kNone;
  Record& record = at(slot);
  record.length = 0;
  record.base = free_;
  free_ = slot;
  size_--;
}

void ChunkIndex::Grow() {
  std::vector<uint32_t> old = std::move(table_);
  table_.assign(old.empty() ? 16 : old.size() * 2, kNone);
  mask_ = table_.size() - 1;
  for (const uint32_t slot : old) {
    if (slot == kNone) continue;
    size_t i = Home(at(slot).id);
    while (table_[i] != kNone) i = (i + 1) & mask_;
    table_[i] = slot;
  }
}

size_t ChunkIndex::bytes() const {
  return pages_.size() * kPageRecords * sizeof(Record) +
         pages_.capacity() * sizeof(pages_[0]) +
         table_.capacity() * sizeof(table_[0]);
}

}  // namespace spitz
