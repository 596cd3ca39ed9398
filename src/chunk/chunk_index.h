#ifndef SPITZ_CHUNK_CHUNK_INDEX_H_
#define SPITZ_CHUNK_CHUNK_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/hash.h"

namespace spitz {

// One shard of FileChunkStore's resident index (DESIGN.md section 12):
// a packed location record for every chunk the shard holds, and nothing
// else. Records sit in pages of kPageRecords that never move or shrink,
// so a record's slot number names it for as long as it stays stored (a
// delta names its base so); an erased slot goes on a free list, which
// the next insert pops. An open-addressing table of slot numbers
// (linear probing, at most 3/4 full, erased by backward shift, so no
// tombstones) finds a record by the id stored in it. No record has a
// heap allocation of its own: a chunk costs its 56 B record plus 5-11 B
// of table. Not thread-safe; the store guards each shard with its own
// lock.
class ChunkIndex {
 public:
  // A chunk's location in the segment log.
  struct Record {
    Hash256 id;
    uint64_t seq : 56 = 0;   // insertion sequence (GC mark comparison)
    uint64_t depth : 8 = 0;  // delta records down to a full one
    uint32_t segment = 0;
    uint32_t offset = 0;  // of the record in its segment
    uint32_t length = 0;  // of the record; 0 marks a free slot
    uint32_t base = 0;    // a delta's base (the store's reference to
                          // the base's slot); a free slot's next free
  };

  // No slot: Find's miss and the table's empty mark.
  static constexpr uint32_t kNone = UINT32_MAX;
  static constexpr size_t kPageRecords = 64;

  ChunkIndex() = default;
  ChunkIndex(const ChunkIndex&) = delete;
  ChunkIndex& operator=(const ChunkIndex&) = delete;

  // The slot of `id`'s record, or kNone.
  uint32_t Find(const Hash256& id) const;

  // The record in `slot`, which Insert returned and Erase has not freed.
  Record& at(uint32_t slot) {
    return pages_[slot / kPageRecords][slot % kPageRecords];
  }
  const Record& at(uint32_t slot) const {
    return pages_[slot / kPageRecords][slot % kPageRecords];
  }

  // Stores `record`, whose id must not be stored yet and whose length
  // is not 0, and returns its slot.
  uint32_t Insert(const Record& record);

  // Frees `slot`; the next Insert may reuse it.
  void Erase(uint32_t slot);

  // Calls fn(slot, record) for every stored record, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t slot = 0; slot < slots_; slot++) {
      const Record& record = at(slot);
      if (record.length != 0) fn(slot, record);
    }
  }

  size_t size() const { return size_; }

  // Heap bytes held: the pages, the page list and the table.
  size_t bytes() const;

 private:
  size_t Home(const Hash256& id) const { return Hash256Hasher()(id) & mask_; }
  // The table position holding `slot`.
  size_t PositionOf(uint32_t slot) const;
  void Grow();

  std::vector<std::unique_ptr<Record[]>> pages_;
  uint32_t slots_ = 0;  // slots handed out so far, free ones included
  uint32_t free_ = kNone;
  size_t size_ = 0;
  std::vector<uint32_t> table_;  // slot numbers; kNone is empty
  size_t mask_ = 0;
};

static_assert(sizeof(ChunkIndex::Record) == 56,
              "a location record is 56 bytes");

}  // namespace spitz

#endif  // SPITZ_CHUNK_CHUNK_INDEX_H_
