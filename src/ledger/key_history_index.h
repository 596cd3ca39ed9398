#ifndef SPITZ_LEDGER_KEY_HISTORY_INDEX_H_
#define SPITZ_LEDGER_KEY_HISTORY_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/slice.h"
#include "proof/block.h"

namespace spitz {

// Where each key's sealed writes sit in the journal: the lookup behind
// KeyHistory (the paper's HISTORY() provenance, section 5.1). It keeps
// no key bytes. A write is its global entry sequence plus a 4 B link to
// the previous write with the same 32-bit key fingerprint; a fingerprint
// is one 8 B slot of an open-addressing table; a block is its first
// sequence number. Keys that share a fingerprint share one chain, so
// Lookup returns a superset of a key's writes and the caller keeps the
// entries whose decoded key matches: a collision costs a wasted decode,
// never a wrong answer.
//
// Not thread-safe; the owner serializes access (Ledger: under its
// owner's writer lock).
// Holds up to 2^32 - 1 writes, far beyond a journal that is resident in
// RAM (DESIGN.md section 12).
class KeyHistoryIndex {
 public:
  // A sealed write: entry `index` of the block at `height`.
  struct Position {
    uint64_t height = 0;
    uint64_t index = 0;
  };

  // Indexes the entries of the next block (heights 0, 1, 2, ... in seal
  // order). O(1) amortised per entry.
  void AddBlock(const std::vector<LedgerEntry>& entries);
  // The same for a block whose keys' fingerprints are already computed
  // (Fingerprint, in entry order).
  void AddBlockFingerprints(std::span<const uint32_t> fingerprints);

  // Makes room for `writes` more writes in `blocks` more blocks, so that
  // adding them allocates nothing (a bulk load indexes its history on a
  // thread of its own, DESIGN.md section 6).
  void Reserve(uint64_t writes, uint64_t blocks);

  // Every indexed write whose key has `key`'s fingerprint, in seal
  // order. Touches only those writes.
  void Lookup(const Slice& key, std::vector<Position>* out) const;

  uint64_t write_count() const { return prev_.size(); }
  // Heap bytes held (capacity, not size).
  uint64_t memory_bytes() const;

  static uint32_t Fingerprint(const Slice& key);

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Slot {
    uint32_t fingerprint = 0;
    uint32_t last = kNone;  // latest write with this fingerprint; kNone: empty
  };

  // The slot holding `fingerprint`, or the empty slot where it belongs.
  size_t Probe(uint32_t fingerprint) const;
  // Doubles the table (from 16 slots) until it holds `used` slots at
  // most 4/5 full.
  void GrowFor(size_t used);
  // Checks that `writes` more fit, and starts the next block.
  void BeginBlock(size_t writes);
  void Add(uint32_t fingerprint);

  // prev_[seq]: the previous write with the same fingerprint, or kNone.
  std::vector<uint32_t> prev_;
  // block_first_[height]: the sequence number of the block's first entry.
  std::vector<uint64_t> block_first_;
  std::vector<Slot> slots_;  // power-of-two size, linear probing
  size_t used_slots_ = 0;
};

}  // namespace spitz

#endif  // SPITZ_LEDGER_KEY_HISTORY_INDEX_H_
