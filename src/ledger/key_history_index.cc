#include "ledger/key_history_index.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/crc32c.h"

namespace spitz {

uint32_t KeyHistoryIndex::Fingerprint(const Slice& key) {
  return crc32c::Value(key.data(), key.size());
}

size_t KeyHistoryIndex::Probe(uint32_t fingerprint) const {
  // Fibonacci hashing: the product's top bits pick the home slot.
  const int shift = 32 - __builtin_ctzll(slots_.size());
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<uint32_t>(fingerprint * 0x9E3779B9u) >> shift;
  while (slots_[i].last != kNone && slots_[i].fingerprint != fingerprint) {
    i = (i + 1) & mask;
  }
  return i;
}

void KeyHistoryIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  for (const Slot& slot : old) {
    if (slot.last != kNone) slots_[Probe(slot.fingerprint)] = slot;
  }
}

void KeyHistoryIndex::AddBlock(const std::vector<LedgerEntry>& entries) {
  if (prev_.size() + entries.size() >= kNone) {
    std::fprintf(stderr, "KeyHistoryIndex: more than 2^32 - 1 writes\n");
    std::abort();
  }
  block_first_.push_back(prev_.size());
  for (const LedgerEntry& entry : entries) {
    // Keep the load at most 4/5 (counting the slot this write may take).
    if ((used_slots_ + 1) * 5 > slots_.size() * 4) Grow();
    const uint32_t fingerprint = Fingerprint(entry.key);
    Slot& slot = slots_[Probe(fingerprint)];
    if (slot.last == kNone) {
      slot.fingerprint = fingerprint;
      used_slots_++;
    }
    prev_.push_back(slot.last);
    slot.last = static_cast<uint32_t>(prev_.size() - 1);
  }
}

void KeyHistoryIndex::Lookup(const Slice& key,
                             std::vector<Position>* out) const {
  out->clear();
  if (slots_.empty()) return;
  // Walk the chain newest-first, then restore seal order.
  for (uint32_t seq = slots_[Probe(Fingerprint(key))].last; seq != kNone;
       seq = prev_[seq]) {
    auto next = std::upper_bound(block_first_.begin(), block_first_.end(),
                                 static_cast<uint64_t>(seq));
    const uint64_t height = (next - block_first_.begin()) - 1;
    out->push_back(Position{height, seq - block_first_[height]});
  }
  std::reverse(out->begin(), out->end());
}

uint64_t KeyHistoryIndex::memory_bytes() const {
  return prev_.capacity() * sizeof(uint32_t) +
         block_first_.capacity() * sizeof(uint64_t) +
         slots_.capacity() * sizeof(Slot);
}

}  // namespace spitz
