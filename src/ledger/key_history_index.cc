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

void KeyHistoryIndex::GrowFor(size_t used) {
  size_t size = slots_.empty() ? 16 : slots_.size();
  while (used * 5 > size * 4) size *= 2;
  if (size == slots_.size()) return;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(size, Slot{});
  for (const Slot& slot : old) {
    if (slot.last != kNone) slots_[Probe(slot.fingerprint)] = slot;
  }
}

void KeyHistoryIndex::Reserve(uint64_t writes, uint64_t blocks) {
  prev_.reserve(prev_.size() + writes);
  block_first_.reserve(block_first_.size() + blocks);
  // Every write may bring a fingerprint of its own.
  GrowFor(used_slots_ + writes);
}

void KeyHistoryIndex::BeginBlock(size_t writes) {
  if (prev_.size() + writes >= kNone) {
    std::fprintf(stderr, "KeyHistoryIndex: more than 2^32 - 1 writes\n");
    std::abort();
  }
  block_first_.push_back(prev_.size());
}

void KeyHistoryIndex::Add(uint32_t fingerprint) {
  // Keep the load at most 4/5 (counting the slot this write may take).
  if ((used_slots_ + 1) * 5 > slots_.size() * 4) GrowFor(used_slots_ + 1);
  Slot& slot = slots_[Probe(fingerprint)];
  if (slot.last == kNone) {
    slot.fingerprint = fingerprint;
    used_slots_++;
  }
  prev_.push_back(slot.last);
  slot.last = static_cast<uint32_t>(prev_.size() - 1);
}

void KeyHistoryIndex::AddBlock(const std::vector<LedgerEntry>& entries) {
  BeginBlock(entries.size());
  for (const LedgerEntry& entry : entries) Add(Fingerprint(entry.key));
}

void KeyHistoryIndex::AddBlockFingerprints(
    std::span<const uint32_t> fingerprints) {
  BeginBlock(fingerprints.size());
  for (uint32_t fingerprint : fingerprints) Add(fingerprint);
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
