#ifndef SPITZ_REPLICA_RECORD_H_
#define SPITZ_REPLICA_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "core/spitz_db.h"
#include "net/spitz_wire.h"

namespace spitz {

// The replication record (DESIGN.md §15), the one place that knows its
// layout: a sealed journal block plus the values of its surviving puts
// (ledger entries carry only value hashes).
//
//   fixed64(height) ‖ lp(block bytes) ‖ per put entry, in order:
//     0               superseded by a later same-key entry of the block
//     1 ‖ lp(value)   the value the put wrote

// Per entry of a block: a put no later entry of the block names the key
// of. Which values the encoder ships and the decoder requires.
std::vector<bool> SurvivingPuts(const std::vector<LedgerEntry>& entries);

// The record of `db`'s sealed block `height`, values read at the block's
// own root; *block receives the decoded block. NotFound past the sealed
// tip or once the root aged out of the version-retention window (catch-up
// that far behind needs a re-seed).
Status EncodeReplicationRecord(const SpitzDb& db, uint64_t height,
                               std::string* record, Block* block);

struct ReplicationRecord {
  Block block;
  Slice serialized;  // the block's journal bytes, inside the record
  WriteBatch ops;    // every delete and surviving put, in entry order
};

// Strict: InvalidArgument for a malformed record (truncated, height not
// the block's, unknown op, bad or non-canonical flag, trailing bytes);
// VerificationFailed when a value does not hash to its entry or a
// surviving put's value is withheld.
Status DecodeReplicationRecord(const Slice& record, ReplicationRecord* out);

// What a backup that applied `block` acks: the block count after it,
// its sealed index root and its hash (the journal tip).
wire::ReplicaAck BlockAck(const Block& block);

// BlockAck of `db`'s sealed block `height` (a resume point, or the re-ack
// of a duplicate). NotFound past the sealed tip.
Status SealedBlockAck(const SpitzDb& db, uint64_t height,
                      wire::ReplicaAck* ack);

}  // namespace spitz

#endif  // SPITZ_REPLICA_RECORD_H_
