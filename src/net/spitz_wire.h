#ifndef SPITZ_NET_SPITZ_WIRE_H_
#define SPITZ_NET_SPITZ_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/slice.h"
#include "common/status.h"
#include "core/verified_kv.h"
#include "core/verifier.h"

namespace spitz {
namespace wire {

// Method ids of the Spitz service (DESIGN.md section 10). Stable wire
// constants — append, never renumber.
enum Method : uint32_t {
  kPut = 1,        // req: lp(key) lp(value)            resp: -
  kDelete = 2,     // req: lp(key)                      resp: -
  kGet = 3,        // req: lp(key)                      resp: lp(value)
  kGetProof = 4,   // req: lp(key)                      resp: lp(value) proof digest
  kScan = 5,       // req: lp(start) lp(end) var(limit) resp: rows
  kScanProof = 6,  // req: like kScan                   resp: rows proof digest
  kDigest = 7,     // req: -                            resp: digest
  kAudit = 8,      // req: lp(key)                      resp: -
  // v2 (protocol version 2): atomic batches, the 2PC participant
  // surface, and pinned-root proofs for cluster-digest verification.
  // A batch (WriteBatch::Encode) may end in a read set (protocol v4).
  kWrite = 9,        // req: byte(sync) batch            resp: -
  kTxnPrepare = 10,  // req: fixed64(txn_id) batch       resp: -
  kTxnCommit = 11,   // req: fixed64(txn_id)             resp: -
  kTxnAbort = 12,    // req: fixed64(txn_id)             resp: -
  kTxnInDoubt = 13,  // req: -                           resp: var(n) fixed64*n
  kGetProofAt = 14,  // req: root lp(key)                resp: lp(value) proof
  kScanProofAt = 15,  // req: root lp(start) lp(end) var(limit) resp: rows proof
  // v3 (protocol version 3): the primary-backup replication surface,
  // served only by servers advertising kFeatureReplication.
  kReplicate = 16,      // req: replication record          resp: replica ack
  kReplicaAck = 17,     // req: -                           resp: replica ack
  kReplicaStatus = 18,  // req: byte(command)               resp: replica status
};

// Metric-name suffix for a method id ("put", "get", ...); "unknown"
// for ids outside the table.
const char* MethodName(uint32_t method);
constexpr size_t kMethodCount = 18;

// --- Shared payload fragments -------------------------------------------
//
// A digest travels as SpitzDigest::EncodeTo / DecodeFrom bytes, and the
// rows of a scan response as an entry list (PutEntryList /
// GetEntryList, index/pos_tree.h).

// --- Replication payloads (protocol v3) ----------------------------------

// The backup's answer to one kReplicate (and to a kReplicaAck query):
// how many blocks it has applied, and the index root + journal tip it
// independently derived for the last one. The primary compares these
// against its own ledger — equality per acked batch IS the replication
// invariant; hash chaining makes tip equality imply full-chain
// equality.
struct ReplicaAck {
  uint64_t applied_blocks = 0;
  Hash256 index_root;  // zero until a block applied
  Hash256 tip_hash;

  void EncodeTo(std::string* out) const;
  static Status DecodeFrom(Slice* input, ReplicaAck* out);

  bool operator==(const ReplicaAck& other) const = default;
};

// kReplicaStatus request commands.
inline constexpr uint8_t kReplicaStatusQuery = 0;
inline constexpr uint8_t kReplicaStatusPromote = 1;

// The backup's role + replication state, returned by kReplicaStatus.
struct ReplicaStatusResult {
  // 0 = backup (applies kReplicate, rejects client writes);
  // 1 = promoted (serves writes, rejects further kReplicate).
  uint8_t role = 0;
  ReplicaAck applied;           // last-agreed state
  uint64_t digest_mismatches = 0;  // hard replication faults observed
  uint64_t applied_entries = 0;

  void EncodeTo(std::string* out) const;
  static Status DecodeFrom(Slice* input, ReplicaStatusResult* out);
};

// --- Replies --------------------------------------------------------------
//
// The decoders SpitzClient runs on a reply's payload, one per reply form
// of the table above. Each refuses a byte past the reply's last field,
// so a reply has one byte form. A decoded value is a view of the
// payload, and so is a proof, which keeps the payload's `owner` (the
// reply's frame buffer) alive.

// kGet: lp(value).
Status DecodeGetReply(Slice payload, Slice* value);
// kGetProof, and kGetProofAt when `digest` is null: lp(value) proof
// [digest].
Status DecodeGetProofReply(Slice payload, std::shared_ptr<const void> owner,
                           Slice* value, ReadProof* proof,
                           SpitzDigest* digest);
// kScan: rows.
Status DecodeScanReply(Slice payload, std::vector<PosEntry>* rows);
// kScanProof, and kScanProofAt when `digest` is null: rows proof
// [digest].
Status DecodeScanProofReply(Slice payload, std::shared_ptr<const void> owner,
                            std::vector<PosEntry>* rows, ScanProof* proof,
                            SpitzDigest* digest);
// kTxnInDoubt: var(n) fixed64*n.
Status DecodeTxnInDoubtReply(Slice payload, std::vector<uint64_t>* txn_ids);
// kDigest (SpitzDigest), kReplicate and kReplicaAck (ReplicaAck), and
// kReplicaStatus (ReplicaStatusResult): one value's DecodeFrom form.
template <typename T>
Status DecodeReply(Slice payload, T* out) {
  Status s = T::DecodeFrom(&payload, out);
  return s.ok() ? CheckConsumed(payload, "the reply") : s;
}

}  // namespace wire
}  // namespace spitz

#endif  // SPITZ_NET_SPITZ_WIRE_H_
