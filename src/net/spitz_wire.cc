#include "net/spitz_wire.h"

#include "common/codec.h"

namespace spitz {
namespace wire {

const char* MethodName(uint32_t method) {
  switch (method) {
    case kPut:
      return "put";
    case kDelete:
      return "delete";
    case kGet:
      return "get";
    case kGetProof:
      return "get_proof";
    case kScan:
      return "scan";
    case kScanProof:
      return "scan_proof";
    case kDigest:
      return "digest";
    case kAudit:
      return "audit";
    case kWrite:
      return "write";
    case kTxnPrepare:
      return "txn_prepare";
    case kTxnCommit:
      return "txn_commit";
    case kTxnAbort:
      return "txn_abort";
    case kTxnInDoubt:
      return "txn_in_doubt";
    case kGetProofAt:
      return "get_proof_at";
    case kScanProofAt:
      return "scan_proof_at";
    case kReplicate:
      return "replicate";
    case kReplicaAck:
      return "replica_ack";
    case kReplicaStatus:
      return "replica_status";
    default:
      return "unknown";
  }
}

void ReplicaAck::EncodeTo(std::string* out) const {
  PutFixed64(out, applied_blocks);
  out->append(index_root.ToBytes());
  out->append(tip_hash.ToBytes());
}

Status ReplicaAck::DecodeFrom(Slice* input, ReplicaAck* out) {
  Status s = GetFixed64(input, &out->applied_blocks);
  if (s.ok()) s = GetHash256(input, &out->index_root);
  if (s.ok()) s = GetHash256(input, &out->tip_hash);
  return s;
}

void ReplicaStatusResult::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(role));
  applied.EncodeTo(out);
  PutFixed64(out, digest_mismatches);
  PutFixed64(out, applied_entries);
}

Status ReplicaStatusResult::DecodeFrom(Slice* input,
                                       ReplicaStatusResult* out) {
  bool promoted = false;
  Status s = GetBool(input, &promoted);
  if (s.ok()) s = ReplicaAck::DecodeFrom(input, &out->applied);
  if (s.ok()) s = GetFixed64(input, &out->digest_mismatches);
  if (s.ok()) s = GetFixed64(input, &out->applied_entries);
  out->role = promoted ? 1 : 0;
  return s;
}

Status DecodeGetReply(Slice payload, Slice* value) {
  Status s = GetLengthPrefixedSlice(&payload, value);
  return s.ok() ? CheckConsumed(payload, "the reply") : s;
}

Status DecodeGetProofReply(Slice payload, std::shared_ptr<const void> owner,
                           Slice* value, ReadProof* proof,
                           SpitzDigest* digest) {
  Status s = GetLengthPrefixedSlice(&payload, value);
  if (s.ok()) s = ReadProof::DecodeFrom(&payload, std::move(owner), proof);
  if (s.ok() && digest != nullptr) {
    s = SpitzDigest::DecodeFrom(&payload, digest);
  }
  return s.ok() ? CheckConsumed(payload, "the reply") : s;
}

Status DecodeScanReply(Slice payload, std::vector<PosEntry>* rows) {
  Status s = GetEntryList(&payload, rows);
  return s.ok() ? CheckConsumed(payload, "the reply") : s;
}

Status DecodeScanProofReply(Slice payload, std::shared_ptr<const void> owner,
                            std::vector<PosEntry>* rows, ScanProof* proof,
                            SpitzDigest* digest) {
  Status s = GetEntryList(&payload, rows);
  if (s.ok()) s = ScanProof::DecodeFrom(&payload, std::move(owner), proof);
  if (s.ok() && digest != nullptr) {
    s = SpitzDigest::DecodeFrom(&payload, digest);
  }
  return s.ok() ? CheckConsumed(payload, "the reply") : s;
}

Status DecodeTxnInDoubtReply(Slice payload, std::vector<uint64_t>* txn_ids) {
  uint64_t n = 0;
  Status s = GetCount(&payload, sizeof(uint64_t), &n);
  if (!s.ok()) return s;
  txn_ids->resize(n);
  for (uint64_t& txn_id : *txn_ids) {
    s = GetFixed64(&payload, &txn_id);
    if (!s.ok()) return s;
  }
  return CheckConsumed(payload, "the reply");
}

}  // namespace wire
}  // namespace spitz
