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

size_t RowsSize(const std::vector<PosEntry>& rows) {
  size_t n = VarintLength(rows.size());
  for (const PosEntry& row : rows) {
    n += LengthPrefixedSize(row.key) + LengthPrefixedSize(row.value);
  }
  return n;
}

void EncodeRows(const std::vector<PosEntry>& rows, std::string* out) {
  PutVarint64(out, rows.size());
  for (const PosEntry& row : rows) {
    PutLengthPrefixedSlice(out, row.key);
    PutLengthPrefixedSlice(out, row.value);
  }
}

namespace {

Status GetRawHash(Slice* input, Hash256* out) {
  return GetHash256(input, out)
             ? Status::OK()
             : Status::InvalidArgument("truncated hash in replica payload");
}

}  // namespace

void ReplicaAck::EncodeTo(std::string* out) const {
  PutFixed64(out, applied_blocks);
  out->append(index_root.ToBytes());
  out->append(tip_hash.ToBytes());
}

Status ReplicaAck::DecodeFrom(Slice* input, ReplicaAck* out) {
  if (input->size() < sizeof(uint64_t)) {
    return Status::InvalidArgument("truncated replica ack");
  }
  out->applied_blocks = DecodeFixed64(input->data());
  input->remove_prefix(sizeof(uint64_t));
  Status s = GetRawHash(input, &out->index_root);
  if (!s.ok()) return s;
  return GetRawHash(input, &out->tip_hash);
}

void ReplicaStatusResult::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(role));
  applied.EncodeTo(out);
  PutFixed64(out, digest_mismatches);
  PutFixed64(out, applied_entries);
}

Status ReplicaStatusResult::DecodeFrom(Slice* input,
                                       ReplicaStatusResult* out) {
  if (input->empty()) {
    return Status::InvalidArgument("truncated replica status");
  }
  out->role = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  Status s = ReplicaAck::DecodeFrom(input, &out->applied);
  if (!s.ok()) return s;
  if (input->size() < 2 * sizeof(uint64_t)) {
    return Status::InvalidArgument("truncated replica status");
  }
  out->digest_mismatches = DecodeFixed64(input->data());
  input->remove_prefix(sizeof(uint64_t));
  out->applied_entries = DecodeFixed64(input->data());
  input->remove_prefix(sizeof(uint64_t));
  return Status::OK();
}

Status DecodeRows(Slice* input, std::vector<PosEntry>* out) {
  uint64_t n = 0;
  Status s = GetVarint64(input, &n);
  if (!s.ok()) return s;
  out->clear();
  // The count is untrusted wire data: cap the up-front reservation so a
  // lying header cannot force a huge allocation before decode fails.
  out->reserve(static_cast<size_t>(n < 1024 ? n : 1024));
  for (uint64_t i = 0; i < n; i++) {
    Slice key, value;
    s = GetLengthPrefixedSlice(input, &key);
    if (!s.ok()) return s;
    s = GetLengthPrefixedSlice(input, &value);
    if (!s.ok()) return s;
    out->push_back(PosEntry{key.ToString(), value.ToString()});
  }
  return Status::OK();
}

}  // namespace wire
}  // namespace spitz
