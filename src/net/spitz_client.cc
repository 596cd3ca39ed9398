#include "net/spitz_client.h"

#include "common/codec.h"

namespace spitz {

Status SpitzClient::Options::Validate() const {
  if (net.port == 0) return Status::InvalidArgument("options.net.port not set");
  return Status::OK();
}

Status SpitzClient::Open(const Options& options,
                         std::unique_ptr<SpitzClient>* out) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  auto client = std::unique_ptr<SpitzClient>(new SpitzClient());
  client->options_ = options;
  std::unique_ptr<NetClient> net;
  s = NetClient::Connect(options.net, &net);
  if (!s.ok()) return s;
  client->net_ = std::move(net);
  *out = std::move(client);
  return Status::OK();
}

Status SpitzClient::Call(uint32_t method, const std::string& request,
                         std::string* response, uint64_t deadline_ms) {
  std::shared_ptr<NetClient> net = channel();
  if (deadline_ms == 0) return net->Call(method, request, response);
  return net->Call(method, request, response, deadline_ms);
}

Status SpitzClient::Call(uint32_t method, const std::string& request,
                         NetClient::Reply* reply, uint64_t deadline_ms) {
  std::shared_ptr<NetClient> net = channel();
  return net->Call(method, request, reply,
                   deadline_ms == 0 ? options_.net.deadline_ms : deadline_ms);
}

Status SpitzClient::ConnectionStatus() const {
  return channel()->connection_status();
}

Status SpitzClient::Reconnect() {
  if (ConnectionStatus().ok()) return Status::OK();
  std::unique_ptr<NetClient> fresh;
  Status s = NetClient::Connect(options_.net, &fresh);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> lock(net_mu_);
  // A concurrent Reconnect() may have already swapped in a healthy
  // connection; replacing it with ours is still correct — the loser's
  // connection simply drains and closes when its last caller releases
  // the shared_ptr.
  net_ = std::move(fresh);
  return Status::OK();
}

// --- VerifiedKv ------------------------------------------------------------

Status SpitzClient::Put(const WriteOptions& options, const Slice& key,
                        const Slice& value) {
  if (options.sync) {
    // kPut carries no durability flag; a synced single put rides the
    // batch method, which does.
    WriteBatch batch;
    batch.Put(key, value);
    return Write(options, batch);
  }
  std::string request, response;
  PutLengthPrefixedSlice(&request, key);
  PutLengthPrefixedSlice(&request, value);
  return Call(wire::kPut, request, &response);
}

Status SpitzClient::Delete(const WriteOptions& options, const Slice& key) {
  if (options.sync) {
    WriteBatch batch;
    batch.Delete(key);
    return Write(options, batch);
  }
  std::string request, response;
  PutLengthPrefixedSlice(&request, key);
  return Call(wire::kDelete, request, &response);
}

Status SpitzClient::Get(const ReadOptions& options, const Slice& key,
                        std::string* value) {
  if (options.verify) return VerifiedGet(key, value, options.deadline_ms);
  std::string request, response;
  PutLengthPrefixedSlice(&request, key);
  Status s = Call(wire::kGet, request, &response, options.deadline_ms);
  if (!s.ok()) return s;
  Slice v;
  s = wire::DecodeGetReply(response, &v);
  if (!s.ok()) return s;
  *value = v.ToString();
  return Status::OK();
}

Status SpitzClient::Scan(const ReadOptions& options, const Slice& start,
                         const Slice& end, size_t limit,
                         std::vector<PosEntry>* rows) {
  if (options.verify) {
    return VerifiedScan(start, end, limit, rows, options.deadline_ms);
  }
  std::string request, response;
  PutLengthPrefixedSlice(&request, start);
  PutLengthPrefixedSlice(&request, end);
  PutVarint64(&request, limit);
  Status s = Call(wire::kScan, request, &response, options.deadline_ms);
  if (!s.ok()) return s;
  return wire::DecodeScanReply(response, rows);
}

Status SpitzClient::GetProof(const Slice& key, Evidence* out) {
  ProofResult result;
  Status s = GetProof(key, &result);
  if (!s.ok() && !s.IsNotFound()) return s;
  out->value = result.value;
  out->proof.clear();
  result.proof.EncodeTo(&out->proof);
  out->digest.clear();
  result.digest.EncodeTo(&out->digest);
  return s;
}

Status SpitzClient::ScanProof(const Slice& start, const Slice& end,
                              size_t limit, ScanEvidence* out) {
  spitz::ScanProof proof;
  SpitzDigest digest;
  Status s = FetchScanProof(start, end, limit, /*deadline_ms=*/0, &out->rows,
                            &proof, &digest);
  if (!s.ok()) return s;
  out->proof.clear();
  proof.EncodeTo(&out->proof);
  out->digest.clear();
  digest.EncodeTo(&out->digest);
  return Status::OK();
}

Status SpitzClient::Digest(std::string* out) {
  SpitzDigest digest;
  Status s = Digest(&digest);
  if (!s.ok()) return s;
  out->clear();
  digest.EncodeTo(out);
  return Status::OK();
}

Status SpitzClient::Audit(const Slice& key) {
  std::string request, response;
  PutLengthPrefixedSlice(&request, key);
  return Call(wire::kAudit, request, &response);
}

Status SpitzClient::Write(const WriteOptions& options,
                          const WriteBatch& batch) {
  std::string request, response;
  request.push_back(options.sync ? 1 : 0);
  request.append(batch.Encode());
  return Call(wire::kWrite, request, &response);
}

// --- Typed evidence --------------------------------------------------------

Status SpitzClient::GetProof(const Slice& key, ProofResult* out,
                             uint64_t deadline_ms) {
  std::string request;
  PutLengthPrefixedSlice(&request, key);
  NetClient::Reply reply;
  Status call_status = Call(wire::kGetProof, request, &reply, deadline_ms);
  if (!call_status.ok() && !call_status.IsNotFound()) return call_status;
  Slice value;
  Status s = wire::DecodeGetProofReply(reply.payload, std::move(reply.buffer),
                                       &value, &out->proof, &out->digest);
  if (!s.ok()) return s;
  out->value = call_status.ok()
                   ? std::optional<std::string>(value.ToString())
                   : std::nullopt;
  return call_status;
}

Status SpitzClient::VerifiedGet(const Slice& key, std::string* value,
                                uint64_t deadline_ms) {
  ProofResult result;
  Status s = GetProof(key, &result, deadline_ms);
  if (!s.ok() && !s.IsNotFound()) return s;
  Status v = VerifyRead(result.digest, key, result.value, result.proof);
  if (!v.ok()) return v;
  if (result.value.has_value()) *value = *result.value;
  return s;
}

Status SpitzClient::FetchScanProof(const Slice& start, const Slice& end,
                                   size_t limit, uint64_t deadline_ms,
                                   std::vector<PosEntry>* rows,
                                   spitz::ScanProof* proof,
                                   SpitzDigest* digest) {
  std::string request;
  PutLengthPrefixedSlice(&request, start);
  PutLengthPrefixedSlice(&request, end);
  PutVarint64(&request, limit);
  NetClient::Reply reply;
  Status s = Call(wire::kScanProof, request, &reply, deadline_ms);
  if (!s.ok()) return s;
  return wire::DecodeScanProofReply(reply.payload, std::move(reply.buffer),
                                    rows, proof, digest);
}

Status SpitzClient::VerifiedScan(const Slice& start, const Slice& end,
                                 size_t limit, std::vector<PosEntry>* rows,
                                 uint64_t deadline_ms) {
  std::vector<PosEntry> found;
  spitz::ScanProof proof;
  SpitzDigest digest;
  Status s = FetchScanProof(start, end, limit, deadline_ms, &found, &proof,
                            &digest);
  if (!s.ok()) return s;
  s = VerifyScan(digest, start, end, limit, found, proof);
  if (!s.ok()) return s;
  *rows = std::move(found);
  return Status::OK();
}

Status SpitzClient::Digest(SpitzDigest* out) {
  std::string response;
  Status s = Call(wire::kDigest, std::string(), &response);
  if (!s.ok()) return s;
  return wire::DecodeReply(response, out);
}

// --- Pinned-root proofs ----------------------------------------------------

Status SpitzClient::GetProofAt(const Hash256& root, const Slice& key,
                               std::optional<std::string>* value,
                               ReadProof* proof) {
  std::string request;
  request.append(reinterpret_cast<const char*>(root.data()), Hash256::kSize);
  PutLengthPrefixedSlice(&request, key);
  NetClient::Reply reply;
  Status call_status = Call(wire::kGetProofAt, request, &reply);
  if (!call_status.ok() && !call_status.IsNotFound()) return call_status;
  Slice v;
  Status s = wire::DecodeGetProofReply(reply.payload, std::move(reply.buffer),
                                       &v, proof, /*digest=*/nullptr);
  if (!s.ok()) return s;
  *value = call_status.ok() ? std::optional<std::string>(v.ToString())
                            : std::nullopt;
  return call_status;
}

Status SpitzClient::ScanProofAt(const Hash256& root, const Slice& start,
                                const Slice& end, size_t limit,
                                std::vector<PosEntry>* rows,
                                spitz::ScanProof* proof) {
  std::string request;
  request.append(reinterpret_cast<const char*>(root.data()), Hash256::kSize);
  PutLengthPrefixedSlice(&request, start);
  PutLengthPrefixedSlice(&request, end);
  PutVarint64(&request, limit);
  NetClient::Reply reply;
  Status s = Call(wire::kScanProofAt, request, &reply);
  if (!s.ok()) return s;
  return wire::DecodeScanProofReply(reply.payload, std::move(reply.buffer),
                                    rows, proof, /*digest=*/nullptr);
}

// --- 2PC participant RPCs --------------------------------------------------

Status SpitzClient::TxnPrepare(uint64_t txn_id, const WriteBatch& batch) {
  std::string request, response;
  PutFixed64(&request, txn_id);
  request.append(batch.Encode());
  return Call(wire::kTxnPrepare, request, &response);
}

Status SpitzClient::TxnCommit(uint64_t txn_id) {
  std::string request, response;
  PutFixed64(&request, txn_id);
  return Call(wire::kTxnCommit, request, &response);
}

Status SpitzClient::TxnAbort(uint64_t txn_id) {
  std::string request, response;
  PutFixed64(&request, txn_id);
  return Call(wire::kTxnAbort, request, &response);
}

Status SpitzClient::Replicate(const std::string& record,
                              wire::ReplicaAck* ack) {
  std::string response;
  Status s = Call(wire::kReplicate, record, &response);
  if (!s.ok()) return s;
  return wire::DecodeReply(response, ack);
}

Status SpitzClient::ReplicaAckQuery(wire::ReplicaAck* ack) {
  std::string response;
  Status s = Call(wire::kReplicaAck, std::string(), &response);
  if (!s.ok()) return s;
  return wire::DecodeReply(response, ack);
}

Status SpitzClient::ReplicaStatus(uint8_t command,
                                  wire::ReplicaStatusResult* out) {
  std::string request(1, static_cast<char>(command));
  std::string response;
  Status s = Call(wire::kReplicaStatus, request, &response);
  if (!s.ok()) return s;
  return wire::DecodeReply(response, out);
}

Status SpitzClient::TxnInDoubt(std::vector<uint64_t>* txn_ids) {
  std::string response;
  Status s = Call(wire::kTxnInDoubt, std::string(), &response);
  if (!s.ok()) return s;
  return wire::DecodeTxnInDoubtReply(response, txn_ids);
}

}  // namespace spitz
