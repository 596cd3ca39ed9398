#include "net/spitz_server.h"

#include <algorithm>
#include <chrono>

#include "common/codec.h"
#include "txn/write_batch.h"

namespace spitz {

Status SpitzServer::Options::Validate() const {
  if (db == nullptr) return Status::InvalidArgument("options.db must be set");
  return Status::OK();
}

Status SpitzServer::Open(Options options, std::unique_ptr<SpitzServer>* out) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  if (options.replica != nullptr) {
    options.net.features |= kFeatureReplication;
  }
  auto server = std::unique_ptr<SpitzServer>(new SpitzServer());
  server->options_ = options;
  server->db_ = options.db;
  SpitzServer* raw = server.get();
  s = NetServer::Start(
      [raw](uint32_t method, const std::string& request,
            std::string* response) {
        return raw->Handle(method, request, response);
      },
      options.net, &server->net_);
  if (!s.ok()) return s;
  // Per-method latency over the whole server path: decode + execute +
  // encode. Lives in the NetServer's registry so one snapshot carries
  // transport and service metrics together.
  for (uint32_t m = 1; m <= wire::kMethodCount; m++) {
    raw->method_ns_[m] = server->net_->registry()->histogram(
        std::string("net.server.method_latency_ns.") + wire::MethodName(m));
  }
  raw->method_ns_[0] = server->net_->registry()->histogram(
      "net.server.method_latency_ns.unknown");
  if (options.txn_abort_after_ms > 0) {
    server->sweeper_ = std::thread([raw] { raw->SweeperLoop(); });
  }
  *out = std::move(server);
  return Status::OK();
}

SpitzServer::~SpitzServer() { Shutdown(); }

void SpitzServer::Shutdown() {
  if (sweeper_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sweep_mu_);
      sweep_stop_ = true;
    }
    sweep_cv_.notify_all();
    sweeper_.join();
  }
  // In-flight requests finish on the dispatchers and their responses
  // flush before the loop exits.
  if (net_ != nullptr) net_->Shutdown();
}

void SpitzServer::SweeperLoop() {
  // Waking five times per timeout bounds how late an orphan is aborted
  // to a fifth of the timeout past its deadline.
  const auto interval = std::chrono::milliseconds(
      std::max<uint64_t>(1, options_.txn_abort_after_ms / 5));
  std::unique_lock<std::mutex> lock(sweep_mu_);
  while (!sweep_stop_) {
    sweep_cv_.wait_for(lock, interval, [&] { return sweep_stop_; });
    if (sweep_stop_) return;
    lock.unlock();
    // Failures surface through core.db.txn.* metrics; the sweeper has
    // no caller to report to.
    db_->participant()->AbortTxnsOlderThan(options_.txn_abort_after_ms,
                                           nullptr);
    lock.lock();
  }
}

namespace {

// Every method's arguments, decoded off the request before anything
// runs. Slices point into the request bytes.
struct Request {
  Slice key, value, start, end;
  uint64_t limit = 0;
  uint64_t txn_id = 0;
  bool sync = false;
  Hash256 root;
  WriteBatch batch;
  Slice record;  // kReplicate / kReplicaStatus: the replica decodes it
};

Status GetRange(Slice* input, Request* req) {
  Status s = GetLengthPrefixedSlice(input, &req->start);
  if (s.ok()) s = GetLengthPrefixedSlice(input, &req->end);
  if (s.ok()) s = GetVarint64(input, &req->limit);
  return s;
}

// A batch is always a request's last field and takes the rest of it.
Status GetBatch(Slice* input, WriteBatch* batch) {
  Status s = WriteBatch::Decode(*input, batch);
  *input = Slice();
  return s;
}

// Decodes `method`'s request (wire layouts in spitz_wire.h). The whole
// input must be consumed, so junk after a valid request never executes.
// A malformed request of a known method is InvalidArgument, whichever
// field failed.
Status DecodeRequest(uint32_t method, Slice input, Request* req) {
  Status s;
  switch (method) {
    case wire::kPut:
      s = GetLengthPrefixedSlice(&input, &req->key);
      if (s.ok()) s = GetLengthPrefixedSlice(&input, &req->value);
      break;
    case wire::kDelete:
    case wire::kGet:
    case wire::kGetProof:
    case wire::kAudit:
      s = GetLengthPrefixedSlice(&input, &req->key);
      break;
    case wire::kScan:
    case wire::kScanProof:
      s = GetRange(&input, req);
      break;
    case wire::kDigest:
    case wire::kTxnInDoubt:
    case wire::kReplicaAck:
      break;
    case wire::kWrite:
      s = GetBool(&input, &req->sync);
      if (s.ok()) s = GetBatch(&input, &req->batch);
      break;
    case wire::kTxnPrepare:
      s = GetFixed64(&input, &req->txn_id);
      if (s.ok()) s = GetBatch(&input, &req->batch);
      break;
    case wire::kTxnCommit:
    case wire::kTxnAbort:
      s = GetFixed64(&input, &req->txn_id);
      break;
    case wire::kGetProofAt:
      s = GetHash256(&input, &req->root);
      if (s.ok()) s = GetLengthPrefixedSlice(&input, &req->key);
      break;
    case wire::kScanProofAt:
      s = GetHash256(&input, &req->root);
      if (s.ok()) s = GetRange(&input, req);
      break;
    case wire::kReplicate:
    case wire::kReplicaStatus:
      req->record = input;
      input = Slice();
      break;
    default:
      return Status::NotSupported("unknown method id");
  }
  if (s.ok()) s = CheckConsumed(input, "the request");
  if (s.ok()) return s;
  return Status::InvalidArgument(std::string("malformed ") +
                                 wire::MethodName(method) +
                                 " request: " + s.message());
}

// The proof-bearing reads. kGetProof and kScanProof capture the digest
// and prove against its index root, then ship the digest after the
// proof. kGetProofAt and kScanProofAt prove against the exact version a
// cluster digest snapshot named, immune to concurrent commits, and ship
// no digest: the client verifies against the digest it pinned. The
// proof cites the cached nodes it visited, and the reply is encoded
// from them once, into a buffer of exactly its size.

Status ServeProof(SpitzDb* db, uint32_t method, const Request& req,
                  std::string* response) {
  const bool with_digest = method == wire::kGetProof;
  const SpitzDigest digest = with_digest ? db->Digest() : SpitzDigest();
  std::string value;
  ReadProof proof;
  Status s = db->Read(with_digest ? digest.index_root : req.root, req.key,
                      &value, &proof);
  if (!s.ok() && !s.IsNotFound()) return s;
  // NotFound still carries a proof of absence; the value slot is simply
  // empty, so the layout is one shape for both outcomes.
  const Slice found = s.ok() ? Slice(value) : Slice();
  response->reserve(response->size() + LengthPrefixedSize(found) +
                    proof.EncodedSize() +
                    (with_digest ? digest.EncodedSize() : 0));
  PutLengthPrefixedSlice(response, found);
  proof.EncodeTo(response);
  if (with_digest) digest.EncodeTo(response);
  return s;
}

Status ServeScanProof(SpitzDb* db, uint32_t method, const Request& req,
                      std::string* response) {
  const bool with_digest = method == wire::kScanProof;
  const SpitzDigest digest = with_digest ? db->Digest() : SpitzDigest();
  std::vector<PosEntry> rows;
  ScanProof proof;
  Status s = db->ReadRange(with_digest ? digest.index_root : req.root,
                           req.start, req.end, static_cast<size_t>(req.limit),
                           &rows, &proof);
  if (!s.ok()) return s;
  response->reserve(response->size() + EntryListSize(rows) +
                    proof.EncodedSize() +
                    (with_digest ? digest.EncodedSize() : 0));
  PutEntryList(response, rows);
  proof.EncodeTo(response);
  if (with_digest) digest.EncodeTo(response);
  return Status::OK();
}

}  // namespace

Status SpitzServer::Handle(uint32_t method, const std::string& request,
                           std::string* response) {
  ScopedTimer timer(
      method_ns_[method >= 1 && method <= wire::kMethodCount ? method : 0]);
  // An un-promoted backup serves reads and proofs but takes no writes:
  // its state must be exactly the replicated stream, or digest
  // agreement with the primary is meaningless.
  if (options_.replica != nullptr && options_.replica->IsBackup()) {
    switch (method) {
      case wire::kPut:
      case wire::kDelete:
      case wire::kWrite:
      case wire::kTxnPrepare:
      case wire::kTxnCommit:
      case wire::kTxnAbort:
        return Status::Unavailable(
            "backup replica is read-only until promoted");
      default:
        break;
    }
  }
  Request req;
  Status s = DecodeRequest(method, request, &req);
  if (!s.ok()) return s;
  switch (method) {
    case wire::kReplicate:
    case wire::kReplicaAck:
    case wire::kReplicaStatus: {
      if (options_.replica == nullptr) {
        return Status::NotSupported("replication is not configured here");
      }
      if (method == wire::kReplicate) {
        return options_.replica->HandleReplicate(req.record, response);
      }
      if (method == wire::kReplicaAck) {
        return options_.replica->HandleAck(response);
      }
      return options_.replica->HandleStatus(req.record, response);
    }
    case wire::kPut:
    case wire::kDelete: {
      s = method == wire::kPut ? db_->Put(req.key, req.value)
                               : db_->Delete(req.key);
      // The auditor role: queue a deferred, integrity-only audit of the
      // key (later writers may legally change it before the audit runs).
      if (s.ok()) s = db_->auditor()->AuditKey(req.key);
      return s;
    }
    case wire::kGet: {
      std::string value;
      s = db_->Read(kCurrentVersion, req.key, &value, nullptr);
      if (s.ok()) PutLengthPrefixedSlice(response, value);
      return s;
    }
    case wire::kGetProof:
    case wire::kGetProofAt:
      return ServeProof(db_, method, req, response);
    case wire::kScan: {
      std::vector<PosEntry> rows;
      s = db_->ReadRange(kCurrentVersion, req.start, req.end,
                         static_cast<size_t>(req.limit), &rows, nullptr);
      if (!s.ok()) return s;
      PutEntryList(response, rows);
      return Status::OK();
    }
    case wire::kScanProof:
    case wire::kScanProofAt:
      return ServeScanProof(db_, method, req, response);
    case wire::kDigest: {
      db_->Digest().EncodeTo(response);
      return Status::OK();
    }
    case wire::kWrite: {
      // Atomic batch with an explicit durability flag: the wire form of
      // SpitzDb::Write(WriteOptions, WriteBatch).
      WriteOptions write_options;
      write_options.sync = req.sync;
      return db_->Write(write_options, req.batch);
    }
    case wire::kTxnPrepare:
      return db_->participant()->PrepareTxn(req.txn_id, req.batch);
    case wire::kTxnCommit:
      return db_->participant()->CommitTxn(req.txn_id);
    case wire::kTxnAbort:
      return db_->participant()->AbortTxn(req.txn_id);
    case wire::kTxnInDoubt: {
      std::vector<uint64_t> txn_ids;
      s = db_->participant()->InDoubtTxns(&txn_ids);
      if (!s.ok()) return s;
      PutVarint64(response, txn_ids.size());
      for (uint64_t txn_id : txn_ids) PutFixed64(response, txn_id);
      return Status::OK();
    }
    case wire::kAudit:
      // Synchronous audit verdict: a key's current binding, or the last
      // sealed block when the key is empty.
      return db_->Audit(req.key);
    default:
      return Status::NotSupported("unknown method id");
  }
}

}  // namespace spitz
