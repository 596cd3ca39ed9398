#include "nonintrusive/non_intrusive_db.h"

#include "common/codec.h"

namespace spitz {

// Proofs cross the RPC boundary as the serialized ReadProof envelope
// (index root + backend-tagged SiriProof), so the client verifies
// exactly what came off the wire — whatever SIRI backend the ledger
// database runs. Scan rows cross it as one entry list.

NonIntrusiveDb::NonIntrusiveDb(Options options)
    : ledger_db_(options.ledger) {
  kvs_server_ = MakeChannel(
      [this](uint32_t m, const std::string& req, std::string* resp) {
        return HandleKvs(m, req, resp);
      });
  ledger_server_ = MakeChannel(
      [this](uint32_t m, const std::string& req, std::string* resp) {
        return HandleLedger(m, req, resp);
      });
}

std::unique_ptr<TcpChannel> NonIntrusiveDb::MakeChannel(
    NetServer::Handler handler) {
  std::unique_ptr<TcpChannel> channel;
  Status s = TcpChannel::Start(std::move(handler), TcpChannel::Options(),
                               &channel);
  if (!s.ok()) {
    if (init_status_.ok()) init_status_ = s;
    return nullptr;
  }
  return channel;
}

Status NonIntrusiveDb::Open(Options options,
                            std::unique_ptr<NonIntrusiveDb>* db) {
  auto composed = std::make_unique<NonIntrusiveDb>(std::move(options));
  if (!composed->init_status_.ok()) return composed->init_status_;
  *db = std::move(composed);
  return Status::OK();
}

// --- Server-side handlers ---------------------------------------------------

// A request is exactly one encoding: each handler reads its fields,
// then refuses trailing bytes before serving.

Status NonIntrusiveDb::HandleKvs(uint32_t method, const std::string& request,
                                 std::string* response) {
  Slice input(request);
  switch (method) {
    case kKvsPut: {
      Slice key, value;
      Status s = GetLengthPrefixedSlice(&input, &key);
      if (s.ok()) s = GetLengthPrefixedSlice(&input, &value);
      if (s.ok()) s = CheckConsumed(input, "the kvs request");
      if (!s.ok()) return s;
      return kvs_.Put(key, value);
    }
    case kKvsGet: {
      Slice key;
      Status s = GetLengthPrefixedSlice(&input, &key);
      if (s.ok()) s = CheckConsumed(input, "the kvs request");
      if (!s.ok()) return s;
      std::string value;
      s = kvs_.Get(key, &value);
      if (!s.ok()) return s;
      PutLengthPrefixedSlice(response, value);
      return Status::OK();
    }
    case kKvsScan: {
      Slice start, end;
      uint64_t limit = 0;
      Status s = GetLengthPrefixedSlice(&input, &start);
      if (s.ok()) s = GetLengthPrefixedSlice(&input, &end);
      if (s.ok()) s = GetVarint64(&input, &limit);
      if (s.ok()) s = CheckConsumed(input, "the kvs request");
      if (!s.ok()) return s;
      std::vector<PosEntry> entries;
      s = kvs_.Scan(start, end, static_cast<size_t>(limit), &entries);
      if (!s.ok()) return s;
      PutEntryList(response, entries);
      return Status::OK();
    }
    default:
      return Status::NotSupported("unknown kvs method");
  }
}

Status NonIntrusiveDb::HandleLedger(uint32_t method,
                                    const std::string& request,
                                    std::string* response) {
  Slice input(request);
  switch (method) {
    case kLedgerAppend: {
      Slice key;
      Hash256 value_hash;
      Status s = GetLengthPrefixedSlice(&input, &key);
      if (s.ok()) s = GetHash256(&input, &value_hash);
      if (s.ok()) s = CheckConsumed(input, "the ledger request");
      if (!s.ok()) return s;
      return ledger_db_.Put(key, value_hash.ToBytes());
    }
    case kLedgerProve: {
      Slice key;
      Status s = GetLengthPrefixedSlice(&input, &key);
      if (s.ok()) s = CheckConsumed(input, "the ledger request");
      if (!s.ok()) return s;
      std::string stored;
      ReadProof proof;
      s = ledger_db_.Read(kCurrentVersion, key, &stored, &proof);
      if (!s.ok()) return s;
      proof.EncodeTo(response);
      return Status::OK();
    }
    case kLedgerDigest: {
      Status s = CheckConsumed(input, "the ledger request");
      if (!s.ok()) return s;
      ledger_db_.Digest().EncodeTo(response);
      return Status::OK();
    }
    default:
      return Status::NotSupported("unknown ledger method");
  }
}

// --- Client-side operations ---------------------------------------------------

Status NonIntrusiveDb::BulkLoad(const std::vector<PosEntry>& entries) {
  if (!init_status_.ok()) return init_status_;
  std::vector<PosEntry> ledger_entries;
  ledger_entries.reserve(entries.size());
  for (const PosEntry& e : entries) {
    ledger_entries.push_back(
        PosEntry{e.key, Hash256::Of(e.value).ToBytes()});
  }
  Status s = kvs_.BulkLoad(entries);
  if (!s.ok()) return s;
  return ledger_db_.BulkLoad(std::move(ledger_entries));
}

Status NonIntrusiveDb::Put(const Slice& key, const Slice& value) {
  if (!init_status_.ok()) return init_status_;
  // Commit to the underlying database...
  std::string request;
  PutLengthPrefixedSlice(&request, key);
  PutLengthPrefixedSlice(&request, value);
  std::string response;
  Status s = kvs_server_->Call(kKvsPut, request, &response);
  if (!s.ok()) return s;
  // ...and record the change in the ledger database.
  request.clear();
  PutLengthPrefixedSlice(&request, key);
  request.append(Hash256::Of(value).ToBytes());
  return ledger_server_->Call(kLedgerAppend, request, &response);
}

Status NonIntrusiveDb::Get(const Slice& key, std::string* value) {
  if (!init_status_.ok()) return init_status_;
  std::string request;
  PutLengthPrefixedSlice(&request, key);
  std::string response;
  Status s = kvs_server_->Call(kKvsGet, request, &response);
  if (!s.ok()) return s;
  Slice input(response);
  Slice v;
  s = GetLengthPrefixedSlice(&input, &v);
  if (!s.ok()) return s;
  *value = v.ToString();
  return Status::OK();
}

Status NonIntrusiveDb::GetVerified(const Slice& key, VerifiedValue* out) {
  Status s = Get(key, &out->value);
  if (!s.ok()) return s;
  // Second hop: fetch the proof from the ledger database.
  std::string request;
  PutLengthPrefixedSlice(&request, key);
  std::string response;
  s = ledger_server_->Call(kLedgerProve, request, &response);
  if (!s.ok()) return s;
  return DecodeProveReply(response, &out->proof);
}

Status NonIntrusiveDb::DecodeProveReply(const std::string& reply,
                                        ReadProof* proof) {
  Slice input(reply);
  Status s = ReadProof::DecodeFrom(&input, proof);
  return s.ok() ? CheckConsumed(input, "prove reply") : s;
}

Status NonIntrusiveDb::Scan(const Slice& start, const Slice& end,
                            size_t limit, std::vector<PosEntry>* out) {
  if (!init_status_.ok()) return init_status_;
  std::string request;
  PutLengthPrefixedSlice(&request, start);
  PutLengthPrefixedSlice(&request, end);
  PutVarint64(&request, limit);
  std::string response;
  Status s = kvs_server_->Call(kKvsScan, request, &response);
  if (!s.ok()) return s;
  Slice input(response);
  s = GetEntryList(&input, out);
  return s.ok() ? CheckConsumed(input, "scan reply") : s;
}

Status NonIntrusiveDb::ScanVerified(const Slice& start, const Slice& end,
                                    size_t limit,
                                    std::vector<VerifiedValue>* out,
                                    std::vector<std::string>* keys) {
  std::vector<PosEntry> rows;
  Status s = Scan(start, end, limit, &rows);
  if (!s.ok()) return s;
  out->clear();
  keys->clear();
  for (const PosEntry& row : rows) {
    // One ledger round trip per resultant record.
    VerifiedValue vv;
    vv.value = row.value;
    std::string request;
    PutLengthPrefixedSlice(&request, row.key);
    std::string response;
    s = ledger_server_->Call(kLedgerProve, request, &response);
    if (s.ok()) s = DecodeProveReply(response, &vv.proof);
    if (!s.ok()) return s;
    out->push_back(std::move(vv));
    keys->push_back(row.key);
  }
  return Status::OK();
}

SpitzDigest NonIntrusiveDb::Digest() {
  SpitzDigest d;
  if (!init_status_.ok()) return d;
  std::string response;
  Status s = ledger_server_->Call(kLedgerDigest, std::string(), &response);
  if (!s.ok()) return d;
  Slice input(response);
  if (!SpitzDigest::DecodeFrom(&input, &d).ok()) return SpitzDigest{};
  return d;
}

Status NonIntrusiveDb::VerifyValue(const SpitzDigest& digest,
                                   const Slice& key,
                                   const VerifiedValue& vv) {
  // The ledger database maps key -> hash(value); the proof must show
  // exactly that binding, and the value from the underlying database
  // must match the hash. Verification dispatches on the proof's backend
  // tag, so any SIRI backend can serve the ledger role.
  return VerifyRead(digest, key, Hash256::Of(vv.value).ToBytes(), vv.proof);
}

}  // namespace spitz
