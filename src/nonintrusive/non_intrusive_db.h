#ifndef SPITZ_NONINTRUSIVE_NON_INTRUSIVE_DB_H_
#define SPITZ_NONINTRUSIVE_NON_INTRUSIVE_DB_H_

#include <memory>
#include <string>

#include "core/spitz_db.h"
#include "kvs/immutable_kvs.h"
#include "nonintrusive/tcp_channel.h"

namespace spitz {

// ---------------------------------------------------------------------------
// NonIntrusiveDb — the non-intrusive VDB design of paper Figure 3,
// evaluated against Spitz in section 6.2.3 (Figure 8): a ledger is
// "attached without modifying the architecture of the original database
// systems". Here, as in the paper's experiment, the underlying system is
// the immutable KVS and the ledger database is a Spitz instance deployed
// as a separate service (its auditor/ledger role), each behind its own
// loopback TCP server (tcp_channel.h), so the composed design's overhead
// is grounded in measured kernel round trips.
//
//  * Writes commit to both systems: the value goes to the underlying
//    database and the (key, value-hash) record goes to the ledger
//    database.
//  * Plain reads hit only the underlying database.
//  * Verified reads hit the underlying database for the value and then
//    the ledger database for the proof — the extra hop whose cost the
//    figure measures.
// ---------------------------------------------------------------------------
class NonIntrusiveDb {
 public:
  struct Options {
    Options() {}
    SpitzOptions ledger;
  };

  explicit NonIntrusiveDb(Options options = Options());

  // Surfaces transport construction failures (e.g. TCP bind errors),
  // which the constructor can only record (every later call then
  // returns them).
  static Status Open(Options options,
                     std::unique_ptr<NonIntrusiveDb>* db);

  NonIntrusiveDb(const NonIntrusiveDb&) = delete;
  NonIntrusiveDb& operator=(const NonIntrusiveDb&) = delete;

  // Commits the write in both the underlying and the ledger database
  // (section 6.2.3: "the submitted data are committed in both ... ").
  Status Put(const Slice& key, const Slice& value);

  // Offline provisioning that loads both systems directly (no RPC):
  // models restoring both services from the same snapshot before the
  // measured workload starts.
  Status BulkLoad(const std::vector<PosEntry>& entries);

  // Plain read: underlying database only.
  Status Get(const Slice& key, std::string* value);

  struct VerifiedValue {
    std::string value;
    ReadProof proof;  // from the ledger database (maps key -> value hash)
  };

  // Verified read: value from the underlying database, proof from the
  // ledger database — two RPC round trips.
  Status GetVerified(const Slice& key, VerifiedValue* out);

  // Range scan: rows from the underlying database; with verification,
  // one ledger proof per row (there is no cross-system batched path).
  Status Scan(const Slice& start, const Slice& end, size_t limit,
              std::vector<PosEntry>* out);
  Status ScanVerified(const Slice& start, const Slice& end, size_t limit,
                      std::vector<VerifiedValue>* out,
                      std::vector<std::string>* keys);

  // The client's trusted state: the ledger database's digest.
  SpitzDigest Digest();

  // Client-side verification of a verified read (VerifyRead of its hash).
  static Status VerifyValue(const SpitzDigest& digest, const Slice& key,
                            const VerifiedValue& vv);
  // Decodes a kLedgerProve reply: one ReadProof, no trailing bytes.
  static Status DecodeProveReply(const std::string& reply, ReadProof* proof);

  uint64_t underlying_rpc_calls() const { return kvs_server_->calls_served(); }
  uint64_t ledger_rpc_calls() const { return ledger_server_->calls_served(); }

  // The server side of the two channels: each decodes one request of
  // `method` and serves it. A request must be exactly its fields;
  // trailing bytes are Corruption.
  enum Method : uint32_t {
    kKvsPut = 1,
    kKvsGet = 2,
    kKvsScan = 3,
    kLedgerAppend = 10,
    kLedgerProve = 11,
    kLedgerDigest = 12,
  };
  Status HandleKvs(uint32_t method, const std::string& request,
                   std::string* response);
  Status HandleLedger(uint32_t method, const std::string& request,
                      std::string* response);

 private:
  // Serves `handler` on a new channel; sets init_status_ on failure (and
  // leaves the channel null).
  std::unique_ptr<TcpChannel> MakeChannel(NetServer::Handler handler);

  ImmutableKvs kvs_;
  SpitzDb ledger_db_;
  // Non-OK when a transport failed to come up; returned by every call.
  Status init_status_;
  std::unique_ptr<TcpChannel> kvs_server_;
  std::unique_ptr<TcpChannel> ledger_server_;
};

}  // namespace spitz

#endif  // SPITZ_NONINTRUSIVE_NON_INTRUSIVE_DB_H_
