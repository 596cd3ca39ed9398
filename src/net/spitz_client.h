#ifndef SPITZ_NET_SPITZ_CLIENT_H_
#define SPITZ_NET_SPITZ_CLIENT_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/verified_kv.h"
#include "core/verifier.h"
#include "net/net_client.h"
#include "net/spitz_wire.h"
#include "txn/write_batch.h"

namespace spitz {

// ---------------------------------------------------------------------------
// SpitzClient — the typed client library over one pipelined NetClient
// connection, and the served implementation of VerifiedKv: code written
// against the interface runs unchanged over an embedded SpitzDb or this
// client. Thread-safe: any number of threads may issue calls
// concurrently; responses are routed by request id.
//
// The verification story is entirely client-side: GetProof/VerifiedGet
// decode the proof bytes and digest off the wire and run the same
// checks (VerifyRead/VerifyScan, core/verifier.h) a local embedder
// would — a lying server fails verification exactly like a tampered
// local database.
//
// Reconnect seam: a NetClient is immutable-once-broken (its sticky
// error is a correctness feature — a desynced stream must never be
// reused), so healing happens one level up. Reconnect() dials a fresh
// connection with the saved options and swaps it in; in-flight calls
// on the old connection drain against the old NetClient (kept alive by
// shared_ptr) and surface its sticky error, while new calls use the
// fresh one. Long-running drivers and the 2PC coordinator's commit
// retries call Reconnect() when ConnectionStatus() goes non-OK.
// ---------------------------------------------------------------------------
class SpitzClient : public VerifiedKv {
 public:
  struct Options {
    Options() {}
    NetClient::Options net;

    Status Validate() const;
  };

  // Connects and handshakes (the PR 3 Open(Options, out) convention).
  static Status Open(const Options& options,
                     std::unique_ptr<SpitzClient>* out);

  SpitzClient(const SpitzClient&) = delete;
  SpitzClient& operator=(const SpitzClient&) = delete;

  // --- VerifiedKv ---------------------------------------------------------

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Status Scan(const ReadOptions& options, const Slice& start,
              const Slice& end, size_t limit,
              std::vector<PosEntry>* rows) override;
  Status GetProof(const Slice& key, Evidence* out) override;
  Status ScanProof(const Slice& start, const Slice& end, size_t limit,
                   ScanEvidence* out) override;
  Status Digest(std::string* out) override;
  // Server-side audit of `key`'s current binding (deferred-verification
  // queue, drained before the reply). Empty key audits the last sealed
  // block.
  Status Audit(const Slice& key) override;

  // Convenience overloads carried over from the pre-interface client.
  using VerifiedKv::Delete;
  using VerifiedKv::Get;
  using VerifiedKv::Put;
  using VerifiedKv::Scan;

  // Atomic batch over the wire (wire::kWrite).
  Status Write(const WriteOptions& options, const WriteBatch& batch);

  // --- Typed evidence (decoded form of GetProof) --------------------------

  // The raw evidence of one read: the value (absent on NotFound), the
  // proof, and the digest it verifies against. The proof views the
  // reply's frame buffer and keeps it alive.
  struct ProofResult {
    std::optional<std::string> value;
    ReadProof proof;
    SpitzDigest digest;
  };
  // Fetches without verifying (the caller inspects the evidence).
  // Returns OK or NotFound; both carry a complete ProofResult.
  // deadline_ms = 0 uses the transport's configured default.
  Status GetProof(const Slice& key, ProofResult* out,
                  uint64_t deadline_ms = 0);

  // Fetches and verifies locally. OK/NotFound only after the proof
  // checked out against the digest; VerificationFailed otherwise.
  Status VerifiedGet(const Slice& key, std::string* value,
                     uint64_t deadline_ms = 0);

  // Range scan whose result set is verified against the digest before
  // it is returned.
  Status VerifiedScan(const Slice& start, const Slice& end, size_t limit,
                      std::vector<PosEntry>* rows, uint64_t deadline_ms = 0);

  Status Digest(SpitzDigest* out);

  // --- Pinned-root proofs (cluster verified reads) ------------------------

  // Proof against the exact index version `root` — the shard-digest
  // root a cluster digest pinned — so verification is immune to
  // commits racing the read. No digest crosses the wire: the caller
  // verifies against the digest it already holds.
  Status GetProofAt(const Hash256& root, const Slice& key,
                    std::optional<std::string>* value, ReadProof* proof);
  Status ScanProofAt(const Hash256& root, const Slice& start,
                     const Slice& end, size_t limit,
                     std::vector<PosEntry>* rows, spitz::ScanProof* proof);

  // --- Replication RPCs (protocol v3; replicator/cluster-facing) ----------

  // Ships one replication record (EncodeReplicationRecord bytes,
  // replica/record.h) to a backup and returns its independently derived
  // ack.
  Status Replicate(const std::string& record, wire::ReplicaAck* ack);
  // Queries the backup's latest applied state (the resume point after
  // a reconnect).
  Status ReplicaAckQuery(wire::ReplicaAck* ack);
  // Queries (command = wire::kReplicaStatusQuery) or promotes
  // (wire::kReplicaStatusPromote) a replica.
  Status ReplicaStatus(uint8_t command, wire::ReplicaStatusResult* out);

  // --- 2PC participant RPCs (coordinator-facing) --------------------------

  Status TxnPrepare(uint64_t txn_id, const WriteBatch& batch);
  Status TxnCommit(uint64_t txn_id);
  Status TxnAbort(uint64_t txn_id);
  Status TxnInDoubt(std::vector<uint64_t>* txn_ids);

  // --- Reconnect seam -----------------------------------------------------

  // OK while the current connection is usable; the transport's sticky
  // error once it broke. Thread-safe.
  Status ConnectionStatus() const;

  // Dials a fresh connection with the Open()-time options and swaps it
  // in, iff the current one is broken (no-op OK on a healthy
  // connection, so callers may invoke it unconditionally before a
  // retry). Calls already in flight drain against the old connection
  // and surface its sticky error; calls issued after a successful
  // Reconnect() use the new one. Thread-safe.
  Status Reconnect();

  // The underlying transport, e.g. for per-call deadlines via
  // channel()->Call(...). The shared_ptr keeps the connection alive
  // across a concurrent Reconnect() swap.
  std::shared_ptr<NetClient> channel() const {
    std::lock_guard<std::mutex> lock(net_mu_);
    return net_;
  }

 private:
  SpitzClient() = default;

  // Routes every RPC through the current connection; deadline_ms = 0
  // uses the transport default. The Reply form hands over the frame
  // buffer, which decoded proofs keep as the owner of their nodes.
  Status Call(uint32_t method, const std::string& request,
              std::string* response, uint64_t deadline_ms = 0);
  Status Call(uint32_t method, const std::string& request,
              NetClient::Reply* reply, uint64_t deadline_ms = 0);

  // The one kScanProof round trip, decoded: VerifiedScan verifies it,
  // ScanProof(ScanEvidence) encodes it.
  Status FetchScanProof(const Slice& start, const Slice& end, size_t limit,
                        uint64_t deadline_ms, std::vector<PosEntry>* rows,
                        spitz::ScanProof* proof, SpitzDigest* digest);

  Options options_;  // saved for Reconnect()
  mutable std::mutex net_mu_;
  std::shared_ptr<NetClient> net_;
};

}  // namespace spitz

#endif  // SPITZ_NET_SPITZ_CLIENT_H_
