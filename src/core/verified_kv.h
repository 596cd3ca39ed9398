#ifndef SPITZ_CORE_VERIFIED_KV_H_
#define SPITZ_CORE_VERIFIED_KV_H_

#include <optional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/pos_entry.h"

namespace spitz {

// ---------------------------------------------------------------------------
// VerifiedKv — the one verified key-value surface of the system
// (DESIGN.md section 13). Before this interface existed, SpitzDb,
// SpitzClient and NonIntrusiveDb each exposed slightly different
// Put/Get/Proof signatures, and a cluster client would have been a
// fourth divergent surface. Now every deployment shape — an embedded
// database, one served node reached over TCP, or a sharded cluster
// behind a coordinator — implements this interface, so the same test
// battery, bench driver or application runs unchanged against any of
// them.
//
// The contract every implementation honors:
//
//   * Writes are atomic per call and durably acknowledged when
//     WriteOptions::sync is set on a durable deployment.
//   * Get/Scan with ReadOptions::verify return OK (or NotFound, with a
//     proof of absence) only after a proof checked out against the
//     implementation's digest; a lying or tampered backend surfaces as
//     Status::VerificationFailed, never as wrong data.
//   * GetProof/ScanProof return *wire-serializable* evidence — proof
//     and digest as bytes — so verification can happen in another
//     process, later, or by a third party holding only the digest.
//   * Digest() returns the serialized verification state a client must
//     retain; its byte representation changes whenever committed state
//     does.
// ---------------------------------------------------------------------------

// Per-read knobs shared by every VerifiedKv implementation.
struct ReadOptions {
  ReadOptions() {}
  // When true the read is served with a proof and verified against the
  // implementation's digest before it returns; OK/NotFound then carry
  // the same integrity guarantee as a locally recomputed hash chain.
  bool verify = false;
  // Upper bound on how long this read may block, in milliseconds.
  // 0 = the implementation's default (embedded reads never block on a
  // peer; networked implementations fall back to their transport's
  // configured per-call deadline). A read that misses its deadline
  // returns TimedOut.
  uint64_t deadline_ms = 0;
};

// Per-write knobs (the durable analogue of LevelDB's WriteOptions).
struct WriteOptions {
  WriteOptions() {}
  // When true on a durable database, the write does not return until
  // the journal blocks containing it are appended AND fsync'd — the
  // write survives any crash after the call returns. Concurrent sync
  // writers are batched by the group-commit pipeline, so the fsync cost
  // is amortized over the whole group rather than paid per call. On an
  // in-memory database the flag is ignored (there is nothing to make
  // durable).
  bool sync = false;
};

class VerifiedKv {
 public:
  virtual ~VerifiedKv() = default;

  // --- Write path ---------------------------------------------------------

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;

  // --- Read path ----------------------------------------------------------

  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  // Ordered range scan over [start, end), at most `limit` rows.
  // Implementations whose index backend has no ordered iteration return
  // NotSupported.
  virtual Status Scan(const ReadOptions& options, const Slice& start,
                      const Slice& end, size_t limit,
                      std::vector<PosEntry>* rows) = 0;

  // --- Evidence (wire-serializable proofs) --------------------------------

  // The complete evidence of one read: the value (nullopt = proven
  // absent), the serialized proof envelope, and the serialized digest
  // it verifies against. The encodings are implementation-shaped
  // (ReadProof+SpitzDigest for a single node, ClusterReadProof+
  // ClusterDigest for a cluster) but always self-contained bytes.
  struct Evidence {
    std::optional<std::string> value;
    std::string proof;
    std::string digest;
  };
  // Returns OK or NotFound; both carry complete Evidence.
  virtual Status GetProof(const Slice& key, Evidence* out) = 0;

  struct ScanEvidence {
    std::vector<PosEntry> rows;
    std::string proof;
    std::string digest;
  };
  virtual Status ScanProof(const Slice& start, const Slice& end, size_t limit,
                           ScanEvidence* out) = 0;

  // --- Verification state -------------------------------------------------

  // The serialized digest a client retains to verify later answers.
  virtual Status Digest(std::string* out) = 0;

  // Audits `key`'s current binding end to end (re-derive the proof,
  // verify against the digest); an empty key audits the most recently
  // sealed state instead. The audit verdict is the return status.
  virtual Status Audit(const Slice& key) = 0;

  // --- Conveniences (built on the virtuals) -------------------------------

  Status Put(const Slice& key, const Slice& value) {
    return Put(WriteOptions(), key, value);
  }
  Status Delete(const Slice& key) { return Delete(WriteOptions(), key); }
  Status Get(const Slice& key, std::string* value) {
    return Get(ReadOptions(), key, value);
  }
  Status VerifiedGet(const Slice& key, std::string* value) {
    ReadOptions options;
    options.verify = true;
    return Get(options, key, value);
  }
  Status Scan(const Slice& start, const Slice& end, size_t limit,
              std::vector<PosEntry>* rows) {
    return Scan(ReadOptions(), start, end, limit, rows);
  }
  Status VerifiedScan(const Slice& start, const Slice& end, size_t limit,
                      std::vector<PosEntry>* rows) {
    ReadOptions options;
    options.verify = true;
    return Scan(options, start, end, limit, rows);
  }
  Status AuditLastSealed() { return Audit(Slice()); }
};

}  // namespace spitz

#endif  // SPITZ_CORE_VERIFIED_KV_H_
