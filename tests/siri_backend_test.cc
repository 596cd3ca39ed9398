// The whole SpitzDb stack exercised against every SIRI backend via
// SpitzOptions::index_backend: put/get/delete, block sealing, wire-format
// proof round trips, the deferred audit pipeline, the non-intrusive RPC
// boundary, and options validation.

#include <gtest/gtest.h>

#include <filesystem>

#include "chunk/file_chunk_store.h"
#include "cluster/cluster_client.h"
#include "cluster/local_fleet.h"
#include "core/spitz_db.h"
#include "core/verified_kv.h"
#include "net/spitz_client.h"
#include "nonintrusive/non_intrusive_db.h"

namespace spitz {
namespace {

constexpr SiriBackend kAllBackends[] = {SiriBackend::kPosTree,
                                        SiriBackend::kMerklePatriciaTrie,
                                        SiriBackend::kMerkleBucketTree};

SpitzOptions BackendOptions(SiriBackend kind) {
  SpitzOptions options;
  options.index_backend = kind;
  options.block_size = 16;         // several sealed blocks per test
  options.mbt_bucket_count = 32;   // exercise multi-entry buckets
  return options;
}

class SiriBackendTest : public ::testing::TestWithParam<SiriBackend> {};

TEST_P(SiriBackendTest, PutGetDeleteAcrossSealedBlocks) {
  SpitzDb db(BackendOptions(GetParam()));
  EXPECT_EQ(db.index_backend(), GetParam());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db.FlushBlock().ok());
  EXPECT_EQ(db.key_count(), 100u);

  std::string value;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db.Get("k" + std::to_string(i), &value).ok());
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
  EXPECT_TRUE(db.Get("absent", &value).IsNotFound());

  // Overwrites and deletes behave identically on every backend.
  ASSERT_TRUE(db.Put("k7", "v7'").ok());
  ASSERT_TRUE(db.Get("k7", &value).ok());
  EXPECT_EQ(value, "v7'");
  ASSERT_TRUE(db.Delete("k13").ok());
  EXPECT_TRUE(db.Get("k13", &value).IsNotFound());
  ASSERT_TRUE(db.FlushBlock().ok());
  EXPECT_EQ(db.key_count(), 99u);
}

TEST_P(SiriBackendTest, ProofVerifiesAfterWireRoundTrip) {
  SpitzDb db(BackendOptions(GetParam()));
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db.Put("key" + std::to_string(i), "val" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db.FlushBlock().ok());
  SpitzDigest digest = db.Digest();

  std::string value;
  ReadProof proof;
  ASSERT_TRUE(db.Read(kCurrentVersion, "key17", &value, &proof).ok());
  EXPECT_EQ(value, "val17");
  EXPECT_EQ(proof.index_proof.kind, GetParam());
  ASSERT_TRUE(VerifyRead(digest, "key17", value, proof).ok());

  // The serialized envelope — exactly what the RPC layer ships — must
  // verify after decoding, and reject a swapped value.
  std::string wire;
  proof.EncodeTo(&wire);
  ReadProof decoded;
  Slice input(wire);
  ASSERT_TRUE(ReadProof::DecodeFrom(&input, &decoded).ok());
  EXPECT_TRUE(input.empty());
  EXPECT_TRUE(VerifyRead(digest, "key17", value, decoded).ok());
  EXPECT_FALSE(
      VerifyRead(digest, "key17", std::string("forged"), decoded)
          .ok());
  EXPECT_FALSE(VerifyRead(digest, "key18", value, decoded).ok());

  // Tampering with any of the first 64 wire bytes must be rejected by
  // decode or by verification.
  for (size_t pos = 0; pos < wire.size() && pos < 64; pos++) {
    std::string tampered = wire;
    tampered[pos] = static_cast<char>(
        static_cast<uint8_t>(tampered[pos]) ^ 0x01);
    ReadProof bad;
    Slice in2(tampered);
    if (!ReadProof::DecodeFrom(&in2, &bad).ok()) continue;
    EXPECT_FALSE(VerifyRead(digest, "key17", value, bad).ok())
        << "flip at byte " << pos;
  }
}

TEST_P(SiriBackendTest, NonMembershipProofVerifies) {
  SpitzDb db(BackendOptions(GetParam()));
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(db.Put("p" + std::to_string(i), "q").ok());
  }
  ASSERT_TRUE(db.FlushBlock().ok());
  SpitzDigest digest = db.Digest();

  std::string value;
  ReadProof proof;
  EXPECT_TRUE(db.Read(kCurrentVersion, "never-written", &value, &proof)
                  .IsNotFound());
  std::string wire;
  proof.EncodeTo(&wire);
  ReadProof decoded;
  Slice input(wire);
  ASSERT_TRUE(ReadProof::DecodeFrom(&input, &decoded).ok());
  EXPECT_TRUE(
      VerifyRead(digest, "never-written", std::nullopt, decoded)
          .ok());
  EXPECT_FALSE(
      VerifyRead(digest, "never-written", std::string("x"), decoded)
          .ok());
}

TEST_P(SiriBackendTest, AuditPipelineRunsOnEveryBackend) {
  SpitzOptions options = BackendOptions(GetParam());
  options.audit_batch_size = 8;  // deferred mode
  SpitzDb db(options);
  for (int i = 0; i < 40; i++) {
    std::string key = "a" + std::to_string(i);
    ASSERT_TRUE(db.Put(key, "v").ok());
    ASSERT_TRUE(db.auditor()->AuditKey(key, std::string("v")).ok());
  }
  ASSERT_TRUE(db.auditor()->AuditKey("a5").ok());
  ASSERT_TRUE(db.auditor()->AuditKey("not-there").ok());
  ASSERT_TRUE(db.FlushBlock().ok());
  ASSERT_TRUE(db.auditor()->AuditLastBlock().ok());
  EXPECT_TRUE(db.auditor()->Drain().ok());
}

TEST_P(SiriBackendTest, ScanCapabilityMatchesBackend) {
  SpitzDb db(BackendOptions(GetParam()));
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db.Put("s" + std::to_string(i), "v").ok());
  }
  std::vector<PosEntry> rows;
  Status s = db.Scan("s0", "s9", 0, &rows);
  ScanProof proof;
  std::vector<PosEntry> rows2;
  Status sp = db.ReadRange(kCurrentVersion, "s0", "s9", 0, &rows2, &proof);
  if (GetParam() == SiriBackend::kPosTree) {
    EXPECT_TRUE(db.SupportsScan());
    ASSERT_TRUE(s.ok());
    EXPECT_FALSE(rows.empty());
    ASSERT_TRUE(sp.ok());
    EXPECT_TRUE(
        VerifyScan(db.Digest(), "s0", "s9", 0, rows2, proof).ok());
  } else {
    // Backends without ordered iteration refuse scans instead of serving
    // unordered or unverifiable results.
    EXPECT_FALSE(db.SupportsScan());
    EXPECT_TRUE(s.IsNotSupported());
    EXPECT_TRUE(sp.IsNotSupported());
  }
}

// The non-intrusive deployment with each backend serving the ledger
// role: a proof generated server-side crosses two RPC hops as bytes and
// must verify client-side against the ledger digest.
TEST_P(SiriBackendTest, NonIntrusiveRpcRoundTrip) {
  NonIntrusiveDb::Options options;
  options.ledger = BackendOptions(GetParam());
  NonIntrusiveDb db(options);
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(db.Put("u" + std::to_string(i), "w" + std::to_string(i)).ok());
  }
  SpitzDigest digest = db.Digest();

  NonIntrusiveDb::VerifiedValue vv;
  ASSERT_TRUE(db.GetVerified("u9", &vv).ok());
  EXPECT_EQ(vv.value, "w9");
  EXPECT_EQ(vv.proof.index_proof.kind, GetParam());
  EXPECT_TRUE(NonIntrusiveDb::VerifyValue(digest, "u9", vv).ok());

  // The ledger proves hash(value); a tampered value fails verification.
  NonIntrusiveDb::VerifiedValue forged = vv;
  forged.value = "w9-forged";
  EXPECT_FALSE(NonIntrusiveDb::VerifyValue(digest, "u9", forged).ok());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SiriBackendTest,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           std::string name = SiriBackendName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Options validation ------------------------------------------------------

TEST(SpitzOptionsTest, RejectsZeroBlockSize) {
  SpitzOptions options;
  options.block_size = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  // The in-memory constructor cannot return the error, so the write
  // paths surface it instead (and nothing divides by zero meanwhile).
  SpitzDb db(options);
  EXPECT_TRUE(db.Put("k", "v").IsInvalidArgument());
  std::vector<PosEntry> entries{{"a", "1"}};
  EXPECT_TRUE(db.BulkLoad(entries).IsInvalidArgument());
}

TEST(SpitzOptionsTest, RejectsZeroMbtBucketCount) {
  SpitzOptions options;
  options.index_backend = SiriBackend::kMerkleBucketTree;
  options.mbt_bucket_count = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  SpitzDb db(options);
  EXPECT_TRUE(db.Put("k", "v").IsInvalidArgument());

  // Zero buckets is only meaningful for the MBT backend.
  options.index_backend = SiriBackend::kPosTree;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SpitzOptionsTest, OpenRejectsInvalidOptions) {
  SpitzOptions options;
  options.block_size = 0;
  options.data_dir = ::testing::TempDir() + "/siri_backend_invalid";
  std::unique_ptr<SpitzDb> db;
  EXPECT_TRUE(SpitzDb::Open(options, &db).IsInvalidArgument());
  EXPECT_EQ(db, nullptr);
}

// A zero segment size used to be clamped to one byte, which rolls and
// fsyncs a segment before every record.
TEST(SpitzOptionsTest, RejectsZeroChunkSegmentBytes) {
  SpitzOptions options;
  options.chunk_segment_bytes = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.data_dir = ::testing::TempDir() + "/siri_backend_zero_segment";
  std::unique_ptr<SpitzDb> db;
  EXPECT_TRUE(SpitzDb::Open(options, &db).IsInvalidArgument());
  EXPECT_EQ(db, nullptr);

  FileChunkStore::Options store_options;
  store_options.segment_bytes = 0;
  std::unique_ptr<FileChunkStore> store;
  EXPECT_TRUE(FileChunkStore::Open(Env::Default(), options.data_dir,
                                   store_options, &store)
                  .IsInvalidArgument());
  // The smallest size stays valid: every record gets a segment.
  options.chunk_segment_bytes = 1;
  EXPECT_TRUE(options.Validate().ok());
  std::filesystem::remove_all(options.data_dir);
}

// The chunk index keeps a record's offset in 32 bits, and a record
// starts below twice the segment size.
TEST(SpitzOptionsTest, RejectsChunkSegmentBytesPastTheOffsetField) {
  SpitzOptions options;
  options.chunk_segment_bytes = FileChunkStore::kMaxSegmentBytes;
  EXPECT_TRUE(options.Validate().ok());
  EXPECT_LE(2 * uint64_t{FileChunkStore::kMaxSegmentBytes}, UINT32_MAX);
  options.chunk_segment_bytes = FileChunkStore::kMaxSegmentBytes + 1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  SpitzDb db(options);  // in-memory: the write path surfaces it
  EXPECT_TRUE(db.Put("k", "v").IsInvalidArgument());

  FileChunkStore::Options store_options;
  store_options.segment_bytes = FileChunkStore::kMaxSegmentBytes + 1;
  std::unique_ptr<FileChunkStore> store;
  const std::string dir = ::testing::TempDir() + "/siri_backend_huge_segment";
  EXPECT_TRUE(FileChunkStore::Open(Env::Default(), dir, store_options, &store)
                  .IsInvalidArgument());
  EXPECT_EQ(store, nullptr);
  std::filesystem::remove_all(dir);
}

TEST(SpitzOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(SpitzOptions().Validate().ok());
  for (SiriBackend kind : kAllBackends) {
    SpitzOptions options;
    options.index_backend = kind;
    EXPECT_TRUE(options.Validate().ok());
  }
}

// --- The VerifiedKv interface across every deployment shape ------------------
//
// One battery, three implementations: an embedded SpitzDb, one served
// node behind SpitzClient, and a 3-shard cluster behind ClusterClient.
// Code written against the interface must behave identically on all of
// them — that is the point of having exactly one verified-KV surface.
// Each shape brings the one verifier of its evidence format.

using GetEvidenceVerifier = Status (*)(const Slice& key,
                                       const VerifiedKv::Evidence& evidence);
using ScanEvidenceVerifier = Status (*)(
    const Slice& start, const Slice& end, size_t limit,
    const VerifiedKv::ScanEvidence& evidence);

void RunVerifiedKvBattery(VerifiedKv* kv, GetEvidenceVerifier verify_get,
                          ScanEvidenceVerifier verify_scan) {
  // Unverified writes and reads.
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(
        kv->Put("vk-" + std::to_string(100 + i), "v" + std::to_string(i))
            .ok());
  }
  std::string value;
  ASSERT_TRUE(kv->Get("vk-117", &value).ok());
  EXPECT_EQ(value, "v17");
  ASSERT_TRUE(kv->Delete("vk-117").ok());
  EXPECT_TRUE(kv->Get("vk-117", &value).IsNotFound());

  // Verified reads: present, deleted, and never-written keys.
  ASSERT_TRUE(kv->VerifiedGet("vk-123", &value).ok());
  EXPECT_EQ(value, "v23");
  EXPECT_TRUE(kv->VerifiedGet("vk-117", &value).IsNotFound());
  EXPECT_TRUE(kv->VerifiedGet("vk-never", &value).IsNotFound());

  // Verified scans come back sorted and complete.
  std::vector<PosEntry> rows;
  ASSERT_TRUE(kv->VerifiedScan("vk-", "vk-~", 0, &rows).ok());
  EXPECT_EQ(rows.size(), 39u);
  for (size_t i = 0; i + 1 < rows.size(); i++) {
    EXPECT_LT(rows[i].key, rows[i + 1].key);
  }
  ASSERT_TRUE(kv->VerifiedScan("vk-", "vk-~", 5, &rows).ok());
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].key, "vk-100");

  // Evidence is self-contained bytes for both presence and absence.
  VerifiedKv::Evidence evidence;
  ASSERT_TRUE(kv->GetProof("vk-123", &evidence).ok());
  ASSERT_TRUE(evidence.value.has_value());
  EXPECT_EQ(*evidence.value, "v23");
  EXPECT_FALSE(evidence.proof.empty());
  EXPECT_FALSE(evidence.digest.empty());
  EXPECT_TRUE(kv->GetProof("vk-never", &evidence).IsNotFound());
  EXPECT_FALSE(evidence.value.has_value());

  VerifiedKv::ScanEvidence scan_evidence;
  ASSERT_TRUE(kv->ScanProof("vk-", "vk-~", 0, &scan_evidence).ok());
  EXPECT_EQ(scan_evidence.rows.size(), 39u);
  EXPECT_FALSE(scan_evidence.digest.empty());

  // Evidence verifies with the shape's verifier and carries exactly
  // what the verified read returns: one read, two encodings.
  for (const char* key : {"vk-123", "vk-117", "vk-never"}) {
    SCOPED_TRACE(key);
    std::string verified;
    Status read = kv->VerifiedGet(key, &verified);
    ASSERT_TRUE(read.ok() || read.IsNotFound()) << read.ToString();
    Status fetched = kv->GetProof(key, &evidence);
    EXPECT_EQ(fetched.code(), read.code());
    EXPECT_TRUE(verify_get(key, evidence).ok());
    ASSERT_EQ(evidence.value.has_value(), read.ok());
    if (read.ok()) {
      EXPECT_EQ(*evidence.value, verified);
    }
  }
  for (size_t limit : {0, 5}) {
    SCOPED_TRACE(limit);
    ASSERT_TRUE(kv->VerifiedScan("vk-", "vk-~", limit, &rows).ok());
    ASSERT_TRUE(kv->ScanProof("vk-", "vk-~", limit, &scan_evidence).ok());
    EXPECT_TRUE(verify_scan("vk-", "vk-~", limit, scan_evidence).ok());
    EXPECT_TRUE(scan_evidence.rows == rows);
  }

  // The digest tracks committed state.
  std::string digest_before, digest_after;
  ASSERT_TRUE(kv->Digest(&digest_before).ok());
  ASSERT_TRUE(kv->Put("vk-digest-probe", "x").ok());
  ASSERT_TRUE(kv->Digest(&digest_after).ok());
  EXPECT_NE(digest_before, digest_after);

  // Audits pass on an honest deployment.
  EXPECT_TRUE(kv->Audit("vk-123").ok());
  EXPECT_TRUE(kv->AuditLastSealed().ok());
}

TEST(VerifiedKvInterfaceTest, EmbeddedDbPassesTheBattery) {
  SpitzDb db;
  RunVerifiedKvBattery(&db, &VerifyGetEvidence, &VerifyScanEvidence);
}

TEST(VerifiedKvInterfaceTest, ServedNodePassesTheBattery) {
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(LocalFleet::Options(), &fleet).ok());
  std::unique_ptr<SpitzClient> client;
  ASSERT_TRUE(SpitzClient::Open(fleet->ClientOptions(0), &client).ok());
  RunVerifiedKvBattery(client.get(), &VerifyGetEvidence, &VerifyScanEvidence);
}

TEST(VerifiedKvInterfaceTest, ShardedClusterPassesTheBattery) {
  LocalFleet::Options options;
  options.shards = 3;
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
  std::unique_ptr<ClusterClient> client;
  ASSERT_TRUE(ClusterClient::Open(fleet->ClusterOptions(), &client).ok());
  RunVerifiedKvBattery(client.get(), &VerifyClusterGetEvidence,
                       &VerifyClusterScanEvidence);
}

}  // namespace
}  // namespace spitz
