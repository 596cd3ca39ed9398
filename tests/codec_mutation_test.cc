// A seeded, structure-aware mutation sweep over every decoder of
// untrusted bytes in src (DESIGN.md section 7): digests, proofs, index
// nodes, ledger blocks, write batches, replication payloads, the
// handshake, entry lists, blob metas, catalog entries and the evidence
// a single node or a cluster hands out. For each decoder the sweep
// builds valid encodings in-process and mutates them: a byte appended,
// a varint inflated at every offset (each a possible field boundary),
// multi-byte flips, inserted and deleted runs, and splices of two valid
// encodings. Every
// mutant must fail to decode or re-encode to exactly its own bytes, so
// an accepted envelope has one byte form. Evidence mutants that decode
// must also fail verification unless they are the original.
//
// A mutant is a pure function of (seed, index): the corpus is built from
// the seed, and mutant `index` from the seed and its index, so a failure
// naming both replays by running that seed alone (kSeeds).

#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "chunk/blob_store.h"
#include "chunk/chunk_store.h"
#include "cluster/cluster_client.h"
#include "cluster/cluster_digest.h"
#include "cluster/local_fleet.h"
#include "common/codec.h"
#include "common/random.h"
#include "core/spitz_db.h"
#include "core/table.h"
#include "index/mbt.h"
#include "index/mpt.h"
#include "index/pos_tree.h"
#include "proof/block.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/spitz_client.h"
#include "net/spitz_wire.h"
#include "nonintrusive/non_intrusive_db.h"
#include "replica/backup.h"
#include "replica/record.h"
#include "txn/write_batch.h"

namespace spitz {
namespace {

constexpr uint64_t kSeeds[] = {20201, 20202, 20203};
// Random mutants per codec and seed, after the systematic varint ones.
constexpr uint64_t kRandomMutants = 400;
// Each codec reports at most this many failures in full.
constexpr int kReportedFailures = 5;

std::string Hex(const Slice& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < bytes.size(); i++) {
    const auto b = static_cast<uint8_t>(bytes[i]);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// One decoder under the sweep.
struct Codec {
  std::string name;
  // Valid encodings built from the seed.
  std::function<std::vector<std::string>(uint64_t seed)> corpus;
  // Decodes the whole of `bytes`, as the decoder's callers take them,
  // and re-encodes what it decoded into *reencoded.
  std::function<Status(const std::string& bytes, std::string* reencoded)>
      decode;
  // Evidence only: true when `bytes` in place of corpus entry `origin`
  // makes a claim verify that the original did not make.
  std::function<bool(const std::string& bytes, size_t origin)> forges = {};
};

// --- Mutations ---------------------------------------------------------------

// The varint inflations tried at each offset: a value one larger, values
// no count can fit, and the same value spelled with a padding byte.
constexpr int kInflations = 5;

bool InflateVarint(const std::string& bytes, size_t pos, int kind,
                   std::string* out) {
  Slice rest(bytes.data() + pos, bytes.size() - pos);
  const size_t before = rest.size();
  uint64_t value = 0;
  if (!GetVarint64(&rest, &value).ok()) return false;
  const size_t len = before - rest.size();
  std::string varint;
  switch (kind) {
    case 0:
      PutVarint64(&varint, value + 1);
      break;
    case 1:
      PutVarint64(&varint, uint64_t{1} << 31);
      break;
    case 2:
      PutVarint64(&varint, uint64_t{1} << 62);
      break;
    case 3:
      PutVarint64(&varint, std::numeric_limits<uint64_t>::max());
      break;
    default:  // the same value, one byte longer
      varint = bytes.substr(pos, len);
      if (varint.size() == 10) return false;
      varint.back() = static_cast<char>(varint.back() | 0x80);
      varint.push_back('\0');
      break;
  }
  *out = bytes.substr(0, pos) + varint + bytes.substr(pos + len);
  return true;
}

// A random mutant of corpus entry *origin.
std::string RandomMutant(Random* rnd, const std::vector<std::string>& corpus,
                         size_t* origin) {
  *origin = rnd->Uniform(corpus.size());
  std::string m = corpus[*origin];
  switch (rnd->Uniform(5)) {
    case 0: {  // flip 2 to 4 bytes
      if (m.empty()) break;
      for (uint64_t n = rnd->Range(2, 4); n > 0; n--) {
        m[rnd->Uniform(m.size())] ^= static_cast<char>(rnd->Range(1, 255));
      }
      break;
    }
    case 1: {  // insert a run of 1 to 16 bytes
      std::string run(rnd->Range(1, 16), '\0');
      for (char& c : run) c = static_cast<char>(rnd->Uniform(256));
      m.insert(rnd->Uniform(m.size() + 1), run);
      break;
    }
    case 2: {  // delete a run of 1 to 16 bytes
      if (m.empty()) break;
      const size_t at = rnd->Uniform(m.size());
      m.erase(at, rnd->Range(1, 16));
      break;
    }
    case 3: {  // splice: a prefix of this one, a suffix of another
      const std::string& other = corpus[rnd->Uniform(corpus.size())];
      m = m.substr(0, rnd->Uniform(m.size() + 1)) +
          other.substr(rnd->Uniform(other.size() + 1));
      break;
    }
    default: {  // a varint inflated at a random offset
      std::string inflated;
      if (InflateVarint(m, rnd->Uniform(m.size() + 1),
                        static_cast<int>(rnd->Uniform(kInflations)),
                        &inflated)) {
        m = inflated;
      }
      break;
    }
  }
  return m;
}

void Sweep(const Codec& codec) {
  int failures = 0;
  auto fail = [&](uint64_t seed, uint64_t index, const std::string& why,
                  const std::string& mutant) {
    if (++failures <= kReportedFailures) {
      ADD_FAILURE() << codec.name << ": seed " << seed << " mutant " << index
                    << ": " << why << "; bytes " << Hex(mutant);
    }
  };
  for (uint64_t seed : kSeeds) {
    const std::vector<std::string> corpus = codec.corpus(seed);
    ASSERT_FALSE(corpus.empty()) << codec.name;
    for (const std::string& valid : corpus) {
      std::string again;
      Status s = codec.decode(valid, &again);
      ASSERT_TRUE(s.ok()) << codec.name << ": " << s.ToString();
      ASSERT_EQ(Hex(again), Hex(valid)) << codec.name;
    }
    uint64_t index = 0;
    auto check = [&](const std::string& mutant, size_t origin) {
      std::string again;
      if (codec.decode(mutant, &again).ok() && again != mutant) {
        fail(seed, index, "decodes to a value that re-encodes to " +
                              Hex(again), mutant);
      }
      if (codec.forges && mutant != corpus[origin] &&
          codec.forges(mutant, origin)) {
        fail(seed, index, "verifies in place of the original", mutant);
      }
      index++;
    };
    for (size_t e = 0; e < corpus.size(); e++) {
      check(corpus[e] + '\0', e);  // a byte past the end
      for (size_t pos = 0; pos <= corpus[e].size(); pos++) {
        for (int kind = 0; kind < kInflations; kind++) {
          std::string mutant;
          if (InflateVarint(corpus[e], pos, kind, &mutant)) {
            check(mutant, e);
          } else {
            index++;
          }
        }
      }
    }
    for (uint64_t i = 0; i < kRandomMutants; i++) {
      Random rnd(seed * 0x9e3779b97f4a7c15ull + index);
      size_t origin = 0;
      const std::string mutant = RandomMutant(&rnd, corpus, &origin);
      check(mutant, origin);
    }
  }
  EXPECT_EQ(failures, 0) << codec.name;
}

// A prefix decoder, DecodeFrom(Slice*, T*), applied to a whole input.
template <typename T>
Status DecodeWhole(const std::string& bytes, T* out) {
  Slice input(bytes);
  Status s = T::DecodeFrom(&input, out);
  return s.ok() ? CheckConsumed(input, "the encoding") : s;
}

template <typename T>
std::string EncodeOf(const T& value) {
  std::string out;
  value.EncodeTo(&out);
  return out;
}

std::string Key(uint64_t i) { return "key" + std::to_string(1000 + i); }

// Small nodes, so a tree of a few hundred keys is several levels deep.
SpitzOptions SmallNodes(SiriBackend backend) {
  SpitzOptions options;
  options.index_backend = backend;
  options.index_options.leaf_pattern_bits = 2;
  options.index_options.meta_pattern_bits = 2;
  options.mbt_bucket_count = 8;
  options.block_size = 16;
  return options;
}

// A database of 200 keys, some deleted, with values drawn from `seed`.
void Fill(SpitzDb* db, uint64_t seed) {
  Random rnd(seed);
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(Key(i), rnd.Bytes(rnd.Uniform(24))).ok());
  }
  for (uint64_t i = 0; i < 200; i += 17) ASSERT_TRUE(db->Delete(Key(i)).ok());
  ASSERT_TRUE(db->FlushBlock().ok());
}

// --- Digests, proofs and single-node evidence ---------------------------------

TEST(CodecMutationTest, Digest) {
  Sweep({"SpitzDigest",
         [](uint64_t seed) {
           std::vector<std::string> out;
           SpitzDb db(SmallNodes(SiriBackend::kPosTree));
           out.push_back(EncodeOf(db.Digest()));
           Fill(&db, seed);
           out.push_back(EncodeOf(db.Digest()));
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           SpitzDigest digest;
           Status s = DecodeWhole(bytes, &digest);
           if (s.ok()) *again = EncodeOf(digest);
           return s;
         }});
}

// Point evidence from one database: a ReadProof around the backend's
// SiriProof, checked by VerifyGetEvidence against the key and
// value it was served for.
void SweepGetEvidence(SiriBackend backend, const std::string& name) {
  struct Served {
    std::string key;
    VerifiedKv::Evidence evidence;
  };
  auto served = std::make_shared<std::vector<Served>>();
  auto build = [backend, served](uint64_t seed) {
    SpitzDb db(SmallNodes(backend));
    Fill(&db, seed);
    served->clear();
    for (uint64_t i = 0; i < 200; i += 23) {
      Served one{Key(i), {}};
      Status s = db.GetProof(one.key, &one.evidence);
      EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
      served->push_back(std::move(one));
    }
  };
  Sweep({name + " ReadProof",
         [build, served](uint64_t seed) {
           build(seed);
           std::vector<std::string> out;
           for (const Served& one : *served) out.push_back(one.evidence.proof);
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           ReadProof proof;
           Status s = DecodeWhole(bytes, &proof);
           if (s.ok()) *again = EncodeOf(proof);
           return s;
         },
         [served](const std::string& bytes, size_t origin) {
           VerifiedKv::Evidence evidence = (*served)[origin].evidence;
           evidence.proof = bytes;
           return VerifyGetEvidence((*served)[origin].key, evidence)
               .ok();
         }});
  // The proof vouches for the digest's index root, and nothing else in
  // it: a digest mutant must not verify with another root.
  Sweep({name + " evidence digest",
         [build, served](uint64_t seed) {
           build(seed);
           std::vector<std::string> out;
           for (const Served& one : *served) out.push_back(one.evidence.digest);
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           SpitzDigest digest;
           Status s = DecodeWhole(bytes, &digest);
           if (s.ok()) *again = EncodeOf(digest);
           return s;
         },
         [served](const std::string& bytes, size_t origin) {
           VerifiedKv::Evidence evidence = (*served)[origin].evidence;
           SpitzDigest original, mutant;
           Slice input(evidence.digest);
           EXPECT_TRUE(SpitzDigest::DecodeFrom(&input, &original).ok());
           input = Slice(bytes);
           evidence.digest = bytes;
           return VerifyGetEvidence((*served)[origin].key, evidence)
                      .ok() &&
                  (!SpitzDigest::DecodeFrom(&input, &mutant).ok() ||
                   mutant.index_root != original.index_root);
         }});
}

TEST(CodecMutationTest, PosTreeReadProofAndEvidence) {
  SweepGetEvidence(SiriBackend::kPosTree, "POS");
}

TEST(CodecMutationTest, MptReadProofAndEvidence) {
  SweepGetEvidence(SiriBackend::kMerklePatriciaTrie, "MPT");
}

// The MBT proof carries the bucket directory and one bucket.
TEST(CodecMutationTest, MbtReadProofDirectoryAndEvidence) {
  SweepGetEvidence(SiriBackend::kMerkleBucketTree, "MBT");
}

TEST(CodecMutationTest, ScanProofAndEvidence) {
  struct Served {
    std::string start, end;
    size_t limit;
    VerifiedKv::ScanEvidence evidence;
  };
  auto served = std::make_shared<std::vector<Served>>();
  Sweep({"ScanProof (SiriRangeProof)",
         [served](uint64_t seed) {
           SpitzDb db(SmallNodes(SiriBackend::kPosTree));
           Fill(&db, seed);
           served->clear();
           std::vector<std::string> out;
           for (uint64_t i = 0; i < 200; i += 37) {
             Served one{Key(i), Key(i + 9), i % 3, {}};
             EXPECT_TRUE(
                 db.ScanProof(one.start, one.end, one.limit, &one.evidence)
                     .ok());
             out.push_back(one.evidence.proof);
             served->push_back(std::move(one));
           }
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           ScanProof proof;
           Status s = DecodeWhole(bytes, &proof);
           if (s.ok()) *again = EncodeOf(proof);
           return s;
         },
         [served](const std::string& bytes, size_t origin) {
           const Served& one = (*served)[origin];
           VerifiedKv::ScanEvidence evidence = one.evidence;
           evidence.proof = bytes;
           return VerifyScanEvidence(one.start, one.end, one.limit, evidence)
               .ok();
         }});
}

// --- Index nodes ---------------------------------------------------------------

// The nodes the point proofs of a backend cite: index nodes for the
// POS-tree and MPT, buckets for the MBT.
std::vector<ProofNode> CitedNodes(SiriBackend backend, uint64_t seed) {
  SpitzDb db(SmallNodes(backend));
  Fill(&db, seed);
  std::vector<ProofNode> out;
  for (uint64_t i = 0; i < 200; i += 29) {
    ReadProof proof;
    std::string value;
    Status s = db.Read(kCurrentVersion, Key(i), &value, &proof);
    EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    const SiriProof& p = proof.index_proof;
    for (const ProofNode& node : p.pos.nodes) out.push_back(node);
    for (const ProofNode& node : p.mpt.nodes) out.push_back(node);
    if (backend == SiriBackend::kMerkleBucketTree &&
        !p.mbt.bucket.payload.empty()) {
      out.push_back(p.mbt.bucket);
    }
  }
  // The owners may go with the database: keep copies.
  for (ProofNode& node : out) {
    node = OwnedProofNode(node.type, node.payload.ToString());
  }
  return out;
}

// PosNode re-encoded from its accessors: the entry list of a leaf; a
// meta's varint count, then lp(last key), id and varint count per child.
std::string EncodePosNode(const PosNode& node) {
  std::string out;
  if (node.is_leaf()) {
    std::vector<PosEntry> entries;
    for (size_t i = 0; i < node.entry_count(); i++) {
      entries.push_back(node.entry(i));
    }
    PutEntryList(&out, entries);
    return out;
  }
  PutVarint64(&out, node.children().size());
  for (const PosChildRef& c : node.children()) {
    PutLengthPrefixedSlice(&out, c.last_key);
    out.append(c.id.ToBytes());
    PutVarint64(&out, c.count);
  }
  return out;
}

TEST(CodecMutationTest, PosNode) {
  for (ChunkType type : {ChunkType::kIndexLeaf, ChunkType::kIndexMeta}) {
    Sweep({type == ChunkType::kIndexLeaf ? "PosNode leaf" : "PosNode meta",
           [type](uint64_t seed) {
             std::vector<std::string> out;
             for (const ProofNode& node :
                  CitedNodes(SiriBackend::kPosTree, seed)) {
               if (node.type == static_cast<uint8_t>(type)) {
                 out.push_back(node.payload.ToString());
               }
             }
             return out;
           },
           [type](const std::string& bytes, std::string* again) {
             std::shared_ptr<const PosNode> node;
             Status s = PosNode::Decode(type, bytes, nullptr, &node);
             if (s.ok()) *again = EncodePosNode(*node);
             return s;
           }});
  }
}

TEST(CodecMutationTest, MptNode) {
  Sweep({"MPT node",
         [](uint64_t seed) {
           std::vector<std::string> out;
           for (const ProofNode& node :
                CitedNodes(SiriBackend::kMerklePatriciaTrie, seed)) {
             out.push_back(node.payload.ToString());
           }
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           MptNode node;
           Status s = DecodeMptNode(bytes, &node);
           if (s.ok()) *again = EncodeMptNode(node);
           return s;
         }});
}

// A bucket decodes as MerkleBucketTree reads it: Count over a directory
// that lists it. What it decoded to is its entry list.
TEST(CodecMutationTest, MbtBucket) {
  ChunkStore store;
  MerkleBucketTree tree(&store, MbtOptions(1));
  Sweep({"MBT bucket",
         [](uint64_t seed) {
           std::vector<std::string> out;
           for (const ProofNode& node :
                CitedNodes(SiriBackend::kMerkleBucketTree, seed)) {
             out.push_back(node.payload.ToString());
           }
           return out;
         },
         [&](const std::string& bytes, std::string* again) {
           const Hash256 bucket = store.Put(Chunk(ChunkType::kBucket, bytes));
           const Hash256 root =
               store.Put(Chunk(ChunkType::kBucket, bucket.ToBytes()));
           uint64_t count = 0;
           Status s = tree.Count(root, &count);
           if (!s.ok()) return s;
           Slice input(bytes);
           std::vector<PosEntry> entries;
           EXPECT_TRUE(GetEntryList(&input, &entries).ok());
           EXPECT_EQ(entries.size(), count);
           again->clear();
           PutEntryList(again, entries);
           return s;
         }});
}

TEST(CodecMutationTest, EntryList) {
  Sweep({"entry list",
         [](uint64_t seed) {
           Random rnd(seed);
           std::vector<std::string> out;
           for (size_t n : {0, 1, 3, 9}) {
             std::vector<PosEntry> entries;
             for (size_t i = 0; i < n; i++) {
               entries.push_back({rnd.Bytes(rnd.Uniform(12)),
                                  rnd.Bytes(rnd.Uniform(140))});
             }
             std::string bytes;
             PutEntryList(&bytes, entries);
             EXPECT_EQ(bytes.size(), EntryListSize(entries));
             out.push_back(bytes);
           }
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           Slice input(bytes);
           std::vector<PosEntry> entries;
           Status s = GetEntryList(&input, &entries);
           if (s.ok()) s = CheckConsumed(input, "the entry list");
           again->clear();
           if (s.ok()) PutEntryList(again, entries);
           return s;
         }});
}

TEST(CodecMutationTest, BlobMeta) {
  Sweep({"blob meta",
         [](uint64_t seed) {
           Random rnd(seed);
           ChunkStore store;
           BlobStore blobs(&store);
           std::vector<std::string> out;
           for (size_t size : {0, 10, 5000, 40000}) {
             std::shared_ptr<const Chunk> meta;
             EXPECT_TRUE(
                 store.Get(blobs.Put(rnd.Bytes(size)), &meta).ok());
             out.push_back(meta->payload());
           }
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           std::vector<BlobStore::Segment> segments;
           Status s = BlobStore::DecodeMeta(bytes, &segments);
           if (s.ok()) *again = BlobStore::EncodeMeta(segments);
           return s;
         }});
}

// --- Ledger, batches and catalog --------------------------------------------

TEST(CodecMutationTest, Block) {
  Sweep({"Block",
         [](uint64_t seed) {
           SpitzDb db(SmallNodes(SiriBackend::kPosTree));
           Fill(&db, seed);
           std::vector<std::string> out;
           for (uint64_t h = 0; h < db.Digest().journal.block_count; h += 3) {
             std::string bytes;
             Block block;
             EXPECT_TRUE(db.ledger()->SealedBlock(h, &bytes, &block).ok());
             out.push_back(bytes);
           }
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           Block block;
           Status s = Block::Decode(bytes, &block);
           if (s.ok()) *again = block.Encode();
           return s;
         }});
}

TEST(CodecMutationTest, WriteBatch) {
  Sweep({"WriteBatch",
         [](uint64_t seed) {
           Random rnd(seed);
           std::vector<std::string> out;
           for (int reads : {0, 1, 3}) {
             WriteBatch batch;
             for (int i = 0; i < 4; i++) {
               if (rnd.OneIn(3)) {
                 batch.Delete(rnd.Bytes(1 + rnd.Uniform(8)));
               } else {
                 batch.Put(rnd.Bytes(1 + rnd.Uniform(8)),
                           rnd.Bytes(rnd.Uniform(20)));
               }
             }
             for (int i = 0; i < reads; i++) {
               const std::string seen = rnd.Bytes(4);
               batch.Expect(rnd.Bytes(1 + rnd.Uniform(8)),
                            i % 2 == 0 ? std::optional<Slice>(seen)
                                       : std::nullopt);
             }
             out.push_back(batch.Encode());
           }
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           WriteBatch batch;
           Status s = WriteBatch::Decode(bytes, &batch);
           if (s.ok()) *again = batch.Encode();
           return s;
         }});
}

TEST(CodecMutationTest, CatalogEntry) {
  Sweep({"catalog entry",
         [](uint64_t seed) {
           Random rnd(seed);
           std::vector<std::string> out;
           for (int columns = 1; columns <= 4; columns++) {
             TableSchema schema;
             schema.name = "t" + rnd.Bytes(4);
             for (int i = 0; i < columns; i++) {
               ColumnSpec col;
               col.name = "c" + std::to_string(i);
               col.type = rnd.OneIn(2) ? ColumnSpec::Type::kNumeric
                                       : ColumnSpec::Type::kString;
               col.inverted_indexed = rnd.OneIn(2);
               schema.columns.push_back(col);
             }
             schema.primary_key_column = "c0";
             out.push_back(EncodeCatalogEntry(
                 static_cast<uint32_t>(1 + rnd.Uniform(1000)), schema));
           }
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           uint32_t id = 0;
           TableSchema schema;
           Status s = DecodeCatalogEntry(bytes, &id, &schema);
           if (s.ok()) *again = EncodeCatalogEntry(id, schema);
           return s;
         }});
}

// --- Replication and transport ------------------------------------------------

// ReplicationRecord re-encoded: fixed64 height, lp(block), then per put
// entry its flag and, for a surviving put, lp(value) from the ops.
std::string EncodeRecord(const ReplicationRecord& record) {
  std::string out;
  PutFixed64(&out, record.block.height());
  PutLengthPrefixedSlice(&out, record.serialized);
  const std::vector<LedgerEntry>& entries = record.block.entries();
  const std::vector<bool> surviving = SurvivingPuts(entries);
  size_t op = 0;  // the ops: each delete and surviving put, in order
  for (size_t i = 0; i < entries.size(); i++) {
    if (entries[i].op == LedgerEntry::Op::kDelete) {
      op++;
      continue;
    }
    out.push_back(surviving[i] ? '\x01' : '\0');
    if (surviving[i]) {
      PutLengthPrefixedSlice(&out, record.ops.ops()[op++].value);
    }
  }
  return out;
}

TEST(CodecMutationTest, ReplicationRecord) {
  Sweep({"replication record",
         [](uint64_t seed) {
           SpitzOptions options = SmallNodes(SiriBackend::kPosTree);
           options.block_size = 6;
           SpitzDb db(options);
           Random rnd(seed);
           for (int i = 0; i < 24; i++) {
             // Overwrites within a block leave superseded puts.
             const std::string key = Key(rnd.Uniform(8));
             Status s = rnd.OneIn(5) ? db.Delete(key)
                                     : db.Put(key, rnd.Bytes(rnd.Uniform(9)));
             EXPECT_TRUE(s.ok()) << s.ToString();
           }
           EXPECT_TRUE(db.FlushBlock().ok());
           std::vector<std::string> out;
           for (uint64_t h = 0; h < db.Digest().journal.block_count; h++) {
             std::string record;
             Block block;
             EXPECT_TRUE(EncodeReplicationRecord(db, h, &record, &block).ok());
             out.push_back(record);
           }
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           ReplicationRecord record;
           Status s = DecodeReplicationRecord(bytes, &record);
           if (s.ok()) *again = EncodeRecord(record);
           return s;
         }});
}

Hash256 RandomHash(Random* rnd) { return Hash256::Of(rnd->Bytes(8)); }

wire::ReplicaAck RandomAck(Random* rnd) {
  wire::ReplicaAck ack;
  ack.applied_blocks = rnd->Next() >> rnd->Uniform(64);
  ack.index_root = RandomHash(rnd);
  ack.tip_hash = RandomHash(rnd);
  return ack;
}

TEST(CodecMutationTest, ReplicaAckAndStatus) {
  Sweep({"ReplicaAck",
         [](uint64_t seed) {
           Random rnd(seed);
           return std::vector<std::string>{EncodeOf(RandomAck(&rnd)),
                                           EncodeOf(wire::ReplicaAck())};
         },
         [](const std::string& bytes, std::string* again) {
           wire::ReplicaAck ack;
           Status s = DecodeWhole(bytes, &ack);
           if (s.ok()) *again = EncodeOf(ack);
           return s;
         }});
  Sweep({"ReplicaStatusResult",
         [](uint64_t seed) {
           Random rnd(seed);
           std::vector<std::string> out;
           for (uint8_t role : {0, 1}) {
             wire::ReplicaStatusResult status;
             status.role = role;
             status.applied = RandomAck(&rnd);
             status.digest_mismatches = rnd.Uniform(3);
             status.applied_entries = rnd.Next();
             out.push_back(EncodeOf(status));
           }
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           wire::ReplicaStatusResult status;
           Status s = DecodeWhole(bytes, &status);
           if (s.ok()) *again = EncodeOf(status);
           return s;
         }});
}

// --- Client replies ------------------------------------------------------------

// The reply payloads SpitzClient decodes (wire::Decode*Reply), built as
// the server encodes them from one database's answers. A reply must
// decode whole or not at all: a proof's or a digest's own form does not
// end the reply.
TEST(CodecMutationTest, ClientReplies) {
  // Per seed: the point answers of every 23rd key (some deleted) and the
  // range answers of a few ranges.
  struct Answers {
    std::vector<VerifiedKv::Evidence> gets;
    std::vector<VerifiedKv::ScanEvidence> scans;
  };
  auto answers = [](uint64_t seed) {
    SpitzDb db(SmallNodes(SiriBackend::kPosTree));
    Fill(&db, seed);
    Answers out;
    for (uint64_t i = 0; i < 200; i += 23) {
      out.gets.emplace_back();
      Status s = db.GetProof(Key(i), &out.gets.back());
      EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
    for (uint64_t i = 0; i < 200; i += 61) {
      out.scans.emplace_back();
      EXPECT_TRUE(db.ScanProof(Key(i), Key(i + 9), i % 3, &out.scans.back())
                      .ok());
    }
    return out;
  };
  auto lp = [](const Slice& value) {
    std::string out;
    PutLengthPrefixedSlice(&out, value);
    return out;
  };
  auto rows_of = [](const std::vector<PosEntry>& rows) {
    std::string out;
    PutEntryList(&out, rows);
    return out;
  };

  Sweep({"kGet reply",
         [answers, lp](uint64_t seed) {
           std::vector<std::string> out;
           for (const auto& get : answers(seed).gets) {
             out.push_back(lp(get.value.value_or("")));
           }
           return out;
         },
         [lp](const std::string& bytes, std::string* again) {
           Slice value;
           Status s = wire::DecodeGetReply(bytes, &value);
           if (s.ok()) *again = lp(value);
           return s;
         }});
  for (bool with_digest : {true, false}) {
    Sweep({with_digest ? "kGetProof reply" : "kGetProofAt reply",
           [answers, lp, with_digest](uint64_t seed) {
             std::vector<std::string> out;
             for (const auto& get : answers(seed).gets) {
               out.push_back(lp(get.value.value_or("")) + get.proof +
                             (with_digest ? get.digest : ""));
             }
             return out;
           },
           [lp, with_digest](const std::string& bytes, std::string* again) {
             Slice value;
             ReadProof proof;
             SpitzDigest digest;
             Status s = wire::DecodeGetProofReply(
                 bytes, nullptr, &value, &proof,
                 with_digest ? &digest : nullptr);
             if (s.ok()) {
               *again = lp(value) + EncodeOf(proof) +
                        (with_digest ? EncodeOf(digest) : "");
             }
             return s;
           }});
    Sweep({with_digest ? "kScanProof reply" : "kScanProofAt reply",
           [answers, rows_of, with_digest](uint64_t seed) {
             std::vector<std::string> out;
             for (const auto& scan : answers(seed).scans) {
               out.push_back(rows_of(scan.rows) + scan.proof +
                             (with_digest ? scan.digest : ""));
             }
             return out;
           },
           [rows_of, with_digest](const std::string& bytes,
                                  std::string* again) {
             std::vector<PosEntry> rows;
             ScanProof proof;
             SpitzDigest digest;
             Status s = wire::DecodeScanProofReply(
                 bytes, nullptr, &rows, &proof,
                 with_digest ? &digest : nullptr);
             if (s.ok()) {
               *again = rows_of(rows) + EncodeOf(proof) +
                        (with_digest ? EncodeOf(digest) : "");
             }
             return s;
           }});
  }
  Sweep({"kScan reply",
         [answers, rows_of](uint64_t seed) {
           std::vector<std::string> out{rows_of({})};
           for (const auto& scan : answers(seed).scans) {
             out.push_back(rows_of(scan.rows));
           }
           return out;
         },
         [rows_of](const std::string& bytes, std::string* again) {
           std::vector<PosEntry> rows;
           Status s = wire::DecodeScanReply(bytes, &rows);
           if (s.ok()) *again = rows_of(rows);
           return s;
         }});
  auto in_doubt = [](const std::vector<uint64_t>& txn_ids) {
    std::string out;
    PutVarint64(&out, txn_ids.size());
    for (uint64_t txn_id : txn_ids) PutFixed64(&out, txn_id);
    return out;
  };
  Sweep({"kTxnInDoubt reply",
         [in_doubt](uint64_t seed) {
           Random rnd(seed);
           std::vector<std::string> out{in_doubt({})};
           for (size_t n : {1, 3}) {
             std::vector<uint64_t> txn_ids;
             for (size_t i = 0; i < n; i++) txn_ids.push_back(rnd.Next());
             out.push_back(in_doubt(txn_ids));
           }
           return out;
         },
         [in_doubt](const std::string& bytes, std::string* again) {
           std::vector<uint64_t> txn_ids;
           Status s = wire::DecodeTxnInDoubtReply(bytes, &txn_ids);
           if (s.ok()) *again = in_doubt(txn_ids);
           return s;
         }});
  // kDigest, kReplicate, kReplicaAck and kReplicaStatus replies.
  Sweep({"kDigest reply",
         [answers](uint64_t seed) {
           std::vector<std::string> out;
           for (const auto& get : answers(seed).gets) out.push_back(get.digest);
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           SpitzDigest digest;
           Status s = wire::DecodeReply(bytes, &digest);
           if (s.ok()) *again = EncodeOf(digest);
           return s;
         }});
  Sweep({"kReplicaAck reply",
         [](uint64_t seed) {
           Random rnd(seed);
           return std::vector<std::string>{EncodeOf(RandomAck(&rnd)),
                                           EncodeOf(wire::ReplicaAck())};
         },
         [](const std::string& bytes, std::string* again) {
           wire::ReplicaAck ack;
           Status s = wire::DecodeReply(bytes, &ack);
           if (s.ok()) *again = EncodeOf(ack);
           return s;
         }});
  Sweep({"kReplicaStatus reply",
         [](uint64_t seed) {
           Random rnd(seed);
           wire::ReplicaStatusResult status;
           status.role = static_cast<uint8_t>(seed % 2);
           status.applied = RandomAck(&rnd);
           status.applied_entries = rnd.Next();
           return std::vector<std::string>{EncodeOf(status)};
         },
         [](const std::string& bytes, std::string* again) {
           wire::ReplicaStatusResult status;
           Status s = wire::DecodeReply(bytes, &status);
           if (s.ok()) *again = EncodeOf(status);
           return s;
         }});
}

TEST(CodecMutationTest, Handshake) {
  Sweep({"Handshake",
         [](uint64_t seed) {
           Random rnd(seed);
           Handshake other;
           other.protocol_version = static_cast<uint32_t>(rnd.Next());
           other.features = rnd.Next();
           return std::vector<std::string>{EncodeOf(Handshake()),
                                           EncodeOf(other)};
         },
         [](const std::string& bytes, std::string* again) {
           Handshake handshake;
           Status s = Handshake::DecodeFrom(bytes, &handshake);
           if (s.ok()) *again = EncodeOf(handshake);
           return s;
         }});
}

// --- Cluster digest and cluster evidence -------------------------------------

TEST(CodecMutationTest, ClusterDigest) {
  Sweep({"ClusterDigest",
         [](uint64_t seed) {
           Random rnd(seed);
           std::vector<std::string> out;
           for (size_t shards : {1, 2, 3}) {
             ClusterDigest digest;
             for (size_t i = 0; i < shards; i++) {
               SpitzDigest d;
               d.index_root = RandomHash(&rnd);
               d.journal.block_count = rnd.Uniform(1000);
               d.journal.entry_count = rnd.Next() >> 20;
               d.journal.tip_hash = RandomHash(&rnd);
               d.journal.merkle_root = RandomHash(&rnd);
               d.last_commit_ts = rnd.Next();
               digest.shards.push_back(d);
             }
             digest.Seal();
             out.push_back(EncodeOf(digest));
           }
           return out;
         },
         [](const std::string& bytes, std::string* again) {
           ClusterDigest digest;
           Status s = DecodeWhole(bytes, &digest);
           if (s.ok()) *again = EncodeOf(digest);
           return s;
         }});
}

// Cluster evidence from a two-shard fleet: a point proof is var(shard)
// then a ReadProof; a scan proof var(n), then per shard its entry list
// and ScanProof.
TEST(CodecMutationTest, ClusterEvidence) {
  LocalFleet::Options options;
  options.shards = 2;
  options.db = SmallNodes(SiriBackend::kPosTree);
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
  std::unique_ptr<ClusterClient> client;
  ASSERT_TRUE(ClusterClient::Open(fleet->ClusterOptions(), &client).ok());
  Random rnd(7);
  for (uint64_t i = 0; i < 60; i++) {
    ASSERT_TRUE(client->Put(Key(i), rnd.Bytes(rnd.Uniform(12))).ok());
  }

  std::vector<std::string> keys;
  std::vector<VerifiedKv::Evidence> gets;
  for (uint64_t i = 0; i < 70; i += 9) {
    VerifiedKv::Evidence evidence;
    Status s = client->GetProof(Key(i), &evidence);
    ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    keys.push_back(Key(i));
    gets.push_back(evidence);
  }
  auto get_field = [&](bool digest) {
    return [&, digest](uint64_t) {
      std::vector<std::string> out;
      for (const auto& e : gets) out.push_back(digest ? e.digest : e.proof);
      return out;
    };
  };
  auto cluster_digest = [](const std::string& bytes, std::string* again) {
    ClusterDigest digest;
    Status s = DecodeWhole(bytes, &digest);
    if (s.ok()) *again = EncodeOf(digest);
    return s;
  };
  auto get_forges = [&](bool digest) {
    return [&, digest](const std::string& bytes, size_t origin) {
      VerifiedKv::Evidence evidence = gets[origin];
      (digest ? evidence.digest : evidence.proof) = bytes;
      return VerifyClusterGetEvidence(keys[origin], evidence).ok();
    };
  };
  Sweep({"cluster point evidence proof", get_field(false),
         [](const std::string& bytes, std::string* again) {
           Slice input(bytes);
           uint64_t shard = 0;
           ReadProof proof;
           Status s = GetVarint64(&input, &shard);
           if (s.ok()) s = ReadProof::DecodeFrom(&input, &proof);
           if (s.ok()) s = CheckConsumed(input, "the proof");
           again->clear();
           PutVarint64(again, shard);
           proof.EncodeTo(again);
           return s;
         },
         get_forges(false)});
  Sweep({"cluster point evidence digest", get_field(true), cluster_digest,
         get_forges(true)});

  struct Scan {
    std::string start, end;
    size_t limit;
    VerifiedKv::ScanEvidence evidence;
  };
  std::vector<Scan> scans;
  for (uint64_t i = 0; i < 60; i += 13) {
    Scan scan{Key(i), Key(i + 11), i % 4, {}};
    ASSERT_TRUE(
        client->ScanProof(scan.start, scan.end, scan.limit, &scan.evidence)
            .ok());
    scans.push_back(std::move(scan));
  }
  auto scan_field = [&](bool digest) {
    return [&, digest](uint64_t) {
      std::vector<std::string> out;
      for (const auto& scan : scans) {
        out.push_back(digest ? scan.evidence.digest : scan.evidence.proof);
      }
      return out;
    };
  };
  auto scan_forges = [&](bool digest) {
    return [&, digest](const std::string& bytes, size_t origin) {
      const Scan& scan = scans[origin];
      VerifiedKv::ScanEvidence evidence = scan.evidence;
      (digest ? evidence.digest : evidence.proof) = bytes;
      return VerifyClusterScanEvidence(scan.start, scan.end,
                                       scan.limit, evidence)
          .ok();
    };
  };
  Sweep({"cluster scan evidence proof", scan_field(false),
         [](const std::string& bytes, std::string* again) {
           Slice input(bytes);
           uint64_t n = 0;
           Status s = GetVarint64(&input, &n);
           again->clear();
           PutVarint64(again, n);
           for (uint64_t i = 0; s.ok() && i < n; i++) {
             std::vector<PosEntry> rows;
             ScanProof proof;
             s = GetEntryList(&input, &rows);
             if (s.ok()) s = ScanProof::DecodeFrom(&input, &proof);
             PutEntryList(again, rows);
             proof.EncodeTo(again);
           }
           return s.ok() ? CheckConsumed(input, "the proof") : s;
         },
         scan_forges(false)});
  Sweep({"cluster scan evidence digest", scan_field(true), cluster_digest,
         scan_forges(true)});
}

// --- One byte form: a regression case per decoder that accepted two ---------

TEST(OneByteFormTest, SingleNodeEvidenceRefusesBytesAfterItsDigestOrProof) {
  SpitzDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  VerifiedKv::Evidence get;
  ASSERT_TRUE(db.GetProof("k", &get).ok());
  VerifiedKv::ScanEvidence scan;
  ASSERT_TRUE(db.ScanProof("a", "z", 0, &scan).ok());
  ASSERT_TRUE(VerifyGetEvidence("k", get).ok());
  ASSERT_TRUE(VerifyScanEvidence("a", "z", 0, scan).ok());
  for (std::string* field : {&get.digest, &get.proof}) {
    field->push_back('\0');
    EXPECT_FALSE(VerifyGetEvidence("k", get).ok());
    field->pop_back();
  }
  for (std::string* field : {&scan.digest, &scan.proof}) {
    field->push_back('\0');
    EXPECT_FALSE(VerifyScanEvidence("a", "z", 0, scan).ok());
    field->pop_back();
  }
}

TEST(OneByteFormTest, ClusterEvidenceRefusesBytesAfterItsDigestOrProof) {
  LocalFleet::Options options;
  options.shards = 2;
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
  std::unique_ptr<ClusterClient> client;
  ASSERT_TRUE(ClusterClient::Open(fleet->ClusterOptions(), &client).ok());
  ASSERT_TRUE(client->Put("k", "v").ok());
  VerifiedKv::Evidence get;
  ASSERT_TRUE(client->GetProof("k", &get).ok());
  VerifiedKv::ScanEvidence scan;
  ASSERT_TRUE(client->ScanProof("a", "z", 0, &scan).ok());
  ASSERT_TRUE(VerifyClusterGetEvidence("k", get).ok());
  ASSERT_TRUE(VerifyClusterScanEvidence("a", "z", 0, scan).ok());
  for (std::string* field : {&get.digest, &get.proof}) {
    field->push_back('\0');
    EXPECT_FALSE(VerifyClusterGetEvidence("k", get).ok());
    field->pop_back();
  }
  for (std::string* field : {&scan.digest, &scan.proof}) {
    field->push_back('\0');
    EXPECT_FALSE(VerifyClusterScanEvidence("a", "z", 0, scan).ok());
    field->pop_back();
  }
}

TEST(OneByteFormTest, WriteSyncByteAboveOneIsInvalidAndWritesNothing) {
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(LocalFleet::Options(), &fleet).ok());
  std::unique_ptr<NetClient> client;
  ASSERT_TRUE(NetClient::Connect(fleet->ClientOptions(0).net, &client).ok());
  WriteBatch batch;
  batch.Put("written", "v");
  std::string response, value;
  Status s = client->Call(wire::kWrite, '\x02' + batch.Encode(), &response);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_TRUE(fleet->db(0)->Get("written", &value).IsNotFound());
  ASSERT_TRUE(client->Call(wire::kWrite, '\x01' + batch.Encode(), &response)
                  .ok());
  EXPECT_TRUE(fleet->db(0)->Get("written", &value).ok());
}

TEST(OneByteFormTest, HandshakeRefusesTrailingBytes) {
  std::string bytes;
  Handshake().EncodeTo(&bytes);
  Handshake out;
  ASSERT_TRUE(Handshake::DecodeFrom(bytes, &out).ok());
  Status s = Handshake::DecodeFrom(bytes + '\0', &out);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// A one-node MPT proof: `node` is the root, so any payload the decoder
// takes verifies.
Status VerifyTrieNode(const std::string& node, const Slice& key,
                      const std::string& value) {
  MptProof proof;
  proof.nodes.push_back(OwnedProofNode(
      static_cast<uint8_t>(ChunkType::kTrieNode), node));
  return VerifyMptProof(
      Chunk::IdOf(ChunkType::kTrieNode, node), key, value, proof);
}

TEST(OneByteFormTest, TrieNodeRefusesTrailingBytes) {
  // A leaf (kind 0) for key "k": nibble path 6 b, value "v".
  const std::string leaf("\x00\x02\x06\x0b\x01v", 6);
  ASSERT_TRUE(VerifyTrieNode(leaf, "k", "v").ok());
  EXPECT_FALSE(VerifyTrieNode(leaf + '\0', "k", "v").ok());
}

TEST(OneByteFormTest, TrieBranchFlagAndMaskHaveOneForm) {
  // A branch (kind 2) holding the empty key's value: no children, flag 1.
  const std::string no_children("\x02\x00\x00\x00\x00", 5);
  ASSERT_TRUE(VerifyTrieNode(no_children + "\x01\x01v", "", "v").ok());
  EXPECT_FALSE(VerifyTrieNode(no_children + "\x02\x01v", "", "v").ok());
  // A mask bit names a zero child, or a bit past the sixteen children.
  EXPECT_FALSE(VerifyTrieNode(std::string("\x02\x01\x00\x00\x00", 5) +
                                  std::string(Hash256::kSize, '\0') +
                                  "\x01\x01v",
                              "", "v")
                   .ok());
  EXPECT_FALSE(
      VerifyTrieNode(std::string("\x02\x00\x00\x01\x00\x01\x01v", 8), "", "v")
          .ok());
}

TEST(OneByteFormTest, MbtBucketRefusesTrailingBytes) {
  auto verify = [](const std::string& bucket) {
    const std::string directory =
        Chunk::IdOf(ChunkType::kBucket, bucket).ToBytes();
    MbtProof proof;
    const auto type = static_cast<uint8_t>(ChunkType::kBucket);
    proof.directory = OwnedProofNode(type, directory);
    proof.bucket = OwnedProofNode(type, bucket);
    return VerifyMbtProof(
        Chunk::IdOf(ChunkType::kBucket, directory), "k", "v", proof,
        MbtOptions(1));
  };
  const std::string bucket("\x01\x01k\x01v", 5);  // one entry: k -> v
  ASSERT_TRUE(verify(bucket).ok());
  EXPECT_FALSE(verify(bucket + '\0').ok());
}

TEST(OneByteFormTest, MbtProofBucketIndexIsAVarint32) {
  SpitzOptions options;
  options.index_backend = SiriBackend::kMerkleBucketTree;
  options.mbt_bucket_count = 1;
  SpitzDb db(options);
  ASSERT_TRUE(db.Put("k", "v").ok());
  VerifiedKv::Evidence evidence;
  ASSERT_TRUE(db.GetProof("k", &evidence).ok());
  ASSERT_TRUE(VerifyGetEvidence("k", evidence).ok());
  // Index root, backend tag, then bucket 0 as one varint byte: spell it
  // as 2^32 instead, which a 32-bit truncation would read as 0.
  const size_t at = Hash256::kSize + 1;
  ASSERT_EQ(evidence.proof[at], '\0');
  std::string inflated;
  PutVarint64(&inflated, uint64_t{1} << 32);
  evidence.proof.replace(at, 1, inflated);
  EXPECT_FALSE(VerifyGetEvidence("k", evidence).ok());
}

TEST(OneByteFormTest, IndexNodeRefusesTrailingBytes) {
  const std::string leaf("\x01\x01k\x01v", 5);  // one entry: k -> v
  std::shared_ptr<const PosNode> node;
  ASSERT_TRUE(PosNode::Decode(ChunkType::kIndexLeaf, leaf, nullptr, &node)
                  .ok());
  EXPECT_TRUE(
      PosNode::Decode(ChunkType::kIndexLeaf, leaf + '\0', nullptr, &node)
          .IsCorruption());
}

TEST(OneByteFormTest, ReplicaStatusRoleIsZeroOrOne) {
  wire::ReplicaStatusResult status;
  status.role = 1;
  std::string bytes;
  status.EncodeTo(&bytes);
  Slice input(bytes);
  ASSERT_TRUE(wire::ReplicaStatusResult::DecodeFrom(&input, &status).ok());
  bytes[0] = '\x02';
  input = Slice(bytes);
  EXPECT_FALSE(wire::ReplicaStatusResult::DecodeFrom(&input, &status).ok());
}

// NonIntrusiveDb's request handlers read a request's fields, then
// refuse a trailing byte before serving: a put or append so refused
// writes nothing.
TEST(OneByteFormTest, NonIntrusiveKvsRequestsRefuseTrailingBytes) {
  NonIntrusiveDb db;
  std::string put, get, scan, response;
  PutLengthPrefixedSlice(&put, "k");
  PutLengthPrefixedSlice(&put, "v");
  PutLengthPrefixedSlice(&get, "k");
  PutLengthPrefixedSlice(&scan, "a");
  PutLengthPrefixedSlice(&scan, "z");
  PutVarint64(&scan, 0);
  EXPECT_TRUE(db.HandleKvs(NonIntrusiveDb::kKvsPut, put + '\0', &response)
                  .IsCorruption());
  EXPECT_TRUE(db.HandleKvs(NonIntrusiveDb::kKvsGet, get, &response)
                  .IsNotFound());
  ASSERT_TRUE(db.HandleKvs(NonIntrusiveDb::kKvsPut, put, &response).ok());
  for (const auto& [method, request] :
       {std::pair{NonIntrusiveDb::kKvsGet, get},
        std::pair{NonIntrusiveDb::kKvsScan, scan}}) {
    SCOPED_TRACE(method);
    response.clear();
    EXPECT_TRUE(db.HandleKvs(method, request + '\0', &response).IsCorruption());
    EXPECT_TRUE(response.empty());
    EXPECT_TRUE(db.HandleKvs(method, request, &response).ok());
  }
}

TEST(OneByteFormTest, NonIntrusiveLedgerRequestsRefuseTrailingBytes) {
  NonIntrusiveDb db;
  std::string append, prove, response;
  PutLengthPrefixedSlice(&append, "k");
  append += Hash256::Of("v").ToBytes();
  PutLengthPrefixedSlice(&prove, "k");
  EXPECT_TRUE(
      db.HandleLedger(NonIntrusiveDb::kLedgerAppend, append + '\0', &response)
          .IsCorruption());
  EXPECT_TRUE(db.HandleLedger(NonIntrusiveDb::kLedgerProve, prove, &response)
                  .IsNotFound());
  ASSERT_TRUE(
      db.HandleLedger(NonIntrusiveDb::kLedgerAppend, append, &response).ok());
  for (const auto& [method, request] :
       {std::pair{NonIntrusiveDb::kLedgerProve, prove},
        std::pair{NonIntrusiveDb::kLedgerDigest, std::string()}}) {
    SCOPED_TRACE(method);
    response.clear();
    EXPECT_TRUE(
        db.HandleLedger(method, request + '\0', &response).IsCorruption());
    EXPECT_TRUE(response.empty());
    EXPECT_TRUE(db.HandleLedger(method, request, &response).ok());
  }
}

// A kLedgerProve reply is exactly one ReadProof, and the client's
// decoder refuses a reply with a byte appended (the reply once carried
// the stored value after the proof, which no client read).
TEST(OneByteFormTest, NonIntrusiveProveReplyRefusesATrailingByte) {
  NonIntrusiveDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  std::string prove, reply;
  PutLengthPrefixedSlice(&prove, "k");
  ASSERT_TRUE(
      db.HandleLedger(NonIntrusiveDb::kLedgerProve, prove, &reply).ok());
  ReadProof proof;
  ASSERT_TRUE(NonIntrusiveDb::DecodeProveReply(reply, &proof).ok());
  NonIntrusiveDb::VerifiedValue vv{"v", proof};
  EXPECT_TRUE(NonIntrusiveDb::VerifyValue(db.Digest(), "k", vv).ok());
  EXPECT_TRUE(
      NonIntrusiveDb::DecodeProveReply(reply + '\0', &proof).IsCorruption());
}

// A replica status request is one command byte: none, or one more,
// is InvalidArgument, and a refused promote leaves the node a backup.
TEST(OneByteFormTest, ReplicaStatusRequestIsOneCommandByte) {
  SpitzDb db;
  BackupReplica::Options options;
  options.db = &db;
  std::unique_ptr<BackupReplica> backup;
  ASSERT_TRUE(BackupReplica::Open(options, &backup).ok());
  std::string response;
  const std::string query(1, static_cast<char>(wire::kReplicaStatusQuery));
  const std::string promote(1, static_cast<char>(wire::kReplicaStatusPromote));
  EXPECT_TRUE(backup->HandleStatus("", &response).IsInvalidArgument());
  EXPECT_TRUE(
      backup->HandleStatus(query + '\0', &response).IsInvalidArgument());
  EXPECT_TRUE(
      backup->HandleStatus(promote + '\0', &response).IsInvalidArgument());
  EXPECT_TRUE(response.empty());
  EXPECT_TRUE(backup->IsBackup());
  EXPECT_TRUE(backup->HandleStatus(query, &response).ok());
  EXPECT_TRUE(backup->IsBackup());
}

// A replicated one-shard fleet behind a NetServer that relays every
// call (the replica methods to the backup) and, while `pad` is set,
// serves each reply with one byte appended; `client` calls that server.
// The client's reply decoders must refuse the padded replies.
struct PaddedReplies {
  std::unique_ptr<LocalFleet> fleet;
  std::unique_ptr<NetClient> to_primary, to_backup;
  std::atomic<bool> pad{true};
  std::unique_ptr<NetServer> server;
  std::unique_ptr<SpitzClient> client;

  void Open() {
    LocalFleet::Options options;
    options.replicated = true;
    ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
    ASSERT_TRUE(
        NetClient::Connect(fleet->ClientOptions(0).net, &to_primary).ok());
    ASSERT_TRUE(
        NetClient::Connect(fleet->BackupClientOptions(0).net, &to_backup)
            .ok());
    NetServer::Options server_options;
    server_options.features |= kFeatureReplication;
    ASSERT_TRUE(NetServer::Start(
                    [this](uint32_t method, const std::string& request,
                           std::string* response) {
                      NetClient* to = method >= wire::kReplicate
                                          ? to_backup.get()
                                          : to_primary.get();
                      std::string reply;
                      Status s = to->Call(method, request, &reply);
                      response->append(reply);
                      if (pad.load()) response->push_back('\0');
                      return s;
                    },
                    server_options, &server)
                    .ok());
    SpitzClient::Options client_options;
    client_options.net = fleet->ClientOptions(0).net;
    client_options.net.port = server->port();
    ASSERT_TRUE(SpitzClient::Open(client_options, &client).ok());
    ASSERT_TRUE(fleet->db(0)->Put("k", "v").ok());
  }

  // `call` fails with Corruption on the padded reply and succeeds on
  // the reply as served.
  void Expect(const std::function<Status()>& call) {
    pad.store(true);
    Status s = call();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    pad.store(false);
    s = call();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
};

TEST(OneByteFormTest, GetReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  ReadOptions unverified;
  unverified.verify = false;
  std::string value;
  r.Expect([&] { return r.client->Get(unverified, "k", &value); });
  EXPECT_EQ(value, "v");
}

TEST(OneByteFormTest, GetProofReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  std::string value;
  r.Expect([&] { return r.client->VerifiedGet("k", &value); });
  EXPECT_EQ(value, "v");
}

TEST(OneByteFormTest, ScanReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  ReadOptions unverified;
  unverified.verify = false;
  std::vector<PosEntry> rows;
  r.Expect([&] { return r.client->Scan(unverified, "a", "z", 0, &rows); });
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value, "v");
}

TEST(OneByteFormTest, ScanProofReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  std::vector<PosEntry> rows;
  r.Expect([&] { return r.client->VerifiedScan("a", "z", 0, &rows); });
  EXPECT_EQ(rows.size(), 1u);
}

TEST(OneByteFormTest, GetProofAtReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  const Hash256 root = r.fleet->db(0)->Digest().index_root;
  std::optional<std::string> value;
  ReadProof proof;
  r.Expect([&] { return r.client->GetProofAt(root, "k", &value, &proof); });
  EXPECT_TRUE(VerifyRead(r.fleet->db(0)->Digest(), "k", value, proof)
                  .ok());
}

TEST(OneByteFormTest, ScanProofAtReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  const Hash256 root = r.fleet->db(0)->Digest().index_root;
  std::vector<PosEntry> rows;
  ScanProof proof;
  r.Expect(
      [&] { return r.client->ScanProofAt(root, "a", "z", 0, &rows, &proof); });
  EXPECT_TRUE(VerifyScan(r.fleet->db(0)->Digest(), "a", "z", 0, rows, proof)
                  .ok());
}

TEST(OneByteFormTest, DigestReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  SpitzDigest digest;
  r.Expect([&] { return r.client->Digest(&digest); });
  EXPECT_EQ(digest, r.fleet->db(0)->Digest());
}

TEST(OneByteFormTest, TxnInDoubtReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  WriteBatch batch;
  batch.Put("prepared", "p");
  ASSERT_TRUE(r.fleet->db(0)->participant()->PrepareTxn(7, batch).ok());
  std::vector<uint64_t> txn_ids;
  r.Expect([&] { return r.client->TxnInDoubt(&txn_ids); });
  EXPECT_EQ(txn_ids, std::vector<uint64_t>{7});
}

TEST(OneByteFormTest, ReplicateReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  // Block 0 of another history, which the empty backup applies; the
  // backup acknowledges a record it already applied again.
  SpitzOptions source_options;
  source_options.block_size = 1;
  SpitzDb source(source_options);
  ASSERT_TRUE(source.Put("replicated", "r").ok());
  std::string record;
  Block block;
  ASSERT_TRUE(EncodeReplicationRecord(source, 0, &record, &block).ok());
  wire::ReplicaAck ack;
  r.Expect([&] { return r.client->Replicate(record, &ack); });
  EXPECT_EQ(ack.applied_blocks, 1u);
}

TEST(OneByteFormTest, ReplicaAckReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  wire::ReplicaAck ack;
  r.Expect([&] { return r.client->ReplicaAckQuery(&ack); });
}

TEST(OneByteFormTest, ReplicaStatusReplyRefusesATrailingByte) {
  PaddedReplies r;
  ASSERT_NO_FATAL_FAILURE(r.Open());
  wire::ReplicaStatusResult status;
  r.Expect([&] {
    return r.client->ReplicaStatus(wire::kReplicaStatusQuery, &status);
  });
  EXPECT_EQ(status.role, 0u);
}

}  // namespace
}  // namespace spitz
