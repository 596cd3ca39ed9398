// Delta chunk records: the record codec (chunk/chunk_record.h) and what
// FileChunkStore promises about them — small records for path-copied
// POS nodes, a bounded chain that rebases onto its full record at the
// cap, reads that verify, replay that refuses a damaged or forged
// store, and GC passes (and crashes inside them) that never leave a
// delta without its base.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/buffer_cache.h"
#include "chunk/chunk_record.h"
#include "chunk/file_chunk_store.h"
#include "common/codec.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/fault_env.h"
#include "common/metrics.h"
#include "common/random.h"
#include "index/pos_tree.h"

namespace spitz {
namespace {

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%05d", i);
  return buf;
}

std::string Value(int i, int round) {
  std::string v = "v" + std::to_string(round) + "-" + std::to_string(i) + "-";
  v.resize(100, static_cast<char>('a' + (i + round) % 26));
  return v;
}

std::string RandomBytes(Random* rnd, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rnd->Next());
  return s;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Recomputes the CRC of the record at `offset` of `bytes` in place, as
// an attacker who can write the segment files would.
void Reseal(std::string* bytes, size_t offset) {
  Slice rest(bytes->data() + offset + 1, bytes->size() - offset - 1);
  uint64_t len = 0;
  ASSERT_TRUE(GetVarint64(&rest, &len).ok());
  const size_t body = static_cast<size_t>(rest.data() - bytes->data());
  uint32_t crc = crc32c::Extend(0, bytes->data() + offset, 1);
  crc = crc32c::Extend(crc, bytes->data() + body, static_cast<size_t>(len));
  std::string fixed;
  PutFixed32(&fixed, crc32c::Mask(crc));
  bytes->replace(body + static_cast<size_t>(len), fixed.size(), fixed);
}

// One record of a segment file, located by walking the file.
struct Located {
  size_t offset = 0;
  ChunkRecord record;
  Hash256 id;
};

std::vector<Located> WalkSegment(const std::string& bytes) {
  std::vector<Located> out;
  Slice input(bytes);
  while (!input.empty()) {
    Located at;
    at.offset = bytes.size() - input.size();
    bool torn = false;
    if (!ParseChunkRecord(&input, &at.record, &torn).ok() || torn) break;
    at.id = at.record.delta ? at.record.id
                            : Chunk::IdOf(at.record.type, at.record.body);
    out.push_back(at);
  }
  return out;
}

std::vector<std::string> SegmentPaths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("chunk-", 0) == 0) paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

uint64_t Counter(const FileChunkStore& store, const char* name) {
  MetricsRegistry registry;
  store.ExportMetrics(&registry);
  return registry.Snapshot().CounterValue(name);
}

// A scan of the whole version, checked against its range proof: reads
// every node of the version.
void ExpectVersionVerifies(const PosTree& tree, const Hash256& root,
                           const std::map<std::string, std::string>& model) {
  std::vector<PosEntry> rows;
  PosRangeProof proof;
  ASSERT_TRUE(tree.Scan(root, "", "\xff", 0, &rows, &proof).ok());
  ASSERT_TRUE(
      VerifyPosRangeProof(root, "", "\xff", 0, rows, proof).ok());
  ASSERT_EQ(rows.size(), model.size());
  size_t i = 0;
  for (const auto& [key, value] : model) {
    EXPECT_EQ(rows[i].key, key);
    EXPECT_EQ(rows[i].value, value);
    i++;
  }
}

class DeltaChunkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_delta_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// --- The record codec -------------------------------------------------------

// Every byte flip and truncation of an encoded delta record, with its
// checksum as it is or recomputed, and every wrong base, is refused or
// decodes to exactly the chunk that was encoded.
TEST(DeltaRecordTest, EveryFlipTruncationAndWrongBaseIsRefusedOrExact) {
  Random rnd(7);
  const Chunk base(ChunkType::kIndexLeaf, RandomBytes(&rnd, 600));
  std::string changed = base.payload();
  changed[0] = static_cast<char>(changed[0] ^ 0x40);         // a count
  changed.replace(200, 24, RandomBytes(&rnd, 24));            // an overwrite
  changed.insert(400, RandomBytes(&rnd, 40));                 // an insert
  const Chunk target(ChunkType::kIndexLeaf, changed);
  std::string record;
  ASSERT_TRUE(EncodeDeltaRecord(target, base, &record));
  std::string full;
  EncodeChunkRecord(target, &full);
  EXPECT_LT(record.size() * 4, full.size());

  size_t refused = 0;
  size_t exact = 0;
  auto check = [&](const std::string& bytes, const Chunk& with_base) {
    Slice input(bytes);
    ChunkRecord parsed;
    bool torn = false;
    Status s = ParseChunkRecord(&input, &parsed, &torn);
    if (s.ok() && (torn || !input.empty() || !parsed.delta)) {
      s = Status::Corruption("not one whole delta record");
    }
    Chunk rebuilt;
    if (s.ok()) s = RebuildChunk(parsed, with_base.data(), &rebuilt);
    if (!s.ok()) {
      refused++;
      return;
    }
    exact++;
    EXPECT_EQ(rebuilt.type(), target.type());
    EXPECT_EQ(rebuilt.payload(), target.payload());
    EXPECT_EQ(rebuilt.id(), target.id());
  };

  check(record, base);
  ASSERT_EQ(exact, 1u);
  Slice header(record.data() + 1, record.size() - 1);
  uint64_t body_size = 0;
  ASSERT_TRUE(GetVarint64(&header, &body_size).ok());
  const size_t body_start =
      record.size() - sizeof(uint32_t) - static_cast<size_t>(body_size);
  for (size_t i = 0; i < record.size(); i++) {
    for (uint8_t mask : {0x01, 0xff}) {
      std::string variant = record;
      variant[i] = static_cast<char>(variant[i] ^ mask);
      check(variant, base);
      // Past the checksum, into the header and op decoder: every flip
      // of the kind byte or the body, resealed.
      if (i == 0 || (i >= body_start && i < body_start + body_size)) {
        Reseal(&variant, 0);
        check(variant, base);
      }
    }
  }
  for (size_t n = 0; n < record.size(); n++) check(record.substr(0, n), base);

  std::vector<Chunk> wrong = {
      Chunk(ChunkType::kIndexLeaf, ""),
      target,
      Chunk(ChunkType::kIndexLeaf, base.payload().substr(0, 300)),
      Chunk(ChunkType::kIndexLeaf, RandomBytes(&rnd, 600)),
  };
  for (size_t i = 0; i < base.payload().size(); i++) {
    std::string flipped = base.payload();
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    wrong.emplace_back(ChunkType::kIndexLeaf, flipped);
  }
  for (const Chunk& w : wrong) check(record, w);

  EXPECT_GT(refused, 0u);
  // The flips of base bytes the delta replaces still rebuild it.
  EXPECT_GT(exact, 1u);
}

// A record of no use as a delta is not written as one.
TEST(DeltaRecordTest, UnrelatedContentEncodesNoDelta) {
  Random rnd(11);
  const Chunk base(ChunkType::kBlob, RandomBytes(&rnd, 2000));
  const Chunk other(ChunkType::kBlob, RandomBytes(&rnd, 2000));
  std::string record;
  EXPECT_FALSE(EncodeDeltaRecord(other, base, &record));
  EXPECT_TRUE(record.empty());
}

// FullRecordBody undoes the full record's framing at every varint
// width of the body length, the widths' edges included.
TEST(DeltaRecordTest, FullRecordBodyInvertsTheFraming) {
  for (size_t body : {0, 1, 127, 128, 200, 16383, 16384, 70000}) {
    std::string record;
    EncodeChunkRecord(Chunk(ChunkType::kBlob, std::string(body, 'x')),
                      &record);
    EXPECT_EQ(FullRecordBody(record.size()), body) << body;
  }
  EXPECT_EQ(FullRecordBody(5), 0u);  // shorter than any record
}

// --- The store ---------------------------------------------------------------

// On a 32-entry leaf, an overwrite, an insert and a delete each append
// one delta record of at most an eighth of the full record.
TEST_F(DeltaChunkTest, LeafOverwriteInsertAndDeleteEachAppendUnderAnEighth) {
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(dir_, &store).ok());
  PosTreeOptions one_leaf;
  one_leaf.leaf_pattern_bits = 30;
  one_leaf.meta_pattern_bits = 30;
  PosTree tree(store.get(), one_leaf);
  std::map<std::string, std::string> model;
  std::vector<PosEntry> entries;
  for (int i = 0; i < 64; i += 2) {
    entries.push_back({Key(i), Value(i, 0)});
    model[Key(i)] = Value(i, 0);
  }
  Hash256 root;
  ASSERT_TRUE(tree.Build(entries, &root).ok());
  uint32_t height = 0;
  ASSERT_TRUE(tree.Height(root, &height).ok());
  ASSERT_EQ(height, 1u);

  struct Op {
    const char* name;
    std::function<Status(Hash256*)> apply;
  };
  const Op ops[] = {
      {"overwrite",
       [&](Hash256* next) {
         model[Key(20)] = Value(20, 1);
         return tree.Put(root, Key(20), Value(20, 1), next);
       }},
      {"insert",
       [&](Hash256* next) {
         model[Key(33)] = Value(33, 1);
         return tree.Put(root, Key(33), Value(33, 1), next);
       }},
      {"delete",
       [&](Hash256* next) {
         model.erase(Key(40));
         return tree.Delete(root, Key(40), next);
       }},
  };
  for (const Op& op : ops) {
    SCOPED_TRACE(op.name);
    const uint64_t records = Counter(*store, "chunk.file.delta_records");
    const uint64_t delta = Counter(*store, "chunk.file.delta_bytes");
    const uint64_t appended = Counter(*store, "chunk.file.appended_bytes");
    ASSERT_TRUE(op.apply(&root).ok());
    EXPECT_EQ(Counter(*store, "chunk.file.delta_records"), records + 1);
    const uint64_t delta_bytes =
        Counter(*store, "chunk.file.delta_bytes") - delta;
    EXPECT_EQ(Counter(*store, "chunk.file.appended_bytes") - appended,
              delta_bytes);
    std::shared_ptr<const Chunk> leaf;
    ASSERT_TRUE(store->Get(root, &leaf).ok());
    std::string full;
    EncodeChunkRecord(*leaf, &full);
    EXPECT_LE(delta_bytes * 8, full.size())
        << delta_bytes << " B delta for a " << full.size() << " B leaf";
    ExpectVersionVerifies(tree, root, model);
  }
}

// A key overwritten 100 times: no chunk's chain of delta records
// exceeds the cap, and every version reads and verifies from a cold
// cache, before and after a reopen.
TEST_F(DeltaChunkTest, HundredOverwritesStayWithinTheCapAndEveryVersionReads) {
  constexpr int kKeys = 2000;
  constexpr int kVersions = 100;
  std::vector<Hash256> roots;
  std::vector<PosEntry> entries;
  for (int i = 0; i < kKeys; i++) entries.push_back({Key(i), Value(i, 0)});

  auto check_all = [&](FileChunkStore* store, BufferCache* cache) {
    PosTree tree(store);
    uint64_t deepest = 0;
    for (int v = 0; v <= kVersions; v++) {
      cache->Clear();
      std::string value;
      PosProof proof;
      ASSERT_TRUE(tree.Get(roots[v], Key(777), &value, &proof).ok());
      EXPECT_EQ(value, Value(777, v));
      ASSERT_TRUE(
          VerifyPosProof(roots[v], Key(777), value, proof).ok());
      for (const ProofNode& node : proof.nodes) {
        const Hash256 id =
            Chunk::IdOf(static_cast<ChunkType>(node.type), node.payload);
        cache->Clear();
        const uint64_t before = Counter(*store, "chunk.file.chain_reads");
        std::shared_ptr<const Chunk> chunk;
        ASSERT_TRUE(store->Get(id, &chunk).ok());
        const uint64_t depth =
            Counter(*store, "chunk.file.chain_reads") - before;
        EXPECT_LE(depth, FileChunkStore::kMaxChainDepth);
        deepest = std::max(deepest, depth);
      }
    }
    EXPECT_EQ(deepest, FileChunkStore::kMaxChainDepth);
  };

  {
    BufferCache cache(1 << 20);
    FileChunkStore::Options options;
    options.cache = &cache;
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(Env::Default(), dir_, options, &store)
                    .ok());
    PosTree tree(store.get());
    Hash256 root;
    ASSERT_TRUE(tree.Build(entries, &root).ok());
    roots.push_back(root);
    for (int v = 1; v <= kVersions; v++) {
      ASSERT_TRUE(tree.Put(root, Key(777), Value(777, v), &root).ok());
      roots.push_back(root);
    }
    ASSERT_TRUE(store->Sync().ok());
    EXPECT_GE(Counter(*store, "chunk.file.delta_records"), 2u * kVersions);
    check_all(store.get(), &cache);
  }
  BufferCache cache(1 << 20);
  FileChunkStore::Options options;
  options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir_, options, &store).ok());
  check_all(store.get(), &cache);
}

// One leaf of 32 keys, written as a full record: every overwrite
// path-copies just that leaf.
struct OneLeaf {
  explicit OneLeaf(FileChunkStore* store) : tree(store, Options()) {
    std::vector<PosEntry> entries;
    for (int i = 0; i < 32; i++) {
      entries.push_back({Key(i), Value(i, 0)});
      model[Key(i)] = Value(i, 0);
    }
    Hash256 root;
    EXPECT_TRUE(tree.Build(entries, &root).ok());
    versions.emplace_back(root, model);
  }
  static PosTreeOptions Options() {
    PosTreeOptions options;
    options.leaf_pattern_bits = 30;
    options.meta_pattern_bits = 30;
    return options;
  }
  // Overwrites key 5 `n` times, one version each.
  void Overwrite(int n) {
    for (int i = 0; i < n; i++) {
      const int v = static_cast<int>(versions.size());
      model[Key(5)] = Value(5, v);
      Hash256 root;
      ASSERT_TRUE(tree.Put(versions.back().first, Key(5), Value(5, v), &root)
                      .ok());
      versions.emplace_back(root, model);
    }
  }
  const Hash256& root(size_t v) const { return versions[v].first; }

  PosTree tree;
  std::map<std::string, std::string> model;
  std::vector<std::pair<Hash256, std::map<std::string, std::string>>>
      versions;
};

// The base records one cold Get of `id` reads.
uint64_t ColdChainReads(FileChunkStore* store, BufferCache* cache,
                        const Hash256& id) {
  cache->Clear();
  const uint64_t before = Counter(*store, "chunk.file.chain_reads");
  std::shared_ptr<const Chunk> chunk;
  EXPECT_TRUE(store->Get(id, &chunk).ok());
  return Counter(*store, "chunk.file.chain_reads") - before;
}

// A leaf whose chain of deltas is at the cap: its next version is a
// depth-1 delta on the full record the chain starts from (read back
// from the segment, not counted as a chain read), a cold Get of it
// reads that one base, and the version after it chains on it.
TEST_F(DeltaChunkTest, VersionPastTheCapIsADeltaOnItsChainsFullRecord) {
  constexpr int kCap = FileChunkStore::kMaxChainDepth;
  BufferCache cache(1 << 20);
  FileChunkStore::Options options;
  options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir_, options, &store).ok());
  OneLeaf leaf(store.get());
  ASSERT_TRUE(store->Sync().ok());  // the full record is on disk
  leaf.Overwrite(kCap);
  EXPECT_EQ(Counter(*store, "chunk.file.delta_records"), uint64_t{kCap});
  EXPECT_EQ(Counter(*store, "chunk.file.delta_rebases"), 0u);
  // The first overwrite's read cached the full record; drop it, as the
  // retirement of replaced nodes does.
  cache.Erase(leaf.root(0));
  leaf.Overwrite(1);
  EXPECT_EQ(Counter(*store, "chunk.file.delta_records"), uint64_t{kCap} + 1);
  EXPECT_EQ(Counter(*store, "chunk.file.delta_rebases"), 1u);
  EXPECT_EQ(Counter(*store, "chunk.file.rebase_reads"), 1u);
  EXPECT_EQ(Counter(*store, "chunk.file.chain_reads"), 0u);
  ASSERT_TRUE(store->Sync().ok());

  const std::vector<std::string> segments = SegmentPaths(dir_);
  ASSERT_EQ(segments.size(), 1u);
  const std::string bytes = ReadFile(segments[0]);
  const std::vector<Located> records = WalkSegment(bytes);
  auto base_of = [&](const Hash256& id) {
    for (const Located& at : records) {
      if (at.id == id) {
        EXPECT_TRUE(at.record.delta);
        return at.record.base;
      }
    }
    ADD_FAILURE() << "no record of " << id.ToHex();
    return Hash256();
  };
  EXPECT_EQ(base_of(leaf.root(kCap)), leaf.root(kCap - 1));
  EXPECT_EQ(base_of(leaf.root(kCap + 1)), leaf.root(0));

  EXPECT_EQ(ColdChainReads(store.get(), &cache, leaf.root(kCap)),
            uint64_t{kCap});
  EXPECT_EQ(ColdChainReads(store.get(), &cache, leaf.root(kCap + 1)), 1u);
  leaf.Overwrite(1);
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(ColdChainReads(store.get(), &cache, leaf.root(kCap + 2)), 2u);
  for (const auto& [root, model] : leaf.versions) {
    cache.Clear();
    ExpectVersionVerifies(leaf.tree, root, model);
  }
}

// The full record a rebase would read is damaged on disk under a
// recomputed checksum: it does not hash to its id, so the version past
// the cap is written whole rather than as a delta on the wrong bytes.
TEST_F(DeltaChunkTest, DamagedFullRecordIsNotRebasedOnto) {
  constexpr int kCap = FileChunkStore::kMaxChainDepth;
  BufferCache cache(1 << 20);
  FileChunkStore::Options options;
  options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir_, options, &store).ok());
  OneLeaf leaf(store.get());
  leaf.Overwrite(kCap);
  ASSERT_TRUE(store->Sync().ok());
  cache.Erase(leaf.root(0));

  const std::string segment = SegmentPaths(dir_)[0];
  std::string bytes = ReadFile(segment);
  bool found = false;
  for (const Located& at : WalkSegment(bytes)) {
    if (at.record.delta || !(at.id == leaf.root(0))) continue;
    // A byte of a key no version changes.
    const size_t in_body =
        static_cast<size_t>(at.record.body.data() - bytes.data()) + 3;
    bytes[in_body] = static_cast<char>(bytes[in_body] ^ 0x20);
    Reseal(&bytes, at.offset);
    found = true;
  }
  ASSERT_TRUE(found);
  WriteFile(segment, bytes);

  leaf.Overwrite(1);
  EXPECT_EQ(Counter(*store, "chunk.file.rebase_reads"), 1u);
  EXPECT_EQ(Counter(*store, "chunk.file.delta_rebases"), 0u);
  EXPECT_EQ(Counter(*store, "chunk.file.delta_records"), uint64_t{kCap});
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(ColdChainReads(store.get(), &cache, leaf.root(kCap + 1)), 0u);
  cache.Clear();
  ExpectVersionVerifies(leaf.tree, leaf.root(kCap + 1),
                        leaf.versions.back().second);
}

// A chunk whose chain is at the cap but differs from the chain's full
// record in as many bytes as it holds: the rebased delta would not be
// shorter, so it is written full, and its successor is a delta on it.
TEST_F(DeltaChunkTest, RebasedDeltaNoLongerShorterIsWrittenFull) {
  constexpr int kCap = FileChunkStore::kMaxChainDepth;
  constexpr size_t kRegion = 500;
  Random rnd(17);
  // Version v rewrites region (v - 1) % kCap, so version kCap + 1 has
  // rewritten every byte of version 0.
  std::vector<Chunk> versions{
      Chunk(ChunkType::kBlob, RandomBytes(&rnd, kRegion * kCap))};
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(dir_, &store).ok());
  store->Put(versions[0]);
  for (int v = 1; v <= kCap + 2; v++) {
    std::string payload = versions.back().payload();
    payload.replace((v - 1) % kCap * kRegion, kRegion,
                    RandomBytes(&rnd, kRegion));
    versions.emplace_back(ChunkType::kBlob, payload);
    store->Put(versions[v], &versions[v - 1]);
  }
  EXPECT_EQ(Counter(*store, "chunk.file.delta_records"), uint64_t{kCap} + 1);
  EXPECT_EQ(Counter(*store, "chunk.file.delta_rebases"), 0u);
  ASSERT_TRUE(store->Sync().ok());

  const std::string bytes = ReadFile(SegmentPaths(dir_)[0]);
  const std::vector<Located> records = WalkSegment(bytes);
  ASSERT_EQ(records.size(), versions.size());
  for (size_t v = 0; v < versions.size(); v++) {
    SCOPED_TRACE("version " + std::to_string(v));
    EXPECT_EQ(records[v].id, versions[v].id());
    const bool full = v == 0 || v == kCap + 1;
    EXPECT_EQ(records[v].record.delta, !full);
    if (!full) {
      EXPECT_EQ(records[v].record.base, versions[v - 1].id());
    }
  }
}

// A base record damaged on disk under a recomputed checksum: every
// delta on it fails Get with Corruption, and the store no longer opens.
TEST_F(DeltaChunkTest, CorruptBaseFailsEveryDeltaOnIt) {
  PosTreeOptions one_leaf;
  one_leaf.leaf_pattern_bits = 30;
  std::vector<Hash256> roots;
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(dir_, &store).ok());
    PosTree tree(store.get(), one_leaf);
    std::vector<PosEntry> entries;
    for (int i = 0; i < 32; i++) entries.push_back({Key(i), Value(i, 0)});
    Hash256 root;
    ASSERT_TRUE(tree.Build(entries, &root).ok());
    roots.push_back(root);
    for (int v = 1; v <= 5; v++) {
      ASSERT_TRUE(tree.Put(root, Key(3), Value(3, v), &root).ok());
      roots.push_back(root);
    }
    EXPECT_EQ(Counter(*store, "chunk.file.delta_records"), 5u);
    ASSERT_TRUE(store->Sync().ok());
  }

  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(dir_, &store).ok());
  const std::vector<std::string> segments = SegmentPaths(dir_);
  ASSERT_EQ(segments.size(), 1u);
  std::string bytes = ReadFile(segments[0]);
  bool found = false;
  for (const Located& at : WalkSegment(bytes)) {
    if (at.record.delta || !(at.id == roots[0])) continue;
    // A byte of the last value, which every version copies.
    const size_t in_body =
        static_cast<size_t>(at.record.body.data() - bytes.data()) +
        at.record.body.size() - 3;
    bytes[in_body] = static_cast<char>(bytes[in_body] ^ 0x20);
    Reseal(&bytes, at.offset);
    found = true;
  }
  ASSERT_TRUE(found);
  WriteFile(segments[0], bytes);

  for (const Hash256& root : roots) {
    std::shared_ptr<const Chunk> chunk;
    Status s = store->Get(root, &chunk);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(chunk, nullptr);
  }
  store.reset();
  // Replay registers the damaged record under the hash of its bytes, so
  // the deltas' base is absent.
  Status s = FileChunkStore::Open(dir_, &store);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// A delta record whose stored id is forged: registered under the forged
// id, it fails Get with Corruption and serves no bytes; forged onto its
// own base it makes a loop that fails Open.
TEST_F(DeltaChunkTest, ForgedDeltaIdFailsAndServesNothing) {
  Random rnd(5);
  const Chunk base(ChunkType::kIndexLeaf, RandomBytes(&rnd, 2000));
  std::string changed = base.payload();
  changed.replace(1000, 50, RandomBytes(&rnd, 50));
  const Chunk target(ChunkType::kIndexLeaf, changed);
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(dir_, &store).ok());
    store->Put(base);
    store->Put(target, &base);
    EXPECT_EQ(Counter(*store, "chunk.file.delta_records"), 1u);
    ASSERT_TRUE(store->Sync().ok());
  }
  const std::string segment = SegmentPaths(dir_)[0];
  const std::string original = ReadFile(segment);
  auto forge = [&](const Hash256& id) {
    std::string bytes = original;
    for (const Located& at : WalkSegment(bytes)) {
      if (!at.record.delta) continue;
      const size_t own = static_cast<size_t>(
          at.record.body.data() - bytes.data() - 2 * Hash256::kSize -
          VarintLength(at.record.size));
      bytes.replace(own, Hash256::kSize, id.ToBytes());
      Reseal(&bytes, at.offset);
    }
    WriteFile(segment, bytes);
  };

  const Hash256 forged = Hash256::Of("forged");
  forge(forged);
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(dir_, &store).ok());
    EXPECT_TRUE(store->Contains(forged));
    EXPECT_FALSE(store->Contains(target.id()));
    std::shared_ptr<const Chunk> chunk;
    Status s = store->Get(forged, &chunk);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(chunk, nullptr);
    EXPECT_TRUE(store->Get(target.id(), &chunk).IsNotFound());
    ASSERT_TRUE(store->Get(base.id(), &chunk).ok());
    EXPECT_EQ(chunk->payload(), base.payload());
  }

  forge(base.id());
  std::unique_ptr<FileChunkStore> store;
  Status s = FileChunkStore::Open(dir_, &store);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// What a workload of versions over small segments keeps: the newest
// few roots with their contents, and the live set of its last GC pass.
struct Workload {
  std::deque<std::pair<Hash256, std::map<std::string, std::string>>> retained;
  std::unordered_set<Hash256, Hash256Hasher> live;
};

constexpr int kWorkloadKeys = 600;
constexpr size_t kRetain = 3;

// Overwrites `writes` random keys, one version each, keeping the newest
// kRetain; `seal` rolls the segment after each (as a block seal would).
void WriteVersions(FileChunkStore* store, const PosTree& tree, int writes,
                   bool seal, Random* rnd, Workload* w) {
  for (int i = 0; i < writes; i++) {
    auto model = w->retained.back().second;
    const int k = static_cast<int>(rnd->Uniform(kWorkloadKeys));
    const std::string value = Value(k, static_cast<int>(rnd->Uniform(1000)));
    model[Key(k)] = value;
    Hash256 root;
    ASSERT_TRUE(tree.Put(w->retained.back().first, Key(k), value, &root).ok());
    w->retained.emplace_back(root, std::move(model));
    if (w->retained.size() > kRetain) w->retained.pop_front();
    if (seal) store->OnBlockSealed();
  }
}

// One GC pass over everything but the retained versions.
Status CollectAllButRetained(FileChunkStore* store, const PosTree& tree,
                             Workload* w, ChunkGcStats* stats) {
  const uint64_t mark = store->BeginGc();
  w->live.clear();
  for (const auto& [root, model] : w->retained) {
    Status s = tree.CollectChunks(root, &w->live);
    if (!s.ok()) return s;
  }
  return store->RetainLive(w->live, mark, stats);
}

// Bulk-builds the first version, kWorkloadKeys keys in full records.
void StartWorkload(FileChunkStore* store, const PosTree& tree, Workload* w) {
  std::vector<PosEntry> entries;
  std::map<std::string, std::string> model;
  for (int i = 0; i < kWorkloadKeys; i++) {
    entries.push_back({Key(i), Value(i, 0)});
    model[Key(i)] = Value(i, 0);
  }
  Hash256 root;
  ASSERT_TRUE(tree.Build(entries, &root).ok());
  store->OnBlockSealed();
  w->retained.emplace_back(root, std::move(model));
}

// GC passes between rounds of writes: every chunk of a dropped version
// is gone from the store's view, every retained version reads from a
// cold cache (so no live delta names a base a pass unpublished), and a
// reopen verifies them all.
TEST_F(DeltaChunkTest, GcKeepsEveryLiveDeltaReadableAndReopenVerifies) {
  BufferCache cache(1 << 20);
  FileChunkStore::Options options;
  options.segment_bytes = 16 << 10;
  options.cache = &cache;
  Workload w;
  uint64_t deleted = 0;
  uint64_t rewritten = 0;
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(Env::Default(), dir_, options, &store)
                    .ok());
    PosTree tree(store.get());
    Random rnd(21);
    StartWorkload(store.get(), tree, &w);
    for (int round = 0; round < 8; round++) {
      std::unordered_set<Hash256, Hash256Hasher> before;
      for (const auto& [root, model] : w.retained) {
        ASSERT_TRUE(tree.CollectChunks(root, &before).ok());
      }
      // The last writes of a round are left in the active segment,
      // which the pass seals itself.
      WriteVersions(store.get(), tree, 20, /*seal=*/true, &rnd, &w);
      WriteVersions(store.get(), tree, 5, /*seal=*/false, &rnd, &w);
      ChunkGcStats stats;
      ASSERT_TRUE(CollectAllButRetained(store.get(), tree, &w, &stats).ok());
      deleted += stats.segments_deleted;
      rewritten += stats.rewritten_bytes;
      for (const Hash256& id : before) {
        if (w.live.count(id) == 0) {
          EXPECT_FALSE(store->Contains(id));
        }
      }
      for (const auto& [root, model] : w.retained) {
        cache.Clear();
        ExpectVersionVerifies(tree, root, model);
      }
    }
    EXPECT_GT(Counter(*store, "chunk.file.delta_records"), 100u);
    ASSERT_TRUE(store->Sync().ok());
  }
  EXPECT_GT(deleted, 0u);
  EXPECT_GT(rewritten, 0u);

  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir_, options, &store).ok());
  PosTree tree(store.get());
  for (const auto& [root, model] : w.retained) {
    cache.Clear();
    ExpectVersionVerifies(tree, root, model);
  }
}

// A flattened delta's superseded copy condemns its segment, which then
// goes no later than the full copy that replaced it: a reopen in
// between keeps the full copy (the later one) and condemns the segment
// again, and after the full copy dies and is collected no copy remains
// on disk that names a base an earlier pass deleted.
TEST_F(DeltaChunkTest, SupersededDeltaCopyGoesNoLaterThanItsFullCopy) {
  Random rnd(13);
  const Chunk base(ChunkType::kBlob, RandomBytes(&rnd, 3000));
  std::string changed = base.payload();
  changed.replace(100, 20, RandomBytes(&rnd, 20));
  const Chunk delta(ChunkType::kBlob, changed);
  const Chunk filler(ChunkType::kBlob, RandomBytes(&rnd, 3000));
  FileChunkStore::Options options;
  options.segment_bytes = 3000;  // OnBlockSealed rolls after each step
  std::unordered_set<Hash256, Hash256Hasher> live = {delta.id(),
                                                     filler.id()};
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(
        FileChunkStore::Open(Env::Default(), dir_, options, &store).ok());
    store->Put(base);  // segment 1
    store->OnBlockSealed();
    store->Put(delta, &base);  // segment 2, with a live chunk that stays
    store->Put(filler);
    store->OnBlockSealed();
    ASSERT_EQ(Counter(*store, "chunk.file.delta_records"), 1u);
    ASSERT_EQ(store->segment_count(), 3u);

    // The base dies: segment 1 goes, and the delta, in a sealed segment
    // with no dead record, is flattened into segment 3.
    ChunkGcStats stats;
    ASSERT_TRUE(store->RetainLive(live, store->BeginGc(), &stats).ok());
    EXPECT_EQ(stats.segments_deleted, 1u);
    EXPECT_GT(stats.rewritten_bytes, base.payload().size());
    store->OnBlockSealed();
    ASSERT_TRUE(store->Sync().ok());
  }
  {
    std::unique_ptr<FileChunkStore> store;
    Status s = FileChunkStore::Open(Env::Default(), dir_, options, &store);
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::shared_ptr<const Chunk> chunk;
    ASSERT_TRUE(store->Get(delta.id(), &chunk).ok());
    EXPECT_EQ(chunk->payload(), delta.payload());

    // Then the delta dies: its full copy's segment 3 goes, and segment
    // 2, which still holds the superseded delta, with it.
    live.erase(delta.id());
    ChunkGcStats stats;
    ASSERT_TRUE(store->RetainLive(live, store->BeginGc(), &stats).ok());
    EXPECT_EQ(stats.segments_deleted, 2u);
    ASSERT_TRUE(store->Sync().ok());
  }
  std::unique_ptr<FileChunkStore> store;
  Status s = FileChunkStore::Open(Env::Default(), dir_, options, &store);
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::shared_ptr<const Chunk> chunk;
  ASSERT_TRUE(store->Get(filler.id(), &chunk).ok());
  EXPECT_EQ(chunk->payload(), filler.payload());
  EXPECT_FALSE(store->Contains(delta.id()));
}

// A Put that names a stored chunk as its delta base between a GC
// pass's BeginGc and its RetainLive re-references the base: the pass
// keeps it, so the delta reads, and collects the chunk nothing
// re-referenced.
TEST_F(DeltaChunkTest, BaseNamedDuringAPassSurvivesIt) {
  Random rnd(17);
  const Chunk x(ChunkType::kBlob, RandomBytes(&rnd, 3000));
  const Chunk y(ChunkType::kBlob, RandomBytes(&rnd, 3000));
  std::string changed = x.payload();
  changed.replace(100, 20, RandomBytes(&rnd, 20));
  const Chunk delta(ChunkType::kBlob, changed);
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(Env::Default(), dir_,
                                   FileChunkStore::Options(), &store)
                  .ok());
  store->Put(x);
  store->Put(y);
  store->OnBlockSealed();
  const uint64_t mark = store->BeginGc();
  store->Put(delta, &x);
  ASSERT_EQ(Counter(*store, "chunk.file.delta_records"), 1u);
  ChunkGcStats stats;
  ASSERT_TRUE(store->RetainLive({}, mark, &stats).ok());
  EXPECT_TRUE(store->Contains(x.id()));
  EXPECT_FALSE(store->Contains(y.id()));
  EXPECT_EQ(stats.dead_chunks, 1u);
  std::shared_ptr<const Chunk> chunk;
  ASSERT_TRUE(store->Get(delta.id(), &chunk).ok());
  EXPECT_EQ(chunk->payload(), delta.payload());
}

// The full record two rebased deltas sit on dies while they live, in
// segments that hold no dead record: the GC pass flattens both, so they
// read with no base, every retained version reads from a cold cache,
// and a reopen verifies them all.
TEST_F(DeltaChunkTest, GcCollectingAChainsFullRecordFlattensItsRebasedDeltas) {
  constexpr int kCap = FileChunkStore::kMaxChainDepth;
  BufferCache cache(1 << 20);
  FileChunkStore::Options options;
  options.segment_bytes = 1;  // a segment per record
  options.cache = &cache;
  std::unique_ptr<OneLeaf> leaf;
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(
        FileChunkStore::Open(Env::Default(), dir_, options, &store).ok());
    leaf = std::make_unique<OneLeaf>(store.get());
    leaf->Overwrite(2 * kCap + 4);
    ASSERT_EQ(Counter(*store, "chunk.file.delta_rebases"), 2u);

    // Keep the versions from the first rebased one on.
    std::unordered_set<Hash256, Hash256Hasher> live;
    const uint64_t mark = store->BeginGc();
    for (size_t v = kCap + 1; v < leaf->versions.size(); v++) {
      ASSERT_TRUE(leaf->tree.CollectChunks(leaf->root(v), &live).ok());
    }
    ChunkGcStats stats;
    ASSERT_TRUE(store->RetainLive(live, mark, &stats).ok());
    EXPECT_FALSE(store->Contains(leaf->root(0)));
    EXPECT_EQ(stats.dead_chunks, uint64_t{kCap} + 1);
    EXPECT_GT(stats.rewritten_bytes, 0u);
    for (int rebased : {kCap + 1, 2 * kCap + 1}) {
      EXPECT_EQ(ColdChainReads(store.get(), &cache, leaf->root(rebased)), 0u);
      EXPECT_EQ(
          ColdChainReads(store.get(), &cache, leaf->root(rebased + 1)), 1u);
    }
    for (size_t v = kCap + 1; v < leaf->versions.size(); v++) {
      cache.Clear();
      ExpectVersionVerifies(leaf->tree, leaf->root(v),
                            leaf->versions[v].second);
    }
    ASSERT_TRUE(store->Sync().ok());
  }
  std::unique_ptr<FileChunkStore> store;
  Status s = FileChunkStore::Open(Env::Default(), dir_, options, &store);
  ASSERT_TRUE(s.ok()) << s.ToString();
  PosTree tree(store.get(), OneLeaf::Options());
  for (size_t v = kCap + 1; v < leaf->versions.size(); v++) {
    cache.Clear();
    ExpectVersionVerifies(tree, leaf->root(v), leaf->versions[v].second);
  }
}

// A delta names its base by the base's slot in the store's index. A GC
// pass that rewrites bases in place (the full record a chain starts
// from, and the three deltas above it, flattened) leaves the deltas on
// them naming the same slots, so the version past the cap rebases onto
// the nearest flattened one, found by walking those references. A
// reopen replays the deltas before their bases' rewritten copies and
// resolves the references again: the next chain to reach the cap
// rebases onto the same record.
TEST_F(DeltaChunkTest, BaseReferencesSurviveAPassThatRewritesTheirBases) {
  constexpr int kCap = FileChunkStore::kMaxChainDepth;
  BufferCache cache(1 << 20);
  FileChunkStore::Options options;
  options.cache = &cache;
  Random rnd(17);
  const Chunk filler(ChunkType::kBlob, RandomBytes(&rnd, 3000));
  // The base id of the newest record, which must be a delta.
  auto newest_base = [&] {
    const std::string bytes = ReadFile(SegmentPaths(dir_).back());
    const std::vector<Located> records = WalkSegment(bytes);
    EXPECT_FALSE(records.empty());
    if (records.empty()) return Hash256();
    EXPECT_TRUE(records.back().record.delta);
    return records.back().record.base;
  };
  std::unique_ptr<OneLeaf> leaf;
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(
        FileChunkStore::Open(Env::Default(), dir_, options, &store).ok());
    store->Put(filler);  // dies below, taking segment 1 with it
    leaf = std::make_unique<OneLeaf>(store.get());
    leaf->Overwrite(3);
    std::unordered_set<Hash256, Hash256Hasher> live = {filler.id()};
    for (int v = 0; v <= 3; v++) {
      ASSERT_TRUE(leaf->tree.CollectChunks(leaf->root(v), &live).ok());
    }
    // Seals segment 1; nothing is dead.
    ChunkGcStats stats;
    ASSERT_TRUE(store->RetainLive(live, store->BeginGc(), &stats).ok());
    EXPECT_EQ(stats.dead_chunks, 0u);
    leaf->Overwrite(kCap - 3);  // depths 4 .. kCap, in segment 2
    ASSERT_EQ(Counter(*store, "chunk.file.delta_records"), uint64_t{kCap});

    live.erase(filler.id());
    for (int v = 4; v <= kCap; v++) {
      ASSERT_TRUE(leaf->tree.CollectChunks(leaf->root(v), &live).ok());
    }
    ASSERT_TRUE(store->RetainLive(live, store->BeginGc(), &stats).ok());
    EXPECT_EQ(stats.dead_chunks, 1u);
    EXPECT_EQ(stats.segments_deleted, 1u);
    EXPECT_FALSE(store->Contains(filler.id()));
    // Versions 0-3 were rewritten whole; 4 is still a delta on 3.
    EXPECT_EQ(ColdChainReads(store.get(), &cache, leaf->root(3)), 0u);
    EXPECT_EQ(ColdChainReads(store.get(), &cache, leaf->root(4)), 1u);

    leaf->Overwrite(1);
    EXPECT_EQ(Counter(*store, "chunk.file.delta_rebases"), 1u);
    ASSERT_TRUE(store->Sync().ok());
    EXPECT_EQ(newest_base(), leaf->root(3));
    for (const auto& [root, model] : leaf->versions) {
      cache.Clear();
      ExpectVersionVerifies(leaf->tree, root, model);
    }
  }
  // Segment 2's deltas replay before segment 3's rewritten bases.
  std::unique_ptr<FileChunkStore> store;
  Status s = FileChunkStore::Open(Env::Default(), dir_, options, &store);
  ASSERT_TRUE(s.ok()) << s.ToString();
  PosTree tree(store.get(), OneLeaf::Options());
  for (const auto& [root, model] : leaf->versions) {
    cache.Clear();
    ExpectVersionVerifies(tree, root, model);
  }
  // The newest version is a delta on version 3; kCap more overwrites
  // reach the cap again and rebase onto it.
  Hash256 root = leaf->versions.back().first;
  std::map<std::string, std::string> model = leaf->versions.back().second;
  for (int i = 0; i < kCap; i++) {
    const std::string value = "after reopen " + std::to_string(i);
    ASSERT_TRUE(tree.Put(root, Key(5), value, &root).ok());
    model[Key(5)] = value;
  }
  EXPECT_EQ(Counter(*store, "chunk.file.delta_rebases"), 1u);
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(newest_base(), leaf->root(3));
  cache.Clear();
  ExpectVersionVerifies(tree, root, model);
}

// The default environment, except that after `budget` unlinks every
// further DeleteFile fails: a process that died partway through a GC
// pass's unlinks, with everything before them synced. FailOnce fails
// the first unlink of one path alone, as a transient error would.
class UnlinkBudgetEnv : public Env {
 public:
  explicit UnlinkBudgetEnv(int budget) : budget_(budget) {}

  void FailOnce(const std::string& path) { fail_once_ = path; }

  Status NewWritableLog(const std::string& path,
                        std::unique_ptr<WritableLog>* log) override {
    return base_->NewWritableLog(path, log);
  }
  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override {
    return base_->NewRandomAccessFile(path, file);
  }
  Status ReadFileToString(const std::string& path, std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status FileSize(const std::string& path, uint64_t* size) override {
    return base_->FileSize(path, size);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    return base_->ListDir(path, names);
  }
  Status DeleteFile(const std::string& path) override {
    if (path == fail_once_) {
      fail_once_.clear();
      return Status::IOError("unlink failed");
    }
    if (budget_ == 0) return Status::IOError("process died");
    budget_--;
    return base_->DeleteFile(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status SyncDir(const std::string& path) override {
    return base_->SyncDir(path);
  }

 private:
  Env* const base_ = Env::Default();
  int budget_;
  std::string fail_once_;
};

// A crash after a pass's flattening rewrites, with only some of its
// victims unlinked: a delta in a surviving victim may name a base in an
// unlinked one. Open finishes the pass, and every live chunk and every
// retained version is there.
TEST_F(DeltaChunkTest, CrashWithSomeVictimsUnlinkedReopensWithEveryLiveChunk) {
  FileChunkStore::Options options;
  options.segment_bytes = 16 << 10;
  bool finished = false;
  for (int budget = 0; !finished; budget++) {
    SCOPED_TRACE("unlinks before the crash: " + std::to_string(budget));
    ASSERT_LT(budget, 100);
    std::filesystem::remove_all(dir_);
    Workload w;
    {
      // The writes run on the default environment; the pass's unlinks
      // stop after `budget` (the first unlink clears a stale manifest).
      UnlinkBudgetEnv env(budget + 1);
      std::unique_ptr<FileChunkStore> store;
      ASSERT_TRUE(FileChunkStore::Open(&env, dir_, options, &store).ok());
      PosTree tree(store.get());
      Random rnd(33);
      StartWorkload(store.get(), tree, &w);
      WriteVersions(store.get(), tree, 30, /*seal=*/true, &rnd, &w);
      WriteVersions(store.get(), tree, 5, /*seal=*/false, &rnd, &w);
      ChunkGcStats stats;
      finished = CollectAllButRetained(store.get(), tree, &w, &stats).ok();
      if (finished) {
        EXPECT_GT(stats.rewritten_bytes, 0u);
        EXPECT_GT(stats.segments_deleted, 1u);
      }
    }
    BufferCache cache(1 << 20);
    FileChunkStore::Options reopen = options;
    reopen.cache = &cache;
    std::unique_ptr<FileChunkStore> store;
    Status s = FileChunkStore::Open(Env::Default(), dir_, reopen, &store);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/gc-victims"));
    for (const Hash256& id : w.live) {
      std::shared_ptr<const Chunk> chunk;
      Status g = store->Get(id, &chunk);
      ASSERT_TRUE(g.ok()) << g.ToString();
    }
    PosTree tree(store.get());
    for (const auto& [root, model] : w.retained) {
      cache.Clear();
      ExpectVersionVerifies(tree, root, model);
    }
  }
}

// A victim whose unlink fails stays in the segment table, condemned:
// the next pass takes it again and names it in its own manifest, so no
// segment holding deltas on collected bases is left behind, and the
// store reopens with every live chunk and retained version.
TEST_F(DeltaChunkTest, VictimWhoseUnlinkFailedGoesWithTheNextPass) {
  FileChunkStore::Options options;
  options.segment_bytes = 16 << 10;
  const std::string failing = dir_ + "/" + FileChunkStore::SegmentFileName(3);
  Workload w;
  {
    UnlinkBudgetEnv env(INT_MAX);
    env.FailOnce(failing);
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(&env, dir_, options, &store).ok());
    PosTree tree(store.get());
    Random rnd(33);
    StartWorkload(store.get(), tree, &w);
    for (int pass = 0; pass < 2; pass++) {
      WriteVersions(store.get(), tree, 30, /*seal=*/true, &rnd, &w);
      WriteVersions(store.get(), tree, 5, /*seal=*/false, &rnd, &w);
      ChunkGcStats stats;
      const Status s = CollectAllButRetained(store.get(), tree, &w, &stats);
      if (pass == 0) {
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        EXPECT_TRUE(std::filesystem::exists(failing));
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    }
    EXPECT_FALSE(std::filesystem::exists(failing));
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/gc-victims"));
    ASSERT_TRUE(store->Sync().ok());
  }
  BufferCache cache(1 << 20);
  FileChunkStore::Options reopen = options;
  reopen.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  Status s = FileChunkStore::Open(Env::Default(), dir_, reopen, &store);
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (const Hash256& id : w.live) {
    std::shared_ptr<const Chunk> chunk;
    Status g = store->Get(id, &chunk);
    ASSERT_TRUE(g.ok()) << g.ToString();
  }
  PosTree tree(store.get());
  for (const auto& [root, model] : w.retained) {
    cache.Clear();
    ExpectVersionVerifies(tree, root, model);
  }
}

// A crash at every I/O op of a workload that writes deltas and then
// collects: reopen always succeeds, and once the writes were synced
// every retained version is whole, whatever the pass had done.
TEST_F(DeltaChunkTest, CrashAtEveryIoOpOfAGcPassKeepsEveryRetainedVersion) {
  FileChunkStore::Options options;
  options.segment_bytes = 16 << 10;
  // Phases reached before the env died: 1 = all writes synced, 2 = the
  // GC pass completed too.
  auto run_workload = [&](FaultInjectionEnv* env, Workload* w) {
    int phase = 0;
    std::unique_ptr<FileChunkStore> store;
    if (!FileChunkStore::Open(env, dir_, options, &store).ok()) return phase;
    PosTree tree(store.get());
    Random rnd(44);
    StartWorkload(store.get(), tree, w);
    WriteVersions(store.get(), tree, 12, /*seal=*/true, &rnd, w);
    WriteVersions(store.get(), tree, 3, /*seal=*/false, &rnd, w);
    if (!store->Sync().ok()) return phase;
    phase = 1;
    ChunkGcStats stats;
    if (CollectAllButRetained(store.get(), tree, w, &stats).ok()) phase = 2;
    return phase;
  };

  uint64_t total_ops = 0;
  {
    FaultInjectionEnv env(Env::Default());
    Workload w;
    ASSERT_EQ(run_workload(&env, &w), 2);
    total_ops = env.ops_seen();
  }
  ASSERT_GT(total_ops, 0u);
  for (CrashMode mode : {CrashMode::kDropUnsynced, CrashMode::kKeepUnsynced}) {
    for (uint64_t op = 0; op < total_ops; op++) {
      SCOPED_TRACE("crash mode " + std::to_string(static_cast<int>(mode)) +
                   ", short write at op " + std::to_string(op));
      std::filesystem::remove_all(dir_);
      FaultInjectionEnv env(Env::Default());
      env.FailAt(op, FaultKind::kShortWrite, /*partial_bytes=*/2);
      Workload w;
      const int phase = run_workload(&env, &w);
      EXPECT_LT(phase, 2);
      env.Crash();
      ASSERT_TRUE(env.SimulateCrash(mode).ok());
      env.Revive();
      BufferCache cache(1 << 20);
      FileChunkStore::Options reopen = options;
      reopen.cache = &cache;
      std::unique_ptr<FileChunkStore> store;
      Status s = FileChunkStore::Open(&env, dir_, reopen, &store);
      ASSERT_TRUE(s.ok()) << s.ToString();
      if (phase < 1) continue;
      PosTree tree(store.get());
      for (const auto& [root, model] : w.retained) {
        ExpectVersionVerifies(tree, root, model);
      }
    }
  }
}

}  // namespace
}  // namespace spitz
