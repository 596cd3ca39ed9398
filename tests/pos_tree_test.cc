#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/codec.h"
#include "common/random.h"
#include "index/pos_tree.h"

namespace spitz {
namespace {

class PosTreeTest : public ::testing::Test {
 protected:
  ChunkStore store_;
  PosTree tree_{&store_};
};

std::vector<PosEntry> MakeEntries(int n, const std::string& prefix = "key") {
  std::vector<PosEntry> entries;
  for (int i = 0; i < n; i++) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%s%08d", prefix.c_str(), i);
    entries.push_back(PosEntry{buf, "value-" + std::to_string(i)});
  }
  return entries;
}

TEST_F(PosTreeTest, EmptyTree) {
  Hash256 root = PosTree::EmptyRoot();
  std::string value;
  EXPECT_TRUE(tree_.Get(root, "any", &value, nullptr).IsNotFound());
  uint64_t count = 99;
  ASSERT_TRUE(tree_.Count(root, &count).ok());
  EXPECT_EQ(count, 0u);
}

TEST_F(PosTreeTest, BuildAndGetSmall) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(10), &root).ok());
  std::string value;
  ASSERT_TRUE(tree_.Get(root, "key00000003", &value, nullptr).ok());
  EXPECT_EQ(value, "value-3");
  EXPECT_TRUE(tree_.Get(root, "missing", &value, nullptr).IsNotFound());
}

TEST_F(PosTreeTest, BuildAndGetLarge) {
  const int n = 20000;
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(n), &root).ok());
  uint64_t count = 0;
  ASSERT_TRUE(tree_.Count(root, &count).ok());
  EXPECT_EQ(count, static_cast<uint64_t>(n));
  uint32_t height = 0;
  ASSERT_TRUE(tree_.Height(root, &height).ok());
  EXPECT_GE(height, 2u);  // must actually have internal structure
  std::string value;
  for (int i : {0, 1, 4242, 9999, 19999}) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%08d", i);
    ASSERT_TRUE(tree_.Get(root, buf, &value, nullptr).ok()) << i;
    EXPECT_EQ(value, "value-" + std::to_string(i));
  }
}

TEST_F(PosTreeTest, BuildDeduplicatesKeysLastWins) {
  std::vector<PosEntry> entries = {{"k", "first"}, {"k", "second"}};
  Hash256 root;
  ASSERT_TRUE(tree_.Build(entries, &root).ok());
  std::string value;
  ASSERT_TRUE(tree_.Get(root, "k", &value, nullptr).ok());
  EXPECT_EQ(value, "second");
  uint64_t count;
  ASSERT_TRUE(tree_.Count(root, &count).ok());
  EXPECT_EQ(count, 1u);
}

// --- Structural invariance: the SIRI property -----------------------------

// The 50000-entry builds span several workers of every parallel step of
// Build and several of its leaf windows.
TEST_F(PosTreeTest, BulkBuildIsOrderInvariant) {
  for (int n : {5000, 50000}) {
    Random rng(17);
    std::vector<PosEntry> entries = MakeEntries(n);
    Hash256 sorted_root;
    ASSERT_TRUE(tree_.Build(entries, &sorted_root).ok());

    // Shuffle and rebuild.
    for (size_t i = entries.size(); i > 1; i--) {
      std::swap(entries[i - 1], entries[rng.Uniform(i)]);
    }
    Hash256 shuffled_root;
    ASSERT_TRUE(tree_.Build(entries, &shuffled_root).ok());
    EXPECT_EQ(sorted_root, shuffled_root) << n;
  }
}

TEST_F(PosTreeTest, IncrementalInsertMatchesBulkBuild) {
  // THE structural-invariance property: inserting one at a time, in any
  // order, produces bit-identical roots to a bulk build.
  for (int n : {2000, 50000}) {
    Random rng(23);
    std::vector<PosEntry> entries = MakeEntries(n);
    Hash256 bulk_root;
    ASSERT_TRUE(tree_.Build(entries, &bulk_root).ok());

    for (size_t i = entries.size(); i > 1; i--) {
      std::swap(entries[i - 1], entries[rng.Uniform(i)]);
    }
    Hash256 root = PosTree::EmptyRoot();
    for (size_t i = 0; i < entries.size(); i++) {
      ASSERT_TRUE(
          tree_.Put(root, entries[i].key, entries[i].value, &root).ok());
      if (i % 2000 == 1999) {
        // Collect the versions put behind, or the store keeps a path
        // copy of every insert.
        const uint64_t mark = store_.BeginGc();
        std::unordered_set<Hash256, Hash256Hasher> live;
        ASSERT_TRUE(tree_.CollectChunks(root, &live).ok());
        ChunkGcStats stats;
        ASSERT_TRUE(store_.RetainLive(live, mark, &stats).ok());
      }
    }
    EXPECT_EQ(root, bulk_root) << n;
  }
}

TEST_F(PosTreeTest, DeleteRestoresPreviousRoot) {
  Hash256 base;
  ASSERT_TRUE(tree_.Build(MakeEntries(3000), &base).ok());
  Hash256 with_extra;
  ASSERT_TRUE(tree_.Put(base, "zzz-extra", "tmp", &with_extra).ok());
  EXPECT_NE(base, with_extra);
  Hash256 back;
  ASSERT_TRUE(tree_.Delete(with_extra, "zzz-extra", &back).ok());
  EXPECT_EQ(base, back);
}

TEST_F(PosTreeTest, DeleteInMiddleMatchesRebuild) {
  std::vector<PosEntry> entries = MakeEntries(1500);
  Hash256 full;
  ASSERT_TRUE(tree_.Build(entries, &full).ok());
  // Delete a scattering of keys and compare to a bulk build without them.
  std::vector<int> removed = {0, 17, 500, 750, 1333, 1499};
  Hash256 root = full;
  for (int i : removed) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%08d", i);
    ASSERT_TRUE(tree_.Delete(root, buf, &root).ok());
  }
  std::vector<PosEntry> remaining;
  for (int i = 0; i < 1500; i++) {
    bool gone = false;
    for (int r : removed) gone |= (r == i);
    if (!gone) remaining.push_back(entries[i]);
  }
  Hash256 rebuilt;
  ASSERT_TRUE(tree_.Build(remaining, &rebuilt).ok());
  EXPECT_EQ(root, rebuilt);
}

TEST_F(PosTreeTest, UpdateValueChangesRootDeterministically) {
  Hash256 a;
  ASSERT_TRUE(tree_.Build(MakeEntries(100), &a).ok());
  Hash256 b;
  ASSERT_TRUE(tree_.Put(a, "key00000050", "new-value", &b).ok());
  EXPECT_NE(a, b);
  // Same update from the same base must be deterministic.
  Hash256 c;
  ASSERT_TRUE(tree_.Put(a, "key00000050", "new-value", &c).ok());
  EXPECT_EQ(b, c);
}

TEST_F(PosTreeTest, NoOpWriteKeepsRoot) {
  Hash256 a;
  ASSERT_TRUE(tree_.Build(MakeEntries(50), &a).ok());
  Hash256 b;
  ASSERT_TRUE(tree_.Put(a, "key00000010", "value-10", &b).ok());
  EXPECT_EQ(a, b);
}

TEST_F(PosTreeTest, DeleteToEmptyYieldsEmptyRoot) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(5), &root).ok());
  for (int i = 0; i < 5; i++) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%08d", i);
    ASSERT_TRUE(tree_.Delete(root, buf, &root).ok());
  }
  EXPECT_TRUE(root.IsZero());
}

TEST_F(PosTreeTest, DeleteMissingKeyFails) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(10), &root).ok());
  Hash256 out;
  EXPECT_TRUE(tree_.Delete(root, "nope", &out).IsNotFound());
}

// --- Version sharing ---------------------------------------------------------

TEST_F(PosTreeTest, UpdatePathCopiesOnlyLogarithmicNodes) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(50000), &root).ok());
  uint64_t chunks_before = store_.stats().chunk_count;
  Hash256 root2;
  ASSERT_TRUE(tree_.Put(root, "key00025000", "rewritten", &root2).ok());
  uint64_t added = store_.stats().chunk_count - chunks_before;
  // A 50k-entry tree has ~1500 leaves; an update must touch only the
  // path (plus occasional boundary merges), not the whole tree.
  EXPECT_LE(added, 12u);
  EXPECT_GE(added, 2u);
}

TEST_F(PosTreeTest, OldVersionRemainsReadable) {
  Hash256 v1;
  ASSERT_TRUE(tree_.Build(MakeEntries(1000), &v1).ok());
  Hash256 v2;
  ASSERT_TRUE(tree_.Put(v1, "key00000500", "changed", &v2).ok());
  std::string value;
  ASSERT_TRUE(tree_.Get(v1, "key00000500", &value, nullptr).ok());
  EXPECT_EQ(value, "value-500");
  ASSERT_TRUE(tree_.Get(v2, "key00000500", &value, nullptr).ok());
  EXPECT_EQ(value, "changed");
}

// --- Replaced nodes ----------------------------------------------------------

// The ids of every node of the version rooted at `root`.
std::unordered_set<Hash256, Hash256Hasher> NodesOf(const PosTree& tree,
                                                   const Hash256& root) {
  std::unordered_set<Hash256, Hash256Hasher> ids;
  EXPECT_TRUE(tree.CollectChunks(root, &ids).ok());
  return ids;
}

size_t LeavesOf(const ChunkStore& store,
                const std::unordered_set<Hash256, Hash256Hasher>& ids) {
  size_t leaves = 0;
  for (const Hash256& id : ids) {
    std::shared_ptr<const Chunk> chunk;
    EXPECT_TRUE(store.Get(id, &chunk).ok());
    if (chunk != nullptr && chunk->type() == ChunkType::kIndexLeaf) leaves++;
  }
  return leaves;
}

// One write from `old_root`, with everything a replaced-list check
// needs: both versions' node sets and the list the write handed back.
struct ReplacingWrite {
  Hash256 new_root;
  std::vector<Hash256> replaced;
  std::unordered_set<Hash256, Hash256Hasher> old_nodes, new_nodes;

  // The nodes of the old version the new one no longer holds.
  std::unordered_set<Hash256, Hash256Hasher> OldSide() const {
    std::unordered_set<Hash256, Hash256Hasher> ids;
    for (const Hash256& id : old_nodes) {
      if (new_nodes.count(id) == 0) ids.insert(id);
    }
    return ids;
  }
};

// Puts `key` (or deletes it when `value` is nullopt) on `old_root`.
ReplacingWrite Write(const PosTree& tree, const Hash256& old_root,
                     const std::string& key,
                     const std::optional<std::string>& value) {
  ReplacingWrite w;
  const Status s =
      value.has_value()
          ? tree.Put(old_root, key, *value, &w.new_root, &w.replaced)
          : tree.Delete(old_root, key, &w.new_root, &w.replaced);
  EXPECT_TRUE(s.ok()) << s.ToString();
  w.old_nodes = NodesOf(tree, old_root);
  w.new_nodes = NodesOf(tree, w.new_root);
  return w;
}

// The list holds exactly the old side, each id once, and no id of the
// new tree.
void ExpectReplacedIsTheOldSide(const ReplacingWrite& w) {
  const std::unordered_set<Hash256, Hash256Hasher> listed(w.replaced.begin(),
                                                          w.replaced.end());
  EXPECT_EQ(listed.size(), w.replaced.size()) << "an id listed twice";
  for (const Hash256& id : w.replaced) {
    EXPECT_EQ(w.new_nodes.count(id), 0u) << "lists a node of the new tree";
  }
  EXPECT_TRUE(listed == w.OldSide());
}

TEST_F(PosTreeTest, ReplacedListOfAnOverwriteIsThePath) {
  const std::vector<PosEntry> entries = MakeEntries(5000);
  Hash256 root;
  ASSERT_TRUE(tree_.Build(entries, &root).ok());
  uint32_t height = 0;
  ASSERT_TRUE(tree_.Height(root, &height).ok());
  ASSERT_GE(height, 3u);
  // An overwrite that moves no boundary replaces the root-to-leaf path.
  for (size_t i = 0; i < entries.size(); i += 7) {
    const ReplacingWrite w = Write(tree_, root, entries[i].key, "overwritten");
    if (w.new_nodes.size() != w.old_nodes.size() ||
        w.OldSide().size() != height) {
      continue;  // the new value made or broke a boundary
    }
    EXPECT_EQ(w.replaced.size(), height);
    ExpectReplacedIsTheOldSide(w);
    return;
  }
  FAIL() << "no overwrite kept every boundary";
}

TEST_F(PosTreeTest, ReplacedListOfASplitIsTheOldSide) {
  const std::vector<PosEntry> entries = MakeEntries(2000);
  Hash256 root;
  ASSERT_TRUE(tree_.Build(entries, &root).ok());
  const size_t leaves = LeavesOf(store_, NodesOf(tree_, root));
  for (const PosEntry& e : entries) {
    const ReplacingWrite w = Write(tree_, root, e.key + "-split", "inserted");
    if (LeavesOf(store_, w.new_nodes) <= leaves) continue;
    ExpectReplacedIsTheOldSide(w);
    return;
  }
  FAIL() << "no insert split a leaf";
}

TEST_F(PosTreeTest, ReplacedListOfAMergeHoldsTheConsumedSibling) {
  const std::vector<PosEntry> entries = MakeEntries(2000);
  Hash256 root;
  ASSERT_TRUE(tree_.Build(entries, &root).ok());
  uint32_t height = 0;
  ASSERT_TRUE(tree_.Height(root, &height).ok());
  const size_t leaves = LeavesOf(store_, NodesOf(tree_, root));
  // Deleting the entry that closes a leaf merges the leaf into its
  // right sibling, which the write consumes too.
  for (const PosEntry& e : entries) {
    const ReplacingWrite w = Write(tree_, root, e.key, std::nullopt);
    if (LeavesOf(store_, w.new_nodes) >= leaves) continue;
    EXPECT_GT(w.replaced.size(), height);
    ExpectReplacedIsTheOldSide(w);
    return;
  }
  FAIL() << "no delete merged two leaves";
}

// A write that shrinks the tree collapses a root of one child into that
// child without storing it: the list is the old side, and the write
// stores no node the new version does not hold.
TEST_F(PosTreeTest, ReplacedListOfACollapseIsTheOldSide) {
  const std::vector<PosEntry> entries = MakeEntries(300);
  Hash256 root;
  ASSERT_TRUE(tree_.Build(entries, &root).ok());
  size_t collapses = 0;
  for (const PosEntry& e : entries) {
    uint32_t before = 0, after = 0;
    ASSERT_TRUE(tree_.Height(root, &before).ok());
    const uint64_t chunks = store_.stats().chunk_count;
    const ReplacingWrite w = Write(tree_, root, e.key, std::nullopt);
    ExpectReplacedIsTheOldSide(w);
    size_t new_side = 0;
    for (const Hash256& id : w.new_nodes) {
      new_side += w.old_nodes.count(id) == 0;
    }
    EXPECT_LE(store_.stats().chunk_count - chunks, new_side);
    ASSERT_TRUE(tree_.Height(w.new_root, &after).ok());
    collapses += after < before;
    root = w.new_root;
  }
  EXPECT_TRUE(root.IsZero());
  EXPECT_GT(collapses, 0u);
}

TEST_F(PosTreeTest, ReplacedListOfANoOpOrFailedWriteIsEmpty) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(50), &root).ok());
  std::vector<Hash256> replaced;
  Hash256 out;
  ASSERT_TRUE(tree_.Put(root, "key00000010", "value-10", &out, &replaced).ok());
  EXPECT_EQ(out, root);
  EXPECT_TRUE(tree_.Delete(root, "absent", &out, &replaced).IsNotFound());
  // The first entry of an empty tree replaces nothing either.
  ASSERT_TRUE(tree_.Put(PosTree::EmptyRoot(), "k", "v", &out, &replaced).ok());
  EXPECT_TRUE(replaced.empty());
}

// A store whose Get of one id fails, as an unreadable chunk does.
class FailingGetStore : public ChunkStore {
 public:
  Status Get(const Hash256& id,
             std::shared_ptr<const Chunk>* chunk) const override {
    if (id == failing) return Status::IOError("injected read error");
    return ChunkStore::Get(id, chunk);
  }

  Hash256 failing;  // zero: every read succeeds
};

// The ids of the nodes one level above the leaves of `root`, in key
// order.
std::vector<Hash256> LeafParents(const ChunkStore& store,
                                 const Hash256& root) {
  std::vector<Hash256> level{root}, below;
  while (true) {
    below.clear();
    for (const Hash256& id : level) {
      std::shared_ptr<const Chunk> chunk;
      std::shared_ptr<const PosNode> node;
      EXPECT_TRUE(store.Get(id, &chunk).ok());
      EXPECT_TRUE(PosNode::Decode(chunk, &node).ok());
      if (node->is_leaf()) return {};
      for (size_t i = 0; i < node->child_count(); i++) {
        below.push_back(node->child_id(i));
      }
    }
    std::shared_ptr<const Chunk> first;
    EXPECT_TRUE(store.Get(below.front(), &first).ok());
    if (first->type() == ChunkType::kIndexLeaf) return level;
    level.swap(below);
  }
}

// A delete whose re-chunking must read the node to the right of the
// written leaf's parent, and cannot, fails: it never returns a root
// other than the bulk build of the entries left. Alone, and in batches
// of 2 and 16 writes that also overwrite the keys just before it.
TEST_F(PosTreeTest, WriteThatCannotReadASiblingFailsOrEqualsTheBulkBuild) {
  const PosTreeOptions options{2, 1, 256};
  const std::vector<PosEntry> entries = MakeEntries(3000);
  FailingGetStore store;
  PosTree tree(&store, options);
  Hash256 root;
  ASSERT_TRUE(tree.Build(entries, &root).ok());
  const std::vector<Hash256> parents = LeafParents(store, root);
  ASSERT_GT(parents.size(), 2u);
  for (size_t batch_size : {1, 2, 16}) {
    SCOPED_TRACE(batch_size);
    size_t failed = 0, succeeded = 0;
    for (size_t k = 0; k < entries.size(); k += 7) {
      SCOPED_TRACE(entries[k].key);
      store.failing = Hash256();
      std::string value;
      PosProof path;
      ASSERT_TRUE(tree.Get(root, entries[k].key, &value, &path).ok());
      ASSERT_GE(path.nodes.size(), 2u);
      const ProofNode& parent = path.nodes[path.nodes.size() - 2];
      const Hash256 parent_id =
          Chunk::IdOf(static_cast<ChunkType>(parent.type), parent.payload);
      auto at = std::find(parents.begin(), parents.end(), parent_id);
      ASSERT_NE(at, parents.end());
      if (at + 1 == parents.end()) continue;
      std::vector<PosEntry> rest = entries;
      IndexWrites writes{{{entries[k].key, ""}}, {true}};
      for (size_t j = 1; j < batch_size && j <= k; j++) {
        rest[k - j].value = "batch";
        writes.entries.push_back(rest[k - j]);
        writes.erase.push_back(false);
      }
      rest.erase(rest.begin() + k);
      store.failing = *(at + 1);
      Hash256 new_root;
      const Status s = batch_size == 1
                           ? tree.Delete(root, entries[k].key, &new_root)
                           : tree.Apply(root, writes, &new_root);
      store.failing = Hash256();
      if (!s.ok()) {
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        failed++;
        continue;
      }
      ChunkStore clean;
      Hash256 built;
      ASSERT_TRUE(PosTree(&clean, options).Build(rest, &built).ok());
      EXPECT_EQ(new_root, built);
      succeeded++;
    }
    EXPECT_GT(failed, 0u);
    EXPECT_GT(succeeded, 0u);
  }
}

// --- One write routine -------------------------------------------------------

// A store that records every Put: the chunk's id and its base's (zero
// for none), in order.
class RecordingStore : public ChunkStore {
 public:
  Hash256 Put(Chunk chunk, const Chunk* base) override {
    puts.emplace_back(chunk.id(), base == nullptr ? Hash256() : base->id());
    return ChunkStore::Put(std::move(chunk), base);
  }

  std::vector<std::pair<Hash256, Hash256>> puts;
};

// A bulk build, then 2 000 seeded single-key inserts and overwrites, hand
// the store the chunks and delta bases that the path-copy Put handed it
// before Put became a one-op Apply: the same root, and the same
// (chunk id, base id) for every Put of a node the write's version
// holds, in order. (The path copy also stored a root that shrank to one
// child and then collapsed it away; Apply stores no such node.) Once
// with the default options, once with cap-dominated cuts.
TEST_F(PosTreeTest, SingleKeyWritesStoreTheChunksAndBasesOfThePathCopy) {
  struct Pin {
    PosTreeOptions options;
    const char* root;
    const char* puts;
  };
  const Pin pins[] = {
      {PosTreeOptions(),
       "d20c29b37870380d8fcb91689af72a9b437dbe040b4bab971b560bb07883e191",
       "47489f0e719a434481cb3784a9022bb46bd828cc7721f55f21fbd51ee957a75c"},
      {PosTreeOptions{10, 10, 4},
       "5fed4b22b11b85afb2634883215725abfa12ecc1abcc1c4e77c7d3f7fed9597e",
       "91c62809283d35892e92bbcddbc6f7eb7908aa79fdcf27571d012e1b48084348"},
  };
  for (const Pin& pin : pins) {
    RecordingStore store;
    PosTree tree(&store, pin.options);
    Random rnd(20261020);
    Hash256 root;
    ASSERT_TRUE(tree.Build(MakeEntries(3000), &root).ok());
    std::string puts;  // (id, base id) per Put of a held node
    auto record = [&] {
      const std::unordered_set<Hash256, Hash256Hasher> held =
          NodesOf(tree, root);
      for (const auto& [id, base] : store.puts) {
        if (held.count(id) != 0) puts += id.ToBytes() + base.ToBytes();
      }
      store.puts.clear();
    };
    record();
    for (int i = 0; i < 2000; i++) {
      char key[32];
      snprintf(key, sizeof(key), "key%08d",
               static_cast<int>(rnd.Uniform(6000)));
      ASSERT_TRUE(
          tree.Put(root, key, rnd.Bytes(rnd.Range(1, 40)), &root).ok());
      record();
    }
    EXPECT_EQ(root.ToHex(), pin.root);
    EXPECT_EQ(Hash256::Of(puts).ToHex(), pin.puts);
  }
}

// One batch applied in one pass reaches the root that applying its ops
// one at a time reaches, and the bulk build of the entries left; lists
// as replaced exactly the nodes of the old version the new one no
// longer holds; and hands the store only nodes of the new version.
// Seeded batches of 1 to 256 writes mix inserts, overwrites, deletes of
// present and absent keys and keys written twice, then shrink the tree
// through one leaf to empty. Once with the default options, once with
// cap-dominated cuts.
TEST_F(PosTreeTest, ApplyMatchesSequentialWritesAndTheBulkBuild) {
  for (const PosTreeOptions& options :
       {PosTreeOptions(), PosTreeOptions{10, 10, 4}}) {
    for (size_t batch_size : {1, 2, 16, 64, 256}) {
      SCOPED_TRACE(testing::Message() << "cap " << options.max_node_elements
                                      << " batch " << batch_size);
      RecordingStore store;
      PosTree tree(&store, options);
      Random rnd(batch_size);
      auto entries_of = [](const std::map<std::string, std::string>& map) {
        std::vector<PosEntry> entries;
        for (const auto& [k, v] : map) entries.push_back({k, v});
        return entries;
      };
      auto key_of = [](uint64_t i) {
        char key[16];
        snprintf(key, sizeof(key), "k%06d", static_cast<int>(i));
        return std::string(key);
      };
      std::map<std::string, std::string> oracle;
      for (int i = 0; i < 600; i++) oracle[key_of(rnd.Uniform(900))] = "v";
      Hash256 root;
      ASSERT_TRUE(tree.Build(entries_of(oracle), &root).ok());
      bool one_leaf = false;
      for (int round = 0; !oracle.empty(); round++) {
        ASSERT_LT(round, 2000);
        const bool shrink = round >= 24;
        IndexWrites writes;
        for (size_t i = 0; i < batch_size; i++) {
          std::string key = key_of(rnd.Uniform(900));
          if (!writes.entries.empty() && rnd.OneIn(5)) {
            key = writes.entries[rnd.Uniform(writes.entries.size())].key;
          } else if (shrink && !oracle.empty()) {
            auto it = oracle.lower_bound(key);
            key = it == oracle.end() ? oracle.begin()->first : it->first;
          }
          const bool erase = shrink ? !rnd.OneIn(10) : rnd.OneIn(3);
          writes.entries.push_back({key, erase ? "" : rnd.Bytes(1 + i % 8)});
          writes.erase.push_back(erase);
        }
        const Hash256 old_root = root;
        Hash256 sequential = old_root;
        for (size_t i = 0; i < writes.entries.size(); i++) {
          const PosEntry& e = writes.entries[i];
          if (writes.erase[i]) {
            const Status s = tree.Delete(sequential, e.key, &sequential);
            ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
            oracle.erase(e.key);
          } else {
            ASSERT_TRUE(tree.Put(sequential, e.key, e.value, &sequential).ok());
            oracle[e.key] = e.value;
          }
        }
        store.puts.clear();
        std::vector<Hash256> replaced;
        ASSERT_TRUE(tree.Apply(old_root, writes, &root, &replaced).ok());
        ASSERT_EQ(root, sequential) << "round " << round;
        Hash256 built;
        ASSERT_TRUE(tree.Build(entries_of(oracle), &built).ok());
        ASSERT_EQ(root, built) << "round " << round;

        ReplacingWrite w{root, replaced, NodesOf(tree, old_root),
                         NodesOf(tree, root)};
        ExpectReplacedIsTheOldSide(w);
        for (const auto& [id, base] : store.puts) {
          EXPECT_EQ(w.new_nodes.count(id), 1u) << "stored a node of no version";
        }
        uint32_t height = 0;
        ASSERT_TRUE(tree.Height(root, &height).ok());
        one_leaf |= height == 1;
      }
      EXPECT_TRUE(root.IsZero());
      if (batch_size == 1) {
        EXPECT_TRUE(one_leaf);
      }
    }
  }
}

// --- Decoded nodes: one offset per element, read in place --------------------

// `size` bytes starting with `first`.
std::string SizedField(char first, size_t size) {
  std::string field(size, 'f');
  if (size > 0) field[0] = first;
  return field;
}

// Entries in key order whose keys and values take every length-prefix
// width: 1 and 127 bytes (a 1-byte varint), 128 (2 bytes) and 16 384
// (3 bytes), and empty values.
std::vector<PosEntry> WideEntries() {
  std::vector<PosEntry> entries;
  char first = 'a';
  for (size_t key_size : {1, 127, 128, 16384}) {
    for (size_t value_size : {0, 127, 128, 16384}) {
      entries.push_back(PosEntry{SizedField(first++, key_size),
                                 SizedField('v', value_size)});
    }
  }
  return entries;
}

// A meta node's bytes: a varint count, then lp(last key), the id and a
// varint entry count per child.
std::string MetaPayload(const std::vector<PosChildRef>& children) {
  std::string out;
  PutVarint64(&out, children.size());
  for (const PosChildRef& c : children) {
    PutLengthPrefixedSlice(&out, c.last_key);
    out.append(c.id.ToBytes());
    PutVarint64(&out, c.count);
  }
  return out;
}

// Expects every accessor of leaf `node` to read `entries` back.
void ExpectLeafHolds(const PosNode& node,
                     const std::vector<PosEntry>& entries) {
  ASSERT_TRUE(node.is_leaf());
  ASSERT_EQ(node.entry_count(), entries.size());
  for (size_t i = 0; i < entries.size(); i++) {
    EXPECT_TRUE(node.key(i) == Slice(entries[i].key)) << "entry " << i;
    EXPECT_TRUE(node.value(i) == Slice(entries[i].value)) << "entry " << i;
    EXPECT_TRUE(node.entry(i) == entries[i]) << "entry " << i;
    EXPECT_EQ(node.LowerBound(entries[i].key), i);
  }
}

TEST_F(PosTreeTest, LeafAccessorsReadEveryPrefixWidthAsTheEntryListDecodes) {
  std::string payload;
  PutEntryList(&payload, WideEntries());
  Slice input(payload);
  std::vector<PosEntry> decoded;
  ASSERT_TRUE(GetEntryList(&input, &decoded).ok());
  std::shared_ptr<const PosNode> node;
  ASSERT_TRUE(
      PosNode::Decode(ChunkType::kIndexLeaf, payload, nullptr, &node).ok());
  ExpectLeafHolds(*node, decoded);
}

TEST_F(PosTreeTest, MetaAccessorsReadEveryPrefixWidth) {
  std::vector<PosChildRef> children;
  const uint64_t counts[] = {1, 127, 128, 16384, uint64_t{1} << 40};
  char first = 'a';
  for (size_t key_size : {1, 127, 128, 16384, 200}) {
    PosChildRef c;
    c.last_key = SizedField(first, key_size);
    c.id = Hash256::Of(c.last_key);
    c.count = counts[first - 'a'];
    children.push_back(std::move(c));
    first++;
  }
  const std::string payload = MetaPayload(children);
  std::shared_ptr<const PosNode> node;
  ASSERT_TRUE(
      PosNode::Decode(ChunkType::kIndexMeta, payload, nullptr, &node).ok());
  ASSERT_FALSE(node->is_leaf());
  ASSERT_EQ(node->child_count(), children.size());
  const std::vector<PosChildRef> copied = node->children();
  ASSERT_EQ(copied.size(), children.size());
  for (size_t i = 0; i < children.size(); i++) {
    EXPECT_TRUE(node->last_key(i) == Slice(children[i].last_key));
    EXPECT_EQ(node->child_id(i), children[i].id);
    const PosChildRef ref = node->child(i);
    EXPECT_EQ(ref.last_key, children[i].last_key);
    EXPECT_EQ(ref.id, children[i].id);
    EXPECT_EQ(ref.count, children[i].count);
    EXPECT_EQ(copied[i].last_key, children[i].last_key);
    EXPECT_EQ(copied[i].id, children[i].id);
    EXPECT_EQ(copied[i].count, children[i].count);
    EXPECT_EQ(node->Route(children[i].last_key), i);
  }
}

TEST_F(PosTreeTest, WideKeysAndValuesReadBackThroughEveryTreeNode) {
  // Two entries per leaf and per meta on average, so the wide keys are
  // the last keys of metas on several levels too.
  PosTreeOptions options;
  options.leaf_pattern_bits = 1;
  options.meta_pattern_bits = 1;
  ChunkStore store;
  PosTree tree(&store, options);
  const std::vector<PosEntry> entries = WideEntries();
  Hash256 root;
  ASSERT_TRUE(tree.Build(entries, &root).ok());
  uint32_t height = 0;
  ASSERT_TRUE(tree.Height(root, &height).ok());
  EXPECT_GE(height, 3u);
  for (const PosEntry& e : entries) {
    std::string value;
    PosProof proof;
    ASSERT_TRUE(tree.Get(root, e.key, &value, &proof).ok());
    EXPECT_TRUE(value == e.value);
    EXPECT_TRUE(VerifyPosProof(root, e.key, e.value, proof).ok());
  }
  std::vector<PosEntry> out;
  PosRangeProof range;
  ASSERT_TRUE(tree.Scan(root, "", "", 0, &out, &range).ok());
  EXPECT_TRUE(out == entries);
  EXPECT_TRUE(VerifyPosRangeProof(root, "", "", 0, out, range).ok());
  uint64_t count = 0;
  ASSERT_TRUE(tree.Count(root, &count).ok());
  EXPECT_EQ(count, entries.size());
}

TEST_F(PosTreeTest, LeafPastSixtyFourKibHasOffsetsPastSixteenBits) {
  std::vector<PosEntry> entries = MakeEntries(80);
  for (PosEntry& e : entries) e.value = SizedField('v', 1024) + e.value;
  std::string payload;
  PutEntryList(&payload, entries);
  ASSERT_GT(payload.size(), size_t{1} << 16);
  std::shared_ptr<const PosNode> node;
  ASSERT_TRUE(
      PosNode::Decode(ChunkType::kIndexLeaf, payload, nullptr, &node).ok());
  EXPECT_GT(static_cast<size_t>(node->key(79).data() - payload.data()),
            size_t{1} << 16);
  ExpectLeafHolds(*node, entries);

  // The same leaf through a tree: one leaf, read and proven per key.
  PosTreeOptions options;
  options.leaf_pattern_bits = 30;
  ChunkStore store;
  PosTree tree(&store, options);
  Hash256 root;
  ASSERT_TRUE(tree.Build(entries, &root).ok());
  uint32_t height = 0;
  ASSERT_TRUE(tree.Height(root, &height).ok());
  EXPECT_EQ(height, 1u);
  for (const PosEntry& e : entries) {
    std::string value;
    PosProof proof;
    ASSERT_TRUE(tree.Get(root, e.key, &value, &proof).ok());
    EXPECT_EQ(value, e.value);
    EXPECT_TRUE(VerifyPosProof(root, e.key, e.value, proof).ok());
  }
}

TEST_F(PosTreeTest, LowerBoundAndRouteAgreeWithALinearScanAtEveryBoundary) {
  for (const std::vector<PosEntry>& entries :
       {MakeEntries(37), WideEntries()}) {
    std::string leaf_payload;
    PutEntryList(&leaf_payload, entries);
    std::vector<PosChildRef> children;
    for (const PosEntry& e : entries) {
      children.push_back(PosChildRef{e.key, Hash256::Of(e.key), 1});
    }
    const std::string meta_payload = MetaPayload(children);
    std::shared_ptr<const PosNode> leaf, meta;
    ASSERT_TRUE(PosNode::Decode(ChunkType::kIndexLeaf, leaf_payload, nullptr,
                                &leaf)
                    .ok());
    ASSERT_TRUE(PosNode::Decode(ChunkType::kIndexMeta, meta_payload, nullptr,
                                &meta)
                    .ok());
    // Every key, and the keys just below, just above and between them.
    std::vector<std::string> probes = {"", std::string(2, '\xff')};
    for (const PosEntry& e : entries) {
      const std::string& k = e.key;
      probes.push_back(k);
      probes.push_back(k + '\0');
      probes.push_back(k + '\xff');
      probes.push_back(k.substr(0, k.size() - 1));
      std::string below = k;
      below.back() = static_cast<char>(below.back() - 1);
      probes.push_back(below);
      std::string above = k;
      above.back() = static_cast<char>(above.back() + 1);
      probes.push_back(above);
    }
    for (const std::string& probe : probes) {
      size_t linear = 0;
      while (linear < entries.size() &&
             Slice(entries[linear].key).compare(probe) < 0) {
        linear++;
      }
      EXPECT_EQ(leaf->LowerBound(probe), linear)
          << "probe of " << probe.size();
      EXPECT_EQ(meta->Route(probe), std::min(linear, entries.size() - 1))
          << "probe of " << probe.size();
    }
  }
}

// --- Oracle-based randomized property test -----------------------------------

struct OracleParams {
  uint64_t seed;
  int ops;
};

// The printed parameter becomes the ctest name ("…/seed1_ops800").
// Without this gtest prints the struct's raw bytes, padding included,
// so the name would change from build to build.
void PrintTo(const OracleParams& p, std::ostream* os) {
  *os << "seed" << p.seed << "_ops" << p.ops;
}

class PosTreeOracleTest : public ::testing::TestWithParam<OracleParams> {};

TEST_P(PosTreeOracleTest, RandomOpsMatchStdMap) {
  ChunkStore store;
  PosTree tree(&store);
  Random rng(GetParam().seed);
  std::map<std::string, std::string> oracle;
  Hash256 root = PosTree::EmptyRoot();

  for (int i = 0; i < GetParam().ops; i++) {
    int action = static_cast<int>(rng.Uniform(10));
    std::string key = "k" + std::to_string(rng.Uniform(300));
    if (action < 6) {  // put
      std::string value = rng.Bytes(rng.Range(1, 30));
      ASSERT_TRUE(tree.Put(root, key, value, &root).ok());
      oracle[key] = value;
    } else if (action < 8) {  // delete
      Status s = tree.Delete(root, key, &root);
      if (oracle.erase(key) > 0) {
        ASSERT_TRUE(s.ok());
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    } else {  // get
      std::string value;
      Status s = tree.Get(root, key, &value, nullptr);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        ASSERT_TRUE(s.IsNotFound());
      } else {
        ASSERT_TRUE(s.ok());
        ASSERT_EQ(value, it->second);
      }
    }
  }

  // Final state must exactly match the oracle, and equal a fresh build.
  uint64_t count = 0;
  ASSERT_TRUE(tree.Count(root, &count).ok());
  EXPECT_EQ(count, oracle.size());
  std::vector<PosEntry> scan;
  ASSERT_TRUE(tree.Scan(root, "", "", 0, &scan, nullptr).ok());
  ASSERT_EQ(scan.size(), oracle.size());
  size_t i = 0;
  for (const auto& [k, v] : oracle) {
    EXPECT_EQ(scan[i].key, k);
    EXPECT_EQ(scan[i].value, v);
    i++;
  }
  std::vector<PosEntry> fresh;
  for (const auto& [k, v] : oracle) fresh.push_back({k, v});
  Hash256 rebuilt;
  ASSERT_TRUE(tree.Build(fresh, &rebuilt).ok());
  EXPECT_EQ(root, rebuilt) << "structural invariance violated";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PosTreeOracleTest,
    ::testing::Values(OracleParams{1, 800}, OracleParams{2, 800},
                      OracleParams{3, 1500}, OracleParams{4, 1500},
                      OracleParams{5, 3000}, OracleParams{6, 3000},
                      OracleParams{7, 500}, OracleParams{8, 5000}));

// --- Scans ---------------------------------------------------------------

TEST_F(PosTreeTest, ScanRange) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(1000), &root).ok());
  std::vector<PosEntry> out;
  ASSERT_TRUE(
      tree_.Scan(root, "key00000100", "key00000110", 0, &out, nullptr).ok());
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().key, "key00000100");
  EXPECT_EQ(out.back().key, "key00000109");
  // A start between two keys lands on the next one.
  out.clear();
  ASSERT_TRUE(
      tree_.Scan(root, "key00000100x", "key00000110", 0, &out, nullptr).ok());
  ASSERT_EQ(out.size(), 9u);
  EXPECT_EQ(out.front().key, "key00000101");

  // A random 5000-key tree scans to exactly its contents, in order.
  Random rng(33);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 5000; i++) {
    oracle[rng.Bytes(rng.Range(4, 10))] = rng.Bytes(8);
  }
  std::vector<PosEntry> entries;
  for (const auto& [k, v] : oracle) entries.push_back({k, v});
  Hash256 random_root;
  ASSERT_TRUE(tree_.Build(entries, &random_root).ok());
  out.clear();
  ASSERT_TRUE(tree_.Scan(random_root, "", "", 0, &out, nullptr).ok());
  EXPECT_EQ(out, entries);
}

TEST_F(PosTreeTest, ScanWithLimit) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(1000), &root).ok());
  std::vector<PosEntry> out;
  ASSERT_TRUE(tree_.Scan(root, "key00000100", "", 25, &out, nullptr).ok());
  ASSERT_EQ(out.size(), 25u);
  EXPECT_EQ(out.front().key, "key00000100");
  EXPECT_EQ(out.back().key, "key00000124");
}

TEST_F(PosTreeTest, ScanOpenEnded) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(100), &root).ok());
  std::vector<PosEntry> out;
  ASSERT_TRUE(tree_.Scan(root, "key00000095", "", 0, &out, nullptr).ok());
  EXPECT_EQ(out.size(), 5u);
  // The whole tree, in order.
  out.clear();
  ASSERT_TRUE(tree_.Scan(root, "", "", 0, &out, nullptr).ok());
  EXPECT_EQ(out, MakeEntries(100));
  // A single-leaf tree.
  Hash256 leaf_root;
  ASSERT_TRUE(tree_.Build(MakeEntries(3), &leaf_root).ok());
  uint32_t height = 0;
  ASSERT_TRUE(tree_.Height(leaf_root, &height).ok());
  ASSERT_EQ(height, 1u);
  out.clear();
  ASSERT_TRUE(tree_.Scan(leaf_root, "", "", 0, &out, nullptr).ok());
  EXPECT_EQ(out, MakeEntries(3));
}

TEST_F(PosTreeTest, ScanEmptyRange) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(100), &root).ok());
  std::vector<PosEntry> out;
  ASSERT_TRUE(tree_.Scan(root, "zzz", "", 0, &out, nullptr).ok());
  EXPECT_TRUE(out.empty());
  // The empty tree has no rows at all.
  ASSERT_TRUE(
      tree_.Scan(PosTree::EmptyRoot(), "", "", 0, &out, nullptr).ok());
  EXPECT_TRUE(out.empty());
}

// --- Point proofs ------------------------------------------------------------

TEST_F(PosTreeTest, MembershipProofVerifies) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(5000), &root).ok());
  std::string value;
  PosProof proof;
  ASSERT_TRUE(tree_.Get(root, "key00002500", &value, &proof).ok());
  EXPECT_EQ(value, "value-2500");
  EXPECT_TRUE(VerifyPosProof(root, "key00002500", value, proof).ok());
}

TEST_F(PosTreeTest, NonMembershipProofVerifies) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(5000), &root).ok());
  std::string value;
  PosProof proof;
  EXPECT_TRUE(
      tree_.Get(root, "key00002500x", &value, &proof).IsNotFound());
  EXPECT_TRUE(
      VerifyPosProof(root, "key00002500x", std::nullopt, proof).ok());
  // Claiming the absent key is present must fail.
  EXPECT_FALSE(VerifyPosProof(root, "key00002500x",
                              std::string("fake"), proof)
                   .ok());
}

TEST_F(PosTreeTest, ProofRejectsWrongValue) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(1000), &root).ok());
  std::string value;
  PosProof proof;
  ASSERT_TRUE(tree_.Get(root, "key00000042", &value, &proof).ok());
  EXPECT_FALSE(
      VerifyPosProof(root, "key00000042", std::string("wrong"), proof)
          .ok());
}

TEST_F(PosTreeTest, ProofRejectsWrongRoot) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(1000), &root).ok());
  std::string value;
  PosProof proof;
  ASSERT_TRUE(tree_.Get(root, "key00000042", &value, &proof).ok());
  EXPECT_FALSE(
      VerifyPosProof(Hash256::Of("evil"), "key00000042", value, proof)
          .ok());
}

TEST_F(PosTreeTest, ProofRejectsTamperedPayload) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(1000), &root).ok());
  std::string value;
  PosProof proof;
  ASSERT_TRUE(tree_.Get(root, "key00000042", &value, &proof).ok());
  ASSERT_GE(proof.nodes.size(), 2u);
  std::string tampered = proof.nodes.back().payload.ToString();
  tampered[3] ^= 0x1;
  proof.nodes.back() = OwnedProofNode(proof.nodes.back().type, tampered);
  EXPECT_FALSE(
      VerifyPosProof(root, "key00000042", value, proof).ok());
}

TEST_F(PosTreeTest, ProofAgainstStaleRootFails) {
  Hash256 v1;
  ASSERT_TRUE(tree_.Build(MakeEntries(1000), &v1).ok());
  Hash256 v2;
  ASSERT_TRUE(tree_.Put(v1, "key00000042", "updated", &v2).ok());
  std::string value;
  PosProof proof;
  ASSERT_TRUE(tree_.Get(v2, "key00000042", &value, &proof).ok());
  // A proof from v2 does not verify against the v1 digest.
  EXPECT_FALSE(VerifyPosProof(v1, "key00000042", value, proof).ok());
}

// --- Range proofs -------------------------------------------------------------

TEST_F(PosTreeTest, RangeProofVerifies) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(10000), &root).ok());
  std::vector<PosEntry> out;
  PosRangeProof proof;
  ASSERT_TRUE(tree_.Scan(root, "key00003000", "key00003100", 0, &out,
                         &proof)
                  .ok());
  ASSERT_EQ(out.size(), 100u);
  EXPECT_TRUE(VerifyPosRangeProof(root, "key00003000", "key00003100", 0,
                                  out, proof)
                  .ok());
}

TEST_F(PosTreeTest, RangeProofRejectsDroppedResult) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(10000), &root).ok());
  std::vector<PosEntry> out;
  PosRangeProof proof;
  ASSERT_TRUE(tree_.Scan(root, "key00003000", "key00003100", 0, &out,
                         &proof)
                  .ok());
  out.erase(out.begin() + 50);  // server drops a row
  EXPECT_FALSE(VerifyPosRangeProof(root, "key00003000", "key00003100",
                                   0, out, proof)
                   .ok());
}

TEST_F(PosTreeTest, RangeProofRejectsModifiedResult) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(10000), &root).ok());
  std::vector<PosEntry> out;
  PosRangeProof proof;
  ASSERT_TRUE(tree_.Scan(root, "key00003000", "key00003100", 0, &out,
                         &proof)
                  .ok());
  out[10].value = "forged";
  EXPECT_FALSE(VerifyPosRangeProof(root, "key00003000", "key00003100",
                                   0, out, proof)
                   .ok());
}

TEST_F(PosTreeTest, RangeProofWithLimitVerifies) {
  Hash256 root;
  ASSERT_TRUE(tree_.Build(MakeEntries(10000), &root).ok());
  std::vector<PosEntry> out;
  PosRangeProof proof;
  ASSERT_TRUE(
      tree_.Scan(root, "key00003000", "", 37, &out, &proof).ok());
  ASSERT_EQ(out.size(), 37u);
  EXPECT_TRUE(
      VerifyPosRangeProof(root, "key00003000", "", 37, out, proof)
          .ok());
}

TEST_F(PosTreeTest, EmptyRangeProofOnEmptyTree) {
  std::vector<PosEntry> out;
  PosRangeProof proof;
  ASSERT_TRUE(tree_.Scan(PosTree::EmptyRoot(), "a", "z", 0, &out,
                         &proof)
                  .ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(
      VerifyPosRangeProof(PosTree::EmptyRoot(), "a", "z", 0, out, proof)
          .ok());
}

}  // namespace
}  // namespace spitz
