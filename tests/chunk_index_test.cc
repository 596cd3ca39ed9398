// The chunk index (chunk/chunk_index.h) and the paged store built on
// it: seeded random sequences of puts, dedup hits, erasures and lookups
// checked against a std::unordered_map model, on the index alone
// (growth, slot reuse, probe runs that wrap) and through FileChunkStore
// (delta records naming their bases by slot, GC passes, a reopen); and
// the GC plan over a snapshot of that index (chunk/segment_gc.h),
// checked against a plain statement of the victim rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chunk/buffer_cache.h"
#include "chunk/chunk_index.h"
#include "chunk/file_chunk_store.h"
#include "chunk/segment_gc.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/random.h"

namespace spitz {
namespace {

using Record = ChunkIndex::Record;

// A random id; with `clustered`, its first eight bytes (the table's
// hash) are one of 64 values next to the top of the range, so the
// probe runs are long and wrap past the end of the table.
Hash256 RandomId(Random* rnd, bool clustered) {
  std::string bytes = rnd->Bytes(Hash256::kSize);
  if (clustered) {
    const uint64_t hash = UINT64_MAX - rnd->Uniform(64);
    for (int i = 0; i < 8; i++) bytes[i] = static_cast<char>(hash >> (8 * i));
  }
  return Hash256::FromBytes(bytes);
}

void ExpectSameRecord(const Record& got, const Record& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.depth, want.depth);
  EXPECT_EQ(got.segment, want.segment);
  EXPECT_EQ(got.offset, want.offset);
  EXPECT_EQ(got.length, want.length);
  EXPECT_EQ(got.base, want.base);
}

// Grows the index past 16k records, shrinks it to a few thousand and
// grows it again, with dedup hits and lookups of stored and absent ids
// throughout. A stored record keeps its slot and fields until erased;
// an insert takes a freed slot while there is one, a fresh one after.
TEST(ChunkIndexTest, MatchesAMapModelThroughGrowthAndSlotReuse) {
  for (const bool clustered : {false, true}) {
    SCOPED_TRACE(clustered ? "clustered hashes" : "uniform hashes");
    Random rnd(clustered ? 7 : 5);
    ChunkIndex index;
    std::unordered_map<Hash256, std::pair<uint32_t, Record>, Hash256Hasher>
        model;
    std::vector<Hash256> stored;  // the model's ids, for picking
    std::set<uint32_t> freed;
    uint32_t fresh = 0;  // slots handed out so far
    size_t peak = 0;
    const int steps = clustered ? 6000 : 90000;
    for (int step = 0; step < steps; step++) {
      // Three phases: mostly inserts, mostly erasures, mostly inserts.
      const int phase = 3 * step / steps;
      const uint64_t op = rnd.Uniform(10);
      const uint64_t inserts = phase == 1 ? 2 : 6;
      if (op < inserts || stored.empty()) {
        Record record;
        record.id = RandomId(&rnd, clustered);
        record.seq = static_cast<uint64_t>(step);
        record.depth = rnd.Uniform(9);
        record.segment = static_cast<uint32_t>(rnd.Uniform(100));
        record.offset = static_cast<uint32_t>(rnd.Next());
        record.length = 6 + static_cast<uint32_t>(rnd.Uniform(1 << 20));
        record.base = static_cast<uint32_t>(rnd.Next());
        ASSERT_EQ(index.Find(record.id), ChunkIndex::kNone);
        const uint32_t slot = index.Insert(record);
        if (freed.empty()) {
          EXPECT_EQ(slot, fresh++);
        } else {
          EXPECT_EQ(freed.erase(slot), 1u) << "slot " << slot;
        }
        model[record.id] = {slot, record};
        stored.push_back(record.id);
      } else if (op < inserts + 1) {
        // A dedup hit: the stored id is found where it was put.
        const Hash256& id = stored[rnd.Uniform(stored.size())];
        EXPECT_EQ(index.Find(id), model[id].first);
      } else if (op < (phase == 1 ? 9 : 8)) {
        const size_t pick = rnd.Uniform(stored.size());
        const Hash256 id = stored[pick];
        const uint32_t slot = model[id].first;
        index.Erase(slot);
        freed.insert(slot);
        model.erase(id);
        stored[pick] = stored.back();
        stored.pop_back();
        EXPECT_EQ(index.Find(id), ChunkIndex::kNone);
      } else {
        const Hash256 absent = RandomId(&rnd, clustered);
        EXPECT_EQ(index.Find(absent), ChunkIndex::kNone);
        const Hash256& id = stored[rnd.Uniform(stored.size())];
        const uint32_t slot = index.Find(id);
        ASSERT_EQ(slot, model[id].first);
        ExpectSameRecord(index.at(slot), model[id].second);
      }
      ASSERT_EQ(index.size(), model.size());
      peak = std::max(peak, model.size());
      if (model.size() >= 10000 && model.size() == peak) {
        // Records, table and page list stay within 72 B a record.
        EXPECT_LE(index.bytes(), 72 * index.size());
      }
    }
    if (!clustered) {
      EXPECT_GT(peak, 16384u);
    }

    size_t visited = 0;
    index.ForEach([&](uint32_t slot, const Record& record) {
      visited++;
      auto it = model.find(record.id);
      ASSERT_NE(it, model.end());
      EXPECT_EQ(slot, it->second.first);
      ExpectSameRecord(record, it->second.second);
    });
    EXPECT_EQ(visited, model.size());
    for (const auto& [id, at] : model) {
      EXPECT_EQ(index.Find(id), at.first);
    }
  }
}

class ChunkIndexStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_chunk_index_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Random puts (half of them path copies of a stored chunk, so delta
// records whose chains reach the cap and rebase), dedup hits, lookups
// of stored and absent ids, and GC passes that erase a random part of
// the store, bases of live deltas included; the stored ids then read
// back from a cold cache, and again after a reopen.
TEST_F(ChunkIndexStoreTest, StoreMatchesAMapModelThroughPutsDedupsGcAndReopen) {
  Random rnd(11);
  BufferCache cache(64 << 10);
  FileChunkStore::Options options;
  options.segment_bytes = 32 << 10;
  options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir_, options, &store).ok());
  std::unordered_map<Hash256, Chunk, Hash256Hasher> model;
  std::vector<Hash256> stored;
  std::vector<Chunk> erased;
  Hash256 tip;  // the last path copy

  auto expect_reads = [&](FileChunkStore* s) {
    cache.Clear();
    for (const auto& [id, chunk] : model) {
      std::shared_ptr<const Chunk> got;
      Status status = s->Get(id, &got);
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(got->payload(), chunk.payload());
    }
    for (const Chunk& chunk : erased) {
      if (model.count(chunk.id()) != 0) continue;  // put again since
      EXPECT_FALSE(s->Contains(chunk.id()));
      std::shared_ptr<const Chunk> got;
      EXPECT_TRUE(s->Get(chunk.id(), &got).IsNotFound());
    }
    EXPECT_EQ(s->stats().chunk_count, model.size());
  };

  for (int step = 0; step < 4000; step++) {
    const uint64_t op = rnd.Uniform(20);
    if (op < 8 || stored.empty()) {
      Chunk chunk;
      if (!erased.empty() && rnd.OneIn(8)) {
        chunk = erased[rnd.Uniform(erased.size())];
      } else if (!stored.empty() && rnd.OneIn(2)) {
        // A path copy: a few bytes of a stored chunk changed, mostly of
        // the last path copy, so chains grow to the cap.
        if (model.count(tip) == 0 || rnd.OneIn(4)) {
          tip = stored[rnd.Uniform(stored.size())];
        }
        const Chunk& base = model.at(tip);
        std::string payload = base.payload();
        payload.replace(rnd.Uniform(payload.size() - 8), 8, rnd.Bytes(8));
        chunk = Chunk(ChunkType::kIndexLeaf, payload);
        EXPECT_EQ(store->Put(chunk, &base), chunk.id());
        tip = chunk.id();
        if (model.emplace(chunk.id(), chunk).second) {
          stored.push_back(chunk.id());
        }
        continue;
      } else {
        chunk = Chunk(ChunkType::kIndexLeaf,
                      rnd.Bytes(200 + rnd.Uniform(1800)));
      }
      EXPECT_EQ(store->Put(chunk), chunk.id());
      if (model.emplace(chunk.id(), chunk).second) {
        stored.push_back(chunk.id());
      }
    } else if (op < 10) {
      // A dedup hit appends nothing.
      const uint64_t before = store->stats().chunk_count;
      const Chunk& chunk = model.at(stored[rnd.Uniform(stored.size())]);
      EXPECT_EQ(store->Put(chunk), chunk.id());
      EXPECT_EQ(store->stats().chunk_count, before);
    } else if (op < 17) {
      const Hash256& id = stored[rnd.Uniform(stored.size())];
      std::shared_ptr<const Chunk> got;
      ASSERT_TRUE(store->Get(id, &got).ok());
      EXPECT_EQ(got->payload(), model.at(id).payload());
      EXPECT_FALSE(store->Contains(RandomId(&rnd, false)));
    } else if (op < 19) {
      store->OnBlockSealed();
    } else if (step % 5 == 0) {
      // A GC pass keeps a random two thirds.
      std::unordered_set<Hash256, Hash256Hasher> live;
      std::vector<Hash256> kept;
      for (const Hash256& id : stored) {
        if (rnd.Uniform(3) != 0) {
          live.insert(id);
          kept.push_back(id);
        } else {
          erased.push_back(model.at(id));
          model.erase(id);
        }
      }
      stored = std::move(kept);
      ChunkGcStats gc;
      Status s = store->RetainLive(live, store->BeginGc(), &gc);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(store->stats().chunk_count, model.size());
    }
  }
  MetricsRegistry registry;
  store->ExportMetrics(&registry);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.CounterValue("chunk.file.delta_records"), 100u);
  EXPECT_GT(snap.CounterValue("chunk.file.delta_rebases"), 0u);
  EXPECT_EQ(snap.GaugeValue("chunk.file.index_entries"), model.size());
  expect_reads(store.get());
  ASSERT_TRUE(store->Sync().ok());
  store.reset();

  Status s = FileChunkStore::Open(Env::Default(), dir_, options, &store);
  ASSERT_TRUE(s.ok()) << s.ToString();
  expect_reads(store.get());
}

// --- The GC plan -------------------------------------------------------------

// GcRow::segment of a record held in memory only.
constexpr uint32_t kInMemory = UINT32_MAX;

// What a pass collects, stated plainly. The victims are the segments of
// the dead records and the condemned segments below the active one. A
// live record is rewritten when it sits in a victim, or when it is a
// delta outside them whose base is dead; that delta's old copy then
// condemns its segment, if it has one. The dead go deepest first.
struct Expected {
  std::set<uint32_t> victims;
  std::vector<size_t> rewrites;  // in (segment, offset) order
  std::set<uint32_t> condemned;
  std::vector<size_t> dead;  // in row order
};

Expected StateTheRule(const std::vector<GcRow>& rows,
                      const std::set<uint32_t>& condemned, uint32_t active) {
  std::map<uint32_t, bool> dead_at;
  for (const GcRow& row : rows) dead_at[row.ref] = row.dead;
  Expected want;
  for (const uint32_t id : condemned) {
    if (id < active) want.victims.insert(id);
  }
  for (size_t i = 0; i < rows.size(); i++) {
    if (rows[i].dead) {
      want.victims.insert(rows[i].segment);
      want.dead.push_back(i);
    }
  }
  std::vector<std::tuple<uint32_t, uint32_t, size_t>> rewrites;
  for (size_t i = 0; i < rows.size(); i++) {
    const GcRow& row = rows[i];
    if (row.dead) continue;
    const bool in_victim = want.victims.count(row.segment) != 0;
    const auto base = dead_at.find(row.base);
    const bool flatten = !in_victim && row.depth != 0 &&
                         base != dead_at.end() && base->second;
    if (in_victim || flatten) rewrites.emplace_back(row.segment, row.offset, i);
    if (flatten && row.segment != kInMemory) want.condemned.insert(row.segment);
  }
  std::sort(rewrites.begin(), rewrites.end());
  for (const auto& rewrite : rewrites) {
    want.rewrites.push_back(std::get<2>(rewrite));
  }
  return want;
}

void ExpectPlanFollowsTheRule(const std::vector<GcRow>& rows,
                              const std::set<uint32_t>& condemned,
                              uint32_t active) {
  const GcPlan plan = PlanSegmentGc(rows, condemned, active);
  const Expected want = StateTheRule(rows, condemned, active);
  EXPECT_EQ(plan.victims, want.victims);
  EXPECT_EQ(plan.rewrites, want.rewrites);
  EXPECT_EQ(plan.condemned, want.condemned);
  std::vector<size_t> dead = plan.dead;
  std::sort(dead.begin(), dead.end());
  EXPECT_EQ(dead, want.dead);
  for (size_t i = 1; i < plan.dead.size(); i++) {
    EXPECT_GE(rows[plan.dead[i - 1]].depth, rows[plan.dead[i]].depth);
  }
}

// A random snapshot of a store's index. Its records sit in sealed
// segments, in the active one and later ones (appended after the
// snapshot), or in memory only. Chains of deltas reach kMaxChainDepth;
// a few deltas name a base missing from the snapshot. Only a record in
// a sealed segment is dead. Some segments are condemned, below the
// active one and from it up.
struct Snapshot {
  std::vector<GcRow> rows;  // in ref order
  std::set<uint32_t> condemned;
  uint32_t active = 0;
};

Snapshot RandomSnapshot(Random* rnd) {
  Snapshot snap;
  const uint32_t segments = static_cast<uint32_t>(rnd->Range(1, 12));
  snap.active = static_cast<uint32_t>(rnd->Range(1, segments));
  for (uint32_t id = 1; id <= segments; id++) {
    if (rnd->OneIn(5)) snap.condemned.insert(id);
  }
  const uint64_t dead_eighths = rnd->Range(0, 8);
  std::set<uint32_t> refs;
  std::map<uint32_t, uint32_t> ends;  // each segment's next offset
  std::vector<GcRow> created;         // in creation order
  const size_t n = rnd->Range(0, 400);
  for (size_t i = 0; i < n; i++) {
    GcRow row;
    do {
      row.ref = static_cast<uint32_t>(rnd->Uniform(1 << 20));
    } while (!refs.insert(row.ref).second);
    row.segment = rnd->OneIn(20) ? kInMemory
                                 : static_cast<uint32_t>(rnd->Range(1, segments));
    row.offset = ends[row.segment];
    ends[row.segment] += static_cast<uint32_t>(rnd->Range(1, 4096));
    if (rnd->OneIn(50)) {
      row.depth = 1;
      row.base = (1 << 20) + static_cast<uint32_t>(rnd->Uniform(1000));
    } else if (!created.empty() && rnd->OneIn(2)) {
      // On one of the three newest records, so chains grow deep.
      const GcRow& base =
          created[created.size() - 1 - rnd->Uniform(std::min<size_t>(
                                           created.size(), 3))];
      if (base.depth < FileChunkStore::kMaxChainDepth) {
        row.depth = static_cast<uint8_t>(base.depth + 1);
        row.base = base.ref;
      }
    }
    row.dead = row.segment < snap.active && rnd->Uniform(8) < dead_eighths;
    created.push_back(row);
  }
  snap.rows = created;
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const GcRow& a, const GcRow& b) { return a.ref < b.ref; });
  return snap;
}

// The plan agrees with the plain statement of the rule on random
// snapshots, and the snapshots reach every case the rule has.
TEST(SegmentGcPlanTest, MatchesAPlainStatementOfTheRuleOnRandomSnapshots) {
  size_t flattened = 0, in_memory_flattened = 0, deepest = 0;
  size_t condemned_victims = 0, late_condemned = 0;
  for (uint64_t seed = 1; seed <= 500; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rnd(seed);
    const Snapshot snap = RandomSnapshot(&rnd);
    ExpectPlanFollowsTheRule(snap.rows, snap.condemned, snap.active);
    const GcPlan plan = PlanSegmentGc(snap.rows, snap.condemned, snap.active);
    for (const size_t i : plan.rewrites) {
      const GcRow& row = snap.rows[i];
      if (plan.victims.count(row.segment) != 0) continue;
      flattened++;
      if (row.segment == kInMemory) in_memory_flattened++;
    }
    for (const GcRow& row : snap.rows) {
      if (row.dead && row.depth == FileChunkStore::kMaxChainDepth) deepest++;
    }
    for (const uint32_t id : snap.condemned) {
      (id < snap.active ? condemned_victims : late_condemned)++;
    }
  }
  EXPECT_GT(flattened, 100u);
  EXPECT_GT(in_memory_flattened, 0u);
  EXPECT_GT(deepest, 0u);
  EXPECT_GT(condemned_victims, 0u);
  EXPECT_GT(late_condemned, 0u);
}

// A live delta outside the victims whose base is dead is flattened, and
// its old copy condemns its segment; the live full record beside it
// stays where it is.
TEST(SegmentGcPlanTest, LiveDeltaOnADeadBaseIsFlattenedAndCondemnsItsSegment) {
  const std::vector<GcRow> rows = {
      {.ref = 1, .segment = 1, .offset = 0, .dead = true},
      {.ref = 2, .segment = 2, .offset = 0, .base = 1, .depth = 1},
      {.ref = 3, .segment = 2, .offset = 100},
  };
  const GcPlan plan = PlanSegmentGc(rows, {}, /*active_segment=*/3);
  EXPECT_EQ(plan.victims, std::set<uint32_t>({1}));
  EXPECT_EQ(plan.rewrites, std::vector<size_t>({1}));
  EXPECT_EQ(plan.condemned, std::set<uint32_t>({2}));
  EXPECT_EQ(plan.dead, std::vector<size_t>({0}));
  ExpectPlanFollowsTheRule(rows, {}, 3);
}

// A dead chain comes out deepest first, whatever order its references
// are in, so a base is unpublished after every delta on it.
TEST(SegmentGcPlanTest, DeadChainComesOutDeepestFirst) {
  const std::vector<GcRow> rows = {
      {.ref = 1, .segment = 1, .offset = 0, .base = 3, .depth = 2,
       .dead = true},
      {.ref = 2, .segment = 1, .offset = 50, .dead = true},
      {.ref = 3, .segment = 2, .offset = 0, .base = 2, .depth = 1,
       .dead = true},
      {.ref = 4, .segment = 2, .offset = 80, .base = 1, .depth = 3,
       .dead = true},
  };
  const GcPlan plan = PlanSegmentGc(rows, {}, /*active_segment=*/3);
  EXPECT_EQ(plan.dead, std::vector<size_t>({3, 0, 2, 1}));
  EXPECT_EQ(plan.victims, std::set<uint32_t>({1, 2}));
  EXPECT_TRUE(plan.rewrites.empty());
  EXPECT_TRUE(plan.condemned.empty());
}

// A condemned sealed segment is a victim with no dead record in it: its
// live records are rewritten, in offset order. A condemned segment from
// the active one up waits for a later pass.
TEST(SegmentGcPlanTest, CondemnedSealedSegmentIsAVictimWithNoDeadRecord) {
  const std::vector<GcRow> rows = {
      {.ref = 1, .segment = 2, .offset = 50},
      {.ref = 2, .segment = 2, .offset = 10},
      {.ref = 3, .segment = 4, .offset = 0},
  };
  const GcPlan plan = PlanSegmentGc(rows, {2, 4}, /*active_segment=*/4);
  EXPECT_EQ(plan.victims, std::set<uint32_t>({2}));
  EXPECT_EQ(plan.rewrites, std::vector<size_t>({1, 0}));
  EXPECT_TRUE(plan.condemned.empty());
  EXPECT_TRUE(plan.dead.empty());
}

}  // namespace
}  // namespace spitz
