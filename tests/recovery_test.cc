// Crash-safety suite for the durability layer (DESIGN.md section 9).
//
// The headline regression here is the torn-tail append-after-garbage
// bug: recovery used to stop replaying at the first torn record but
// then reopened the log in append mode *behind* the garbage, so every
// record written after a crash-truncated tail was permanently invisible
// to all future recoveries. The tests reproduce that write-then-reopen
// cycle for both logs, exercise the CRC detection of corrupted middle
// records, and drive a crash-point harness that kills the database
// after every single I/O operation in turn, asserting that reopen
// recovers exactly the records preceding the last successful sync.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "chunk/file_chunk_store.h"
#include "common/crc32c.h"
#include "common/fault_env.h"
#include "common/record_frame.h"
#include "core/spitz_db.h"
#include "index/pos_tree.h"

namespace spitz {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_recovery_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  SpitzOptions DurableOptions(size_t block_size = 8, Env* env = nullptr) {
    SpitzOptions options;
    options.block_size = block_size;
    options.data_dir = dir_;
    options.env = env;
    return options;
  }

  static void AppendGarbage(const std::string& path) {
    // A torn chunk record: claims 200 payload bytes, provides 3.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put(static_cast<char>(ChunkType::kBlob));
    out.put(static_cast<char>(200));
    out << "xyz";
  }

  static void AppendJournalGarbage(const std::string& path) {
    // A torn journal record: length prefix claims 120 bytes, provides 4.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put(static_cast<char>(120));
    out << "torn";
  }

  static void FlipByteAt(const std::string& path, size_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ 0x40));
  }

  std::string dir_;
};

// --- Env primitives ---------------------------------------------------------

TEST_F(RecoveryTest, WritableLogAppendsAreVolatileUntilSync) {
  FaultInjectionEnv env(Env::Default());
  std::string path = dir_ + "/log";
  {
    std::unique_ptr<WritableLog> log;
    ASSERT_TRUE(env.NewWritableLog(path, &log).ok());
    ASSERT_TRUE(log->Append("hello").ok());
    ASSERT_TRUE(log->Sync().ok());
    ASSERT_TRUE(log->Append("world").ok());
    EXPECT_EQ(env.unsynced_bytes(), 5u);
    ASSERT_TRUE(log->Close().ok());
  }
  ASSERT_TRUE(env.SimulateCrash(CrashMode::kDropUnsynced).ok());
  std::string contents;
  ASSERT_TRUE(env.ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "hello");  // "world" was never synced
}

TEST_F(RecoveryTest, ShortWriteKeepsKernelVisiblePrefix) {
  FaultInjectionEnv env(Env::Default());
  std::string path = dir_ + "/log";
  std::unique_ptr<WritableLog> log;
  ASSERT_TRUE(env.NewWritableLog(path, &log).ok());
  ASSERT_TRUE(log->Append("durable").ok());
  ASSERT_TRUE(log->Sync().ok());
  env.FailAt(env.ops_seen(), FaultKind::kShortWrite, 2);
  EXPECT_TRUE(log->Append("torn-record").IsIOError());
  EXPECT_TRUE(env.fault_fired());
  // The env is dead past the fault.
  EXPECT_TRUE(log->Append("more").IsIOError());
  EXPECT_TRUE(log->Sync().IsIOError());
  log->Close();
  log.reset();
  // The kernel happened to flush everything it got: the torn prefix
  // survives the crash.
  ASSERT_TRUE(env.SimulateCrash(CrashMode::kKeepUnsynced).ok());
  std::string contents;
  ASSERT_TRUE(env.ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "durableto");
}

TEST_F(RecoveryTest, CreateDirFailsOnMissingParent) {
  std::unique_ptr<SpitzDb> db;
  SpitzOptions options = DurableOptions();
  options.data_dir = dir_ + "/no/such/parent";
  Status s = SpitzDb::Open(options, &db);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST_F(RecoveryTest, CreateDirFailsWhenAFileSquatsOnTheDataDir) {
  std::string path = dir_ + "/squatter";
  { std::ofstream out(path); out << "not a directory"; }
  std::unique_ptr<SpitzDb> db;
  SpitzOptions options = DurableOptions();
  options.data_dir = path;
  Status s = SpitzDb::Open(options, &db);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(s.message().find("not a directory"), std::string::npos)
      << s.ToString();
}

// --- Torn-tail append-after-garbage (the data-loss bug) ---------------------

TEST_F(RecoveryTest, ChunkStoreWriteAfterTornTailIsNotLost) {
  std::string store_dir = dir_ + "/chunks";
  Chunk first(ChunkType::kBlob, "first record");
  Chunk second(ChunkType::kBlob, "written after the crash");
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
    store->Put(first);
    ASSERT_TRUE(store->Sync().ok());
  }
  // The crash garbage lands on the tail of the active segment.
  std::string seg1 = store_dir + "/" + FileChunkStore::SegmentFileName(1);
  AppendGarbage(seg1);
  uint64_t size_with_garbage = std::filesystem::file_size(seg1);
  {
    // Recovery must cut the segment back to the last valid record...
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
    EXPECT_EQ(store->recovered_chunks(), 1u);
    EXPECT_EQ(store->truncated_bytes(), size_with_garbage -
              std::filesystem::file_size(seg1));
    EXPECT_GT(store->truncated_bytes(), 0u);
    // ...so that this record lands where replay can reach it.
    store->Put(second);
    ASSERT_TRUE(store->Sync().ok());
  }
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
  EXPECT_EQ(store->recovered_chunks(), 2u);
  EXPECT_TRUE(store->Contains(first.id()));
  EXPECT_TRUE(store->Contains(second.id()))
      << "record appended after a torn tail was stranded behind garbage";
}

TEST_F(RecoveryTest, JournalWriteAfterTornTailIsNotLost) {
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(8), &db).ok());
    for (int i = 0; i < 8; i++) {
      ASSERT_TRUE(db->Put("pre" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db->SyncStorage().ok());
  }
  // One crash tears both logs at once: 5 garbage bytes on each tail.
  AppendJournalGarbage(dir_ + "/journal.log");
  AppendGarbage(dir_ + "/chunks/" + FileChunkStore::SegmentFileName(1));
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(8), &db).ok());
    EXPECT_EQ(db->key_count(), 8u);
    MetricsSnapshot m = db->Metrics();
    EXPECT_EQ(m.CounterValue("chunk.file.truncated_bytes"), 5u);
    EXPECT_EQ(m.CounterValue("core.db.journal.truncated_bytes"), 5u);
    for (int i = 0; i < 8; i++) {
      ASSERT_TRUE(db->Put("post" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db->SyncStorage().ok());
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(8), &db).ok());
  EXPECT_EQ(db->key_count(), 16u)
      << "block persisted after a torn journal tail was lost on reopen";
  std::string value;
  EXPECT_TRUE(db->Get("pre3", &value).ok());
  EXPECT_TRUE(db->Get("post3", &value).ok());
}

// --- CRC detection of corrupted middle records ------------------------------

TEST_F(RecoveryTest, ChunkStoreCorruptedMiddleRecordIsDetected) {
  std::string store_dir = dir_ + "/chunks";
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
    store->Put(Chunk(ChunkType::kBlob, std::string(64, 'a')));
    store->Put(Chunk(ChunkType::kBlob, std::string(64, 'b')));
    ASSERT_TRUE(store->Sync().ok());
  }
  // Inside the first record's payload of segment 1.
  FlipByteAt(store_dir + "/" + FileChunkStore::SegmentFileName(1), 10);
  std::unique_ptr<FileChunkStore> store;
  Status s = FileChunkStore::Open(store_dir, &store);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(RecoveryTest, JournalCorruptedMiddleRecordIsDetected) {
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(4), &db).ok());
    for (int i = 0; i < 8; i++) {  // two sealed blocks
      ASSERT_TRUE(db->Put("k" + std::to_string(i), "honest").ok());
    }
    ASSERT_TRUE(db->SyncStorage().ok());
  }
  // Inside the first block body, past the header frame.
  FlipByteAt(dir_ + "/journal.log", Journal::HeaderFrame().size() + 10);
  std::unique_ptr<SpitzDb> db;
  Status s = SpitzDb::Open(DurableOptions(4), &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(RecoveryTest, ChunkStoreCorruptedCrcIsDetected) {
  std::string store_dir = dir_ + "/chunks";
  std::string seg1 = store_dir + "/" + FileChunkStore::SegmentFileName(1);
  uint64_t first_record_end;
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
    store->Put(Chunk(ChunkType::kBlob, "record one"));
    ASSERT_TRUE(store->Sync().ok());
    first_record_end = std::filesystem::file_size(seg1);
    store->Put(Chunk(ChunkType::kBlob, "record two"));
    ASSERT_TRUE(store->Sync().ok());
  }
  FlipByteAt(seg1, first_record_end - 1);  // last CRC byte of record one
  std::unique_ptr<FileChunkStore> store;
  Status s = FileChunkStore::Open(store_dir, &store);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// --- Short-write injection through the store --------------------------------

TEST_F(RecoveryTest, ChunkStoreShortWriteIsStickyAndRecoverable) {
  FaultInjectionEnv env(Env::Default());
  std::string path = dir_ + "/chunks";
  Chunk durable(ChunkType::kBlob, "synced before the fault");
  Chunk torn(ChunkType::kBlob, "only partially written");
  Chunk after(ChunkType::kBlob, "written after recovery");
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(&env, path, &store).ok());
    store->Put(durable);
    ASSERT_TRUE(store->Sync().ok());
    env.FailAt(env.ops_seen(), FaultKind::kShortWrite, 3);
    store->Put(torn);
    // The failed append is sticky: the store reports it rather than
    // diverging memory from disk silently.
    EXPECT_TRUE(store->status().IsIOError());
    EXPECT_TRUE(store->Sync().IsIOError());
    // In-memory reads still serve the chunk in this process, as they
    // serve every chunk put after the fault, with or without a base,
    // from the store itself: none of it depends on the cache...
    EXPECT_TRUE(store->Contains(torn.id()));
    Chunk with_base(ChunkType::kBlob, "a patch on the synced chunk");
    Chunk without_base(ChunkType::kBlob, "put after the fault");
    store->Put(with_base, &durable);
    store->Put(without_base);
    store->cache()->Clear();
    for (const Chunk* want : {&durable, &torn, &with_base, &without_base}) {
      std::shared_ptr<const Chunk> got;
      ASSERT_TRUE(store->Get(want->id(), &got).ok());
      EXPECT_EQ(got->payload(), want->payload());
    }
    EXPECT_TRUE(store->status().IsIOError());
    EXPECT_TRUE(store->Sync().IsIOError());
  }
  // ...but after a crash that keeps the torn prefix on disk, recovery
  // truncates the partial record and replays only what was intact.
  ASSERT_TRUE(env.SimulateCrash(CrashMode::kKeepUnsynced).ok());
  env.Revive();
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(&env, path, &store).ok());
    EXPECT_EQ(store->recovered_chunks(), 1u);
    EXPECT_TRUE(store->Contains(durable.id()));
    EXPECT_FALSE(store->Contains(torn.id()));
    EXPECT_EQ(store->truncated_bytes(), 3u);
    store->Put(after);
    ASSERT_TRUE(store->Sync().ok());
  }
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(&env, path, &store).ok());
  EXPECT_EQ(store->recovered_chunks(), 2u);
  EXPECT_TRUE(store->Contains(durable.id()));
  EXPECT_TRUE(store->Contains(after.id()));
}

// An in-memory store that records the order in which a bulk build puts
// its distinct chunks.
class PutOrderStore : public ChunkStore {
 public:
  Hash256 Put(Chunk chunk, const Chunk* base = nullptr) override {
    if (!Contains(chunk.id())) order.push_back(chunk.id());
    return ChunkStore::Put(std::move(chunk), base);
  }
  std::vector<Hash256> order;
};

// A short write in the middle of a bulk build. The build writes around
// the cache, yet every chunk it wrote stays readable in this process:
// those appended before the torn one (flushed to the segment, or still
// buffered when the log failed), the torn one, and those after it that
// never reached the log. status() and Sync() report the sticky error.
TEST_F(RecoveryTest, ChunkStoreShortWriteDuringBulkBuildKeepsChunksReadable) {
  std::vector<PosEntry> entries;
  for (int i = 0; i < 20000; i++) {
    entries.push_back({"key" + std::to_string(100000 + i),
                       std::string(100, static_cast<char>('a' + i % 26))});
  }
  PutOrderStore reference;
  Hash256 expected_root;
  ASSERT_TRUE(PosTree(&reference).Build(entries, &expected_root).ok());
  // ~2 MB of chunks: more than one flush's worth precedes the torn one.
  const size_t torn_index = reference.order.size() * 3 / 4;
  const Hash256 torn = reference.order[torn_index];

  FaultInjectionEnv env(Env::Default());
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(&env, dir_ + "/chunks", &store).ok());
  env.FailAt(env.ops_seen() + torn_index, FaultKind::kShortWrite, 3);
  PosTree tree(store.get());
  Hash256 root;
  ASSERT_TRUE(tree.Build(entries, &root).ok());
  EXPECT_EQ(root, expected_root);
  EXPECT_TRUE(env.fault_fired());
  EXPECT_TRUE(store->status().IsIOError());
  EXPECT_TRUE(store->Sync().IsIOError());

  std::shared_ptr<const Chunk> chunk;
  ASSERT_TRUE(store->Get(torn, &chunk).ok());
  std::shared_ptr<const Chunk> want;
  ASSERT_TRUE(reference.Get(torn, &want).ok());
  EXPECT_EQ(chunk->payload(), want->payload());
  int unreadable = 0;
  for (const Hash256& id : reference.order) {
    if (!store->Get(id, &chunk).ok() || !reference.Get(id, &want).ok() ||
        chunk->payload() != want->payload()) {
      unreadable++;
    }
  }
  EXPECT_EQ(unreadable, 0);
  for (size_t i = 0; i < entries.size(); i += 101) {
    std::string value;
    PosProof proof;
    ASSERT_TRUE(tree.Get(root, entries[i].key, &value, &proof).ok());
    EXPECT_TRUE(PosTree::VerifyProof(root, entries[i].key, value, proof).ok());
  }
}

// The default environment, except that once `fail_flush` is set every
// explicit WritableLog::Flush fails and leaves the log's buffered bytes
// where they are. FaultInjectionEnv cannot fail a flush: it passes
// flushes through.
class FlushFaultEnv : public Env {
 public:
  bool fail_flush = false;

  Status NewWritableLog(const std::string& path,
                        std::unique_ptr<WritableLog>* log) override {
    std::unique_ptr<WritableLog> base;
    Status s = base_->NewWritableLog(path, &base);
    if (s.ok()) *log = std::make_unique<Log>(this, std::move(base));
    return s;
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
    return base_->DeleteFile(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status SyncDir(const std::string& path) override {
    return base_->SyncDir(path);
  }

 private:
  class Log : public WritableLog {
   public:
    Log(FlushFaultEnv* env, std::unique_ptr<WritableLog> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Flush() override {
      if (env_->fail_flush) return Status::IOError("injected flush failure");
      return base_->Flush();
    }
    Status Sync() override { return base_->Sync(); }
    Status SyncFlushed() override { return base_->SyncFlushed(); }
    Status Close() override { return base_->Close(); }

   private:
    FlushFaultEnv* const env_;
    std::unique_ptr<WritableLog> base_;
  };

  Env* const base_ = Env::Default();
};

// A failed flush is as sticky as a failed append, and the chunks whose
// records it caught unflushed stay readable in-process from the store
// itself, beside every chunk put afterwards, with the cache cleared.
TEST_F(RecoveryTest, ChunkStoreFailedFlushKeepsUnflushedChunksReadable) {
  FlushFaultEnv env;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(&env, dir_ + "/chunks", &store).ok());
  Chunk durable(ChunkType::kBlob, "synced before the fault");
  Chunk with_base(ChunkType::kBlob, "synced before the fault, patched");
  Chunk without_base(ChunkType::kBlob, "buffered when the flush failed");
  Chunk after(ChunkType::kBlob, "put after the failed flush");
  store->Put(durable);
  ASSERT_TRUE(store->Sync().ok());
  store->Put(with_base, &durable);
  store->Put(without_base);
  env.fail_flush = true;
  EXPECT_TRUE(store->Sync().IsIOError());
  EXPECT_TRUE(store->status().IsIOError());
  store->Put(after);
  store->cache()->Clear();
  for (const Chunk* want : {&durable, &with_base, &without_base, &after}) {
    std::shared_ptr<const Chunk> got;
    ASSERT_TRUE(store->Get(want->id(), &got).ok());
    EXPECT_EQ(got->payload(), want->payload());
  }
  EXPECT_TRUE(store->Sync().IsIOError());
}

// --- GC rewrite crash-point sweep -------------------------------------------
//
// The scripted store workload fills several tiny segments, seals them,
// then garbage-collects down to a quarter of the chunks (which rewrites
// the surviving records of victim segments and unlinks the victims).
// Crash at every I/O op under both crash modes. Reopen must always
// succeed, and whenever the pre-GC sync completed, every retained chunk
// must still be present with intact content afterwards — a GC torn at
// any point may leave duplicate or dead records behind, but must never
// lose a live chunk or poison recovery.

TEST_F(RecoveryTest, ChunkStoreCrashDuringGcRewriteKeepsLiveChunks) {
  constexpr int kChunks = 32;
  std::vector<Chunk> chunks;
  std::unordered_set<Hash256, Hash256Hasher> live;
  for (int i = 0; i < kChunks; i++) {
    chunks.emplace_back(ChunkType::kBlob,
                        std::string(200, static_cast<char>('a' + i % 26)) +
                            std::to_string(i));
    if (i % 4 == 0) live.insert(chunks.back().id());
  }
  FileChunkStore::Options small;
  small.segment_bytes = 1 << 10;
  std::string store_dir = dir_ + "/chunks";

  // Phases reached before the env died: 1 = all puts synced (a fault
  // can then only tear the GC), 2 = GC completed too.
  auto run_workload = [&](FaultInjectionEnv* env) {
    int phase = 0;
    std::unique_ptr<FileChunkStore> store;
    if (!FileChunkStore::Open(env, store_dir, small, &store).ok()) {
      return phase;
    }
    for (int i = 0; i < kChunks; i++) {
      store->Put(chunks[i]);
      if (i % 4 == 3) store->OnBlockSealed();
    }
    if (!store->Sync().ok()) return phase;
    phase = 1;
    uint64_t mark = store->BeginGc();
    ChunkGcStats stats;
    if (store->RetainLive(live, mark, &stats).ok()) phase = 2;
    return phase;
  };

  uint64_t total_ops = 0;
  {
    FaultInjectionEnv env(Env::Default());
    ASSERT_EQ(run_workload(&env), 2);
    total_ops = env.ops_seen();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ASSERT_GT(total_ops, 0u);

  const struct {
    CrashMode mode;
    const char* name;
  } kModes[] = {
      {CrashMode::kDropUnsynced, "drop-unsynced"},
      {CrashMode::kKeepUnsynced, "keep-unsynced"},
  };
  for (const auto& crash : kModes) {
    for (uint64_t op = 0; op < total_ops; op++) {
      SCOPED_TRACE(std::string(crash.name) + ", short-write at op " +
                   std::to_string(op));
      FaultInjectionEnv env(Env::Default());
      env.FailAt(op, FaultKind::kShortWrite, /*partial_bytes=*/2);
      int phase = run_workload(&env);
      EXPECT_TRUE(env.fault_fired());
      EXPECT_LT(phase, 2) << "workload finished past its crash point";
      env.Crash();
      ASSERT_TRUE(env.SimulateCrash(crash.mode).ok());
      env.Revive();
      std::unique_ptr<FileChunkStore> store;
      Status s = FileChunkStore::Open(&env, store_dir, small, &store);
      ASSERT_TRUE(s.ok()) << s.ToString();
      if (phase >= 1) {
        // All 32 chunks were durable when the GC started, so no crash
        // point inside the GC may lose a retained chunk.
        for (int i = 0; i < kChunks; i += 4) {
          std::shared_ptr<const Chunk> chunk;
          Status g = store->Get(chunks[i].id(), &chunk);
          ASSERT_TRUE(g.ok())
              << "GC crash lost live chunk " << i << ": " << g.ToString();
          EXPECT_EQ(chunk->payload(), chunks[i].payload());
        }
      }
      // Whatever survived must be readable: recovery never republishes
      // a chunk it cannot serve.
      for (int i = 0; i < kChunks; i++) {
        if (!store->Contains(chunks[i].id())) continue;
        std::shared_ptr<const Chunk> chunk;
        EXPECT_TRUE(store->Get(chunks[i].id(), &chunk).ok());
      }
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_);
    }
  }
}

TEST_F(RecoveryTest, SyncFaultSurfacesThroughSyncStorage) {
  FaultInjectionEnv env(Env::Default());
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(4, &env), &db).ok());
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(db->Put("k" + std::to_string(i), "v").ok());
  }
  env.FailAt(env.ops_seen(), FaultKind::kFailSync);
  EXPECT_TRUE(db->SyncStorage().IsIOError());
}

// --- The durability contract ------------------------------------------------

TEST_F(RecoveryTest, ReopenAfterSyncRecoversExactlySyncedState) {
  FaultInjectionEnv env(Env::Default());
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(4, &env), &db).ok());
    for (int i = 0; i < 4; i++) {
      ASSERT_TRUE(db->Put("synced" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db->SyncStorage().ok());
    for (int i = 0; i < 4; i++) {
      ASSERT_TRUE(db->Put("volatile" + std::to_string(i), "v").ok());
    }
    // No sync: these entries are sealed and appended but volatile.
    env.Crash();
  }
  ASSERT_TRUE(env.SimulateCrash(CrashMode::kDropUnsynced).ok());
  env.Revive();
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(4, &env), &db).ok());
    EXPECT_EQ(db->key_count(), 4u);
    std::string value;
    EXPECT_TRUE(db->Get("synced2", &value).ok());
    EXPECT_TRUE(db->Get("volatile2", &value).IsNotFound());
    // The recovered database keeps working: a write-sync-reopen cycle
    // loses nothing.
    for (int i = 0; i < 4; i++) {
      ASSERT_TRUE(db->Put("resumed" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db->SyncStorage().ok());
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(4, &env), &db).ok());
  EXPECT_EQ(db->key_count(), 8u);
  std::string value;
  EXPECT_TRUE(db->Get("synced1", &value).ok());
  EXPECT_TRUE(db->Get("resumed3", &value).ok());
}

// --- Crash-point harness ----------------------------------------------------
//
// The scripted workload writes four blocks of four keys, syncing after
// each block. Run once fault-free to count the I/O ops it performs;
// then, for every op index and every fault kind, rerun it with a fault
// armed at that op, materialize the crash, and recover. The recovered
// database must hold exactly the keys covered by the last SyncStorage
// that succeeded before the fault — nothing lost below it, nothing
// resurrected above it, both logs reopened cleanly — and a subsequent
// write-sync-reopen cycle must lose nothing.
//
// The segment budget is tiny so the workload rolls chunk segments
// mid-run: the sweep therefore also lands faults inside a segment
// switch (seal-fsync, new-segment creation, directory sync) and inside
// the store's own creation (a fresh store syncs its directory, so Open
// itself can be the crash point — the harness treats a failed Open as
// zero synced keys and still demands a clean recovery).

constexpr int kBlocksPerRun = 4;
constexpr int kKeysPerBlock = 4;
constexpr size_t kTinySegmentBytes = 1 << 10;

std::string WorkloadKey(int i) { return "wk" + std::to_string(i); }

// Runs the scripted workload, ignoring failures past the crash point.
// Returns the number of keys covered by the last successful sync.
int RunWorkload(SpitzDb* db) {
  int synced_keys = 0;
  for (int b = 0; b < kBlocksPerRun; b++) {
    bool wrote = true;
    for (int i = 0; i < kKeysPerBlock; i++) {
      int k = b * kKeysPerBlock + i;
      wrote = db->Put(WorkloadKey(k), "value" + std::to_string(k)).ok() &&
              wrote;
    }
    if (db->SyncStorage().ok() && wrote) {
      synced_keys = (b + 1) * kKeysPerBlock;
    }
  }
  return synced_keys;
}

TEST_F(RecoveryTest, CommitTimestampsResumeRightAfterTheRecoveredTip) {
  // Recovery adopts journal blocks the way a backup adopts replicated
  // ones: the next commit timestamp follows the last recovered one, as
  // it would have had the database never closed.
  uint64_t last = 0;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    ASSERT_TRUE(db->Put("a", "1").ok());
    ASSERT_TRUE(db->FlushBlock().ok());
    ASSERT_TRUE(db->SyncStorage().ok());
    last = db->Digest().last_commit_ts;
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
  EXPECT_EQ(db->Digest().last_commit_ts, last);
  ASSERT_TRUE(db->Put("b", "2").ok());
  EXPECT_EQ(db->Digest().last_commit_ts, last + 1);
}

TEST_F(RecoveryTest, CrashAfterEveryIoOpRecoversExactlySyncedPrefix) {
  SpitzOptions tiny_segments = DurableOptions(kKeysPerBlock);
  tiny_segments.chunk_segment_bytes = kTinySegmentBytes;
  // Dry run: count the ops the workload performs end to end.
  uint64_t total_ops = 0;
  {
    FaultInjectionEnv env(Env::Default());
    tiny_segments.env = &env;
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(tiny_segments, &db).ok());
    int synced = RunWorkload(db.get());
    ASSERT_EQ(synced, kBlocksPerRun * kKeysPerBlock);
    ASSERT_GT(db->Metrics().CounterValue("chunk.segment.rolls"), 0u)
        << "the sweep is supposed to cover crashes inside segment switches";
    total_ops = env.ops_seen();
    std::filesystem::remove_all(dir_);
  }
  ASSERT_GT(total_ops, 0u);

  const struct {
    FaultKind kind;
    const char* name;
  } kKinds[] = {
      {FaultKind::kFailWrite, "fail-write"},
      {FaultKind::kShortWrite, "short-write"},
      {FaultKind::kFailSync, "fail-sync"},
  };
  for (const auto& fault : kKinds) {
    for (uint64_t op = 0; op < total_ops; op++) {
      SCOPED_TRACE(std::string(fault.name) + " at op " + std::to_string(op));
      std::filesystem::create_directories(dir_);
      FaultInjectionEnv env(Env::Default());
      tiny_segments.env = &env;
      env.FailAt(op, fault.kind, /*partial_bytes=*/2);
      int synced_keys = 0;
      {
        std::unique_ptr<SpitzDb> db;
        Status open_s = SpitzDb::Open(tiny_segments, &db);
        if (open_s.ok()) {
          synced_keys = RunWorkload(db.get());
        }
        EXPECT_TRUE(env.fault_fired());
        env.Crash();
      }
      ASSERT_TRUE(env.SimulateCrash(CrashMode::kDropUnsynced).ok());
      env.Revive();
      {
        // Recovery must succeed — a crash may lose unsynced records but
        // never corrupt the store.
        std::unique_ptr<SpitzDb> db;
        Status s = SpitzDb::Open(tiny_segments, &db);
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(db->key_count(), static_cast<uint64_t>(synced_keys));
        std::string value;
        for (int k = 0; k < synced_keys; k++) {
          EXPECT_TRUE(db->Get(WorkloadKey(k), &value).ok())
              << "lost a record below the durability point: " << k;
          EXPECT_EQ(value, "value" + std::to_string(k));
        }
        for (int k = synced_keys; k < kBlocksPerRun * kKeysPerBlock; k++) {
          EXPECT_TRUE(db->Get(WorkloadKey(k), &value).IsNotFound())
              << "resurrected an unsynced record: " << k;
        }
        // The recovered database must be fully writable: append one
        // more block and sync it.
        for (int i = 0; i < kKeysPerBlock; i++) {
          ASSERT_TRUE(db->Put("extra" + std::to_string(i), "x").ok());
        }
        ASSERT_TRUE(db->SyncStorage().ok());
      }
      {
        // Nothing written after recovery may be lost (the old code
        // failed exactly here: appends behind a torn tail vanished).
        std::unique_ptr<SpitzDb> db;
        ASSERT_TRUE(SpitzDb::Open(tiny_segments, &db).ok());
        EXPECT_EQ(db->key_count(),
                  static_cast<uint64_t>(synced_keys) + kKeysPerBlock);
        std::string value;
        for (int i = 0; i < kKeysPerBlock; i++) {
          EXPECT_TRUE(db->Get("extra" + std::to_string(i), &value).ok());
        }
      }
      std::filesystem::remove_all(dir_);
    }
  }
}

// A crash under kKeepUnsynced (everything handed to the kernel
// survives, including torn prefixes) must also recover cleanly: the
// recovered state is then *at least* the synced prefix and at most
// everything appended, with any torn tail truncated.
TEST_F(RecoveryTest, CrashKeepingUnsyncedDataStillRecovers) {
  SpitzOptions tiny_segments = DurableOptions(kKeysPerBlock);
  tiny_segments.chunk_segment_bytes = kTinySegmentBytes;
  uint64_t total_ops = 0;
  {
    FaultInjectionEnv env(Env::Default());
    tiny_segments.env = &env;
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(tiny_segments, &db).ok());
    RunWorkload(db.get());
    total_ops = env.ops_seen();
    std::filesystem::remove_all(dir_);
  }
  for (uint64_t op = 0; op < total_ops; op++) {
    SCOPED_TRACE("short-write at op " + std::to_string(op));
    std::filesystem::create_directories(dir_);
    FaultInjectionEnv env(Env::Default());
    tiny_segments.env = &env;
    env.FailAt(op, FaultKind::kShortWrite, /*partial_bytes=*/2);
    int synced_keys = 0;
    {
      std::unique_ptr<SpitzDb> db;
      Status open_s = SpitzDb::Open(tiny_segments, &db);
      if (open_s.ok()) {
        synced_keys = RunWorkload(db.get());
      }
      env.Crash();
    }
    ASSERT_TRUE(env.SimulateCrash(CrashMode::kKeepUnsynced).ok());
    env.Revive();
    std::unique_ptr<SpitzDb> db;
    Status s = SpitzDb::Open(tiny_segments, &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_GE(db->key_count(), static_cast<uint64_t>(synced_keys));
    std::string value;
    for (int k = 0; k < synced_keys; k++) {
      EXPECT_TRUE(db->Get(WorkloadKey(k), &value).ok());
    }
    std::filesystem::remove_all(dir_);
  }
}

// --- Group commit under faults ----------------------------------------------
//
// The group-commit pipeline logs the frames of many writers' blocks
// behind one amortized fsync. These tests pin down the two crash-safety
// promises that batching must not weaken: a fault inside a run of frames
// tears it at a frame boundary (never inside one), and a sync Put that
// returned OK survives any crash even though its fsync was shared with
// other writers.

// A bulk load seals five blocks and logs their frames last, one op
// index per frame, so a dry run finds the op of each. A fault armed on
// the third frame tears the load right there: the two frames before it
// reach the file, the faulted one and every later one never do, and
// recovery finds exactly two blocks.
TEST_F(RecoveryTest, FaultTearsGroupAtRecordBoundary) {
  constexpr size_t kBlocks = 5;
  auto rows = [] {
    std::vector<PosEntry> entries;
    for (size_t k = 0; k < 8 * kBlocks; k++) {
      entries.push_back({WorkloadKey(static_cast<int>(k)), "v"});
    }
    std::sort(entries.begin(), entries.end(),
              [](const PosEntry& a, const PosEntry& b) { return a.key < b.key; });
    return entries;
  };
  uint64_t load_ops = 0;
  {
    FaultInjectionEnv dry(Env::Default());
    SpitzOptions options = DurableOptions(8, &dry);
    options.data_dir = dir_ + "/dry";
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
    const uint64_t before = dry.ops_seen();
    ASSERT_TRUE(db->BulkLoad(rows()).ok());
    ASSERT_EQ(db->Digest().journal.block_count, kBlocks);
    load_ops = dry.ops_seen() - before;
    ASSERT_GT(load_ops, kBlocks);
  }

  FaultInjectionEnv env(Env::Default());
  // The header frame, then the frames of blocks 0 and 1.
  std::string expected = Journal::HeaderFrame();
  uint64_t fault_op = 0;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(8, &env), &db).ok());
    fault_op = env.ops_seen() + load_ops - kBlocks + 2;
    env.FailAt(fault_op, FaultKind::kFailWrite);
    EXPECT_TRUE(db->BulkLoad(rows()).IsIOError());
    EXPECT_TRUE(env.fault_fired());
    // The frames before the fault each consumed an op; nothing after
    // the faulted one did.
    EXPECT_EQ(env.ops_seen(), fault_op + 1);
    for (uint64_t h = 0; h < 2; h++) {
      std::string bytes;
      Block block;
      ASSERT_TRUE(db->ledger()->SealedBlock(h, &bytes, &block).ok());
      AppendRecordFrame(bytes, &expected);
    }
  }
  ASSERT_TRUE(env.SimulateCrash(CrashMode::kKeepUnsynced).ok());
  std::string contents;
  ASSERT_TRUE(env.ReadFileToString(dir_ + "/journal.log", &contents).ok());
  EXPECT_EQ(contents, expected);
  env.Revive();
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(8, &env), &db).ok());
  EXPECT_EQ(db->Digest().journal.block_count, 2u);
}

// A failed journal append is sticky inside the journal, even once the
// env is healthy again: SyncStorage and every later sync commit fail,
// the unlogged block still serves and verifies from memory, and a crash
// loses it and everything after it, never block 0.
TEST_F(RecoveryTest, FailedJournalAppendIsStickyAndSurfacesThroughSyncStorage) {
  FaultInjectionEnv env(Env::Default());
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(8, &env), &db).ok());
    for (int k = 0; k < 8; k++) {
      ASSERT_TRUE(db->Put("b0-" + std::to_string(k), "v").ok());
    }
    ASSERT_TRUE(db->SyncStorage().ok());
    for (int k = 0; k < 3; k++) {
      ASSERT_TRUE(db->Put("b1-" + std::to_string(k), "v").ok());
    }
    env.FailAt(env.ops_seen(), FaultKind::kFailWrite);
    Status s = db->FlushBlock();
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_NE(s.ToString().find("journal append failed"), std::string::npos)
        << s.ToString();
    EXPECT_TRUE(env.fault_fired());
    env.Revive();

    s = db->SyncStorage();
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    WriteOptions sync;
    sync.sync = true;
    s = db->Put(sync, "late", "v");
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_NE(s.ToString().find("journal append failed"), std::string::npos)
        << s.ToString();
    EXPECT_TRUE(db->SyncStorage().IsIOError());

    std::vector<SpitzDb::HistoricalWrite> history;
    ASSERT_TRUE(db->ledger()->KeyHistory("b1-0", &history).ok());
    ASSERT_EQ(history.size(), 1u);
    EXPECT_EQ(history[0].block_height, 1u);
    const SpitzDigest digest = db->Digest();
    EXPECT_TRUE(Journal::VerifyEntry(history[0].entry, history[0].proof,
                                     digest.journal)
                    .ok());
    std::string bytes;
    Block block;
    ASSERT_TRUE(db->ledger()->SealedBlock(1, &bytes, &block).ok());
    EXPECT_EQ(block.entries().size(), 3u);
    JournalEntryProof proof;
    LedgerEntry entry;
    ASSERT_TRUE(db->ledger()->ProveHistoricalEntry(1, 0, &proof, &entry).ok());
    EXPECT_EQ(entry.key, "b1-0");
    EXPECT_TRUE(Journal::VerifyEntry(entry, proof, digest.journal).ok());
    EXPECT_GT(db->Metrics().GaugeValue("core.db.journal.resident_bytes"), 0u);
  }
  ASSERT_TRUE(env.SimulateCrash(CrashMode::kDropUnsynced).ok());
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(8, &env), &db).ok());
  EXPECT_EQ(db->Digest().journal.block_count, 1u);
  std::string value;
  for (int k = 0; k < 8; k++) {
    EXPECT_TRUE(db->Get("b0-" + std::to_string(k), &value).ok()) << k;
  }
  for (int k = 0; k < 3; k++) {
    EXPECT_TRUE(db->Get("b1-" + std::to_string(k), &value).IsNotFound()) << k;
  }
  EXPECT_TRUE(db->Get("late", &value).IsNotFound());
}

TEST_F(RecoveryTest, SyncPutIsDurableWithoutExplicitSyncStorage) {
  FaultInjectionEnv env(Env::Default());
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(8, &env), &db).ok());
    WriteOptions sync_opts;
    sync_opts.sync = true;
    // The block is far from full (block_size=8): durability comes from
    // the sync-tail seal inside the commit group, not from a boundary.
    ASSERT_TRUE(db->Put(sync_opts, "promised", "durable").ok());
    env.Crash();
  }
  ASSERT_TRUE(env.SimulateCrash(CrashMode::kDropUnsynced).ok());
  env.Revive();
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(8, &env), &db).ok());
  std::string value;
  EXPECT_TRUE(db->Get("promised", &value).ok())
      << "a sync Put acknowledged OK did not survive the crash";
  EXPECT_EQ(value, "durable");
}

// Concurrent sync writers racing a fault: for every plausible crash
// point, every Put acknowledged OK must be present after recovery, and
// recovery itself must never fail — a crash mid-group may lose the
// unacknowledged tail of the group but can never tear it in a way that
// poisons the store. The fault lands at a nondeterministic point in the
// interleaving (which writers share a group is scheduler-dependent),
// so the assertion is the invariant itself, not an exact key set.
void RunSyncWriterCrashSweep(const std::string& dir, CrashMode mode) {
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 4;
  for (uint64_t fail_op = 1; fail_op < 24; fail_op += 3) {
    SCOPED_TRACE("fault at op " + std::to_string(fail_op));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    FaultInjectionEnv env(Env::Default());
    SpitzOptions options;
    options.block_size = 8;
    options.data_dir = dir;
    options.env = &env;
    std::vector<std::string> acked;
    std::mutex acked_mu;
    {
      std::unique_ptr<SpitzDb> db;
      ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
      env.FailAt(fail_op, FaultKind::kFailWrite);
      std::vector<std::thread> pool;
      for (int w = 0; w < kWriters; w++) {
        pool.emplace_back([&, w] {
          WriteOptions sync_opts;
          sync_opts.sync = true;
          for (int i = 0; i < kOpsPerWriter; i++) {
            std::string key =
                "w" + std::to_string(w) + "k" + std::to_string(i);
            if (db->Put(sync_opts, key, "v").ok()) {
              std::lock_guard<std::mutex> lock(acked_mu);
              acked.push_back(key);
            }
          }
        });
      }
      for (auto& t : pool) t.join();
      env.Crash();
    }
    ASSERT_TRUE(env.SimulateCrash(mode).ok());
    env.Revive();
    std::unique_ptr<SpitzDb> db;
    Status s = SpitzDb::Open(options, &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::string value;
    for (const std::string& key : acked) {
      EXPECT_TRUE(db->Get(key, &value).ok())
          << "acknowledged sync write lost after crash: " << key;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST_F(RecoveryTest, AcknowledgedSyncWritesSurviveCrashDroppingUnsynced) {
  RunSyncWriterCrashSweep(dir_, CrashMode::kDropUnsynced);
}

TEST_F(RecoveryTest, AcknowledgedSyncWritesSurviveCrashKeepingUnsynced) {
  RunSyncWriterCrashSweep(dir_, CrashMode::kKeepUnsynced);
}

}  // namespace
}  // namespace spitz
