#ifndef SPITZ_COMMON_FAULT_ENV_H_
#define SPITZ_COMMON_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/env.h"

namespace spitz {

// ---------------------------------------------------------------------------
// FaultInjectionEnv — the crash-testing double of the durability layer
// (DESIGN.md section 9).
//
// Wraps a real Env and injects failures into the append/sync stream on a
// programmable schedule, then lets the test materialize the file state a
// real crash would have left behind. Every Append and Sync on any log
// opened through this env consumes one op index; arming a fault at index
// i makes the i-th op fail in a chosen way, after which the env plays
// dead (every later write/sync fails too — a process cannot make
// progress past its crash point). A test then tears down the database,
// calls SimulateCrash() to rewrite the files as the crash would have,
// Revive()s the env, and reopens through the *same* env to exercise
// recovery under the identical (instrumentable) I/O layer.
//
// The two crash materializations bracket what a real kernel can do with
// unsynced dirty pages:
//   kDropUnsynced — nothing unsynced survives: every file is truncated
//     to its size at the last successful Sync. This is the worst case
//     recovery must handle, and the one the crash-point harness asserts
//     exact state against.
//   kKeepUnsynced — everything handed to the kernel survives (the page
//     cache happened to be flushed), including the prefix of a
//     short-tor write. This is how a *torn tail* reaches recovery.
// ---------------------------------------------------------------------------

enum class FaultKind : uint8_t {
  kNone = 0,
  kFailWrite,   // Append fails; no bytes reach the file
  kShortWrite,  // Append persists only `partial_bytes` bytes, then fails
  kFailSync,    // Sync fails; buffered/unsynced data stays volatile
};

enum class CrashMode : uint8_t {
  kDropUnsynced,
  kKeepUnsynced,
};

class FaultInjectionEnv : public Env {
 public:
  // `base` must outlive this env. Typically Env::Default().
  explicit FaultInjectionEnv(Env* base) : base_(base) {}

  // --- Fault schedule -----------------------------------------------------

  // Arms a single fault: the op with 0-based index `op_index` (counting
  // every Append and Sync through this env, in order) fails as `kind`.
  // For kShortWrite, only the first `partial_bytes` bytes of that append
  // reach the file. Once the fault fires the env is dead until Revive().
  void FailAt(uint64_t op_index, FaultKind kind, size_t partial_bytes = 0);

  // Makes every subsequent write/sync fail immediately, as if the
  // process died right now (no specific op is torn).
  void Crash();

  // Total Appends+Syncs observed so far. A fault-free dry run of a
  // workload measures how many crash points the harness must cover.
  uint64_t ops_seen() const;

  // Whether an armed fault has fired.
  bool fault_fired() const;

  // --- Crash materialization ---------------------------------------------

  // Rewrites every file written through this env to the state a crash
  // at this moment would leave (see CrashMode above). All logs opened
  // through this env must be closed first (destroy the database before
  // calling this). The resulting on-disk state becomes the new durable
  // baseline.
  Status SimulateCrash(CrashMode mode);

  // Clears the dead flag and any armed fault; subsequent I/O succeeds.
  void Revive();

  // While on, every RandomAccessFile::Read through this env fails with
  // IOError (the log write stream is untouched). Exercises the chunk
  // store's positional-read error path without killing the process.
  void SetReadFaults(bool on);

  // Bytes that SimulateCrash(kDropUnsynced) would currently discard.
  uint64_t unsynced_bytes() const;

  // --- Env interface -------------------------------------------------------

  Status NewWritableLog(const std::string& path,
                        std::unique_ptr<WritableLog>* log) override;
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* file) override;
  Status ReadFileToString(const std::string& path, std::string* out) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status CreateDir(const std::string& path) override;
  Status FileSize(const std::string& path, uint64_t* size) override;
  bool FileExists(const std::string& path) override;
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override;
  Status DeleteFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& path) override;

  // Internal: read entry point for the RandomAccessFile wrapper.
  Status FileRead(const std::string& path, uint64_t offset, size_t n,
                  std::string* out, const RandomAccessFile* base) const;

  // Internal: op entry points used by the log wrapper this env hands
  // out (not part of the test-facing surface).
  Status LogAppend(const std::string& path, const Slice& data,
                   WritableLog* base);
  Status LogSync(const std::string& path, WritableLog* base);
  // Flush (buffer → kernel): consumes no op index and passes through on
  // a dead env, but records the flush point so LogSyncFlushed can model
  // the fsync-only barrier faithfully.
  Status LogFlush(const std::string& path, WritableLog* base);
  // The fsync-only durability point: one op index like LogSync, but it
  // hardens only bytes explicitly flushed — appends that raced past the
  // last flush stay volatile, exactly as fsync treats bytes still in a
  // user-space buffer.
  Status LogSyncFlushed(const std::string& path, WritableLog* base);

 private:
  struct FileState {
    uint64_t synced_size = 0;   // durable as of the last successful Sync
    uint64_t flushed_size = 0;  // pushed to the kernel by an explicit Flush
    uint64_t current_size = 0;  // bytes appended through this env
  };

  // Decision + bookkeeping for one log op. Returns the fault to inject
  // into this op (kNone = proceed normally).
  FaultKind NextOp(size_t* partial_bytes);

  Env* const base_;
  mutable std::mutex mu_;
  std::map<std::string, FileState> files_;
  uint64_t ops_ = 0;
  bool dead_ = false;
  bool fired_ = false;
  uint64_t armed_op_ = 0;
  FaultKind armed_kind_ = FaultKind::kNone;
  size_t armed_partial_ = 0;
  bool read_faults_ = false;
};

}  // namespace spitz

#endif  // SPITZ_COMMON_FAULT_ENV_H_
