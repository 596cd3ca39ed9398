#ifndef SPITZ_COMMON_ENV_H_
#define SPITZ_COMMON_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace spitz {

// ---------------------------------------------------------------------------
// The file-system seam of the durability layer (DESIGN.md section 9).
//
// Every byte the database persists — chunk-log records and journal
// blocks — flows through an Env, so crash behaviour can be tested by
// substituting FaultInjectionEnv (fault_env.h) for the POSIX default.
// The surface is deliberately small: the logs are append-only, so the
// write side needs only append, sync, whole-file read, and truncate (to
// cut a torn tail back to the last valid record before reopening for
// append). The paged chunk store (DESIGN.md section 12) adds the read
// side — positional reads through RandomAccessFile — plus the directory
// operations its segment lifecycle needs (list, delete, dir fsync).
// ---------------------------------------------------------------------------

// A read-only handle supporting positional reads (pread). Safe to call
// from many threads at once: Read carries no cursor. The handle stays
// readable even after the file is unlinked — the chunk-store GC relies
// on this to delete a segment while a straggling reader still holds the
// handle.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  // Reads up to `n` bytes starting at `offset` into *out (replacing its
  // contents). Fewer bytes than requested means EOF was hit; that is
  // not an error here — callers that need exactly `n` bytes must check
  // out->size() themselves.
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;
};

// A sequential append-only handle to one log file. Appends are buffered
// in user space; Sync() flushes the buffer and fsyncs, which is the
// *only* durability point — data merely appended can be lost in a
// crash, exactly like data sitting in the OS page cache.
//
// All methods return sticky errors: once an Append fails (e.g. a short
// write left a partial record on disk), every later Append and Sync
// reports the failure too, because the log tail past the failure point
// is garbage and appending after it would make the records unreachable
// by recovery.
class WritableLog {
 public:
  virtual ~WritableLog() = default;

  virtual Status Append(const Slice& data) = 0;
  // Pushes buffered appends to the kernel (write(2), no fsync). Not a
  // durability point; pairs with SyncFlushed() so the disk barrier can
  // run outside whatever lock serializes Append/Flush.
  virtual Status Flush() = 0;
  // When on, Append only ever grows the user-space buffer — bytes reach
  // the kernel exclusively through an explicit Flush()/Sync()/Close(),
  // never as a side effect of a full buffer. Journal::Open puts
  // journal.log in this mode so the owner's barrier can order chunk
  // durability strictly before journal visibility: no frame can be
  // picked up by an in-flight fsync before the commit pipeline has
  // decided to expose it. Callers own backpressure via BufferedBytes().
  virtual void SetManualFlush(bool on) { (void)on; }
  // Bytes appended but not yet handed to the kernel (always 0 for
  // implementations without a user-space buffer).
  virtual uint64_t BufferedBytes() const { return 0; }
  // Flushes buffered appends and fsyncs. On success everything appended
  // so far survives a crash.
  virtual Status Sync() = 0;
  // Fsyncs bytes already pushed to the kernel by Flush() (or by
  // buffer-overflow appends). Unlike Sync(), this never touches the
  // user-space buffer, so it is safe to call concurrently with
  // Append/Flush from another thread — the fsync then covers at least
  // every byte flushed before the call. Must not race with Close().
  virtual Status SyncFlushed() = 0;
  // Flushes buffered appends (no fsync) and closes the handle.
  virtual Status Close() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  // The process-wide POSIX environment. Never deleted.
  static Env* Default();

  // Opens `path` for appending, creating it if necessary.
  virtual Status NewWritableLog(const std::string& path,
                                std::unique_ptr<WritableLog>* log) = 0;

  // Opens `path` for positional reads. NotFound if it does not exist.
  virtual Status NewRandomAccessFile(
      const std::string& path, std::unique_ptr<RandomAccessFile>* file) = 0;

  // Reads the whole file into *out. NotFound if the file does not
  // exist (recovery treats that as a fresh, empty log).
  virtual Status ReadFileToString(const std::string& path,
                                  std::string* out) = 0;

  // Truncates the file to `size` bytes. Used by recovery to discard a
  // torn tail so that subsequent appends land after the last valid
  // record rather than after crash garbage.
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;

  // Creates the directory; succeeds if it already exists. Any other
  // failure (permissions, a file in the way, missing parent) is an
  // IOError carrying the errno text.
  virtual Status CreateDir(const std::string& path) = 0;

  virtual Status FileSize(const std::string& path, uint64_t* size) = 0;

  virtual bool FileExists(const std::string& path) = 0;

  // Fills *names with the entries of directory `path` (no "." / "..",
  // unsorted). NotFound if the directory does not exist.
  virtual Status ListDir(const std::string& path,
                         std::vector<std::string>* names) = 0;

  // Unlinks the file. NotFound if it does not exist.
  virtual Status DeleteFile(const std::string& path) = 0;

  // Atomically renames `from` onto `to`, replacing `to` if it exists
  // (rename(2) semantics). This is the safe-replace primitive: write a
  // complete file under a temp name, Sync it, Rename it over the old
  // one, then SyncDir the parent — a crash at any point leaves either
  // the old file or the new one, never a half-written mix.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  // Fsyncs the directory itself, making renames/creates/unlinks inside
  // it durable. The chunk-store GC calls this after writing rewrite
  // segments (so their directory entries survive a crash that happens
  // before the victims are unlinked).
  virtual Status SyncDir(const std::string& path) = 0;
};

}  // namespace spitz

#endif  // SPITZ_COMMON_ENV_H_
