#include "common/fault_env.h"

#include <algorithm>

namespace spitz {

namespace {

// Forwards every op to the owning env, which applies the fault schedule
// and tracks synced/unsynced sizes before touching the wrapped log.
class FaultWritableLog : public WritableLog {
 public:
  FaultWritableLog(FaultInjectionEnv* env, std::string path,
                   std::unique_ptr<WritableLog> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    return env_->LogAppend(path_, data, base_.get());
  }

  // Flush pushes buffered bytes to the kernel but is not a durability
  // point (no op index, passes through on a dead env — like Close, a
  // crashed process's dirty pages may still reach the disk; whether
  // they survive is SimulateCrash's decision).
  Status Flush() override { return env_->LogFlush(path_, base_.get()); }

  Status Sync() override { return env_->LogSync(path_, base_.get()); }

  // The fsync-only path is a durability point like Sync (one op index),
  // but it hardens only the explicitly flushed prefix: appends racing
  // past the last Flush stay volatile, exactly like bytes sitting in a
  // user-space buffer during a real fsync. The env's own mutex
  // serializes it against concurrent appends, mirroring how the kernel
  // serializes fsync against write(2).
  Status SyncFlushed() override {
    return env_->LogSyncFlushed(path_, base_.get());
  }

  void SetManualFlush(bool on) override { base_->SetManualFlush(on); }

  uint64_t BufferedBytes() const override { return base_->BufferedBytes(); }

  // Close flushes buffered appends into the kernel but is not a
  // durability point, so it passes through even on a dead env: a real
  // crashed process's dirty pages may likewise still reach the disk
  // (SimulateCrash decides whether they survive).
  Status Close() override { return base_->Close(); }

 private:
  FaultInjectionEnv* const env_;
  const std::string path_;
  std::unique_ptr<WritableLog> base_;
};

// Positional reads pass through unless the env's read-fault toggle is
// on. Reads are not crash points (they consume no op index): a reader
// cannot tear on-disk state, it can only observe it.
class FaultRandomAccessFile : public RandomAccessFile {
 public:
  FaultRandomAccessFile(const FaultInjectionEnv* env, std::string path,
                        std::unique_ptr<RandomAccessFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    return env_->FileRead(path_, offset, n, out, base_.get());
  }

 private:
  const FaultInjectionEnv* const env_;
  const std::string path_;
  std::unique_ptr<RandomAccessFile> base_;
};

}  // namespace

void FaultInjectionEnv::FailAt(uint64_t op_index, FaultKind kind,
                               size_t partial_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_op_ = op_index;
  armed_kind_ = kind;
  armed_partial_ = partial_bytes;
  fired_ = false;
}

void FaultInjectionEnv::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  dead_ = true;
}

uint64_t FaultInjectionEnv::ops_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

bool FaultInjectionEnv::fault_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

void FaultInjectionEnv::Revive() {
  std::lock_guard<std::mutex> lock(mu_);
  dead_ = false;
  fired_ = false;
  armed_kind_ = FaultKind::kNone;
}

void FaultInjectionEnv::SetReadFaults(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  read_faults_ = on;
}

uint64_t FaultInjectionEnv::unsynced_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [path, st] : files_) {
    total += st.current_size - st.synced_size;
  }
  return total;
}

Status FaultInjectionEnv::SimulateCrash(CrashMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [path, st] : files_) {
    uint64_t on_disk = 0;
    if (!base_->FileSize(path, &on_disk).ok()) continue;  // never materialized
    if (mode == CrashMode::kDropUnsynced) {
      uint64_t target = std::min(st.synced_size, on_disk);
      if (target < on_disk) {
        Status s = base_->Truncate(path, target);
        if (!s.ok()) return s;
      }
      st.current_size = st.flushed_size = st.synced_size = target;
    } else {
      // Everything the kernel received survived the crash; it is now
      // the durable baseline recovery will see.
      st.current_size = st.flushed_size = st.synced_size = on_disk;
    }
  }
  return Status::OK();
}

FaultKind FaultInjectionEnv::NextOp(size_t* partial_bytes) {
  // Caller holds mu_ and has already checked dead_.
  uint64_t index = ops_++;
  if (!fired_ && armed_kind_ != FaultKind::kNone && index == armed_op_) {
    fired_ = true;
    dead_ = true;
    *partial_bytes = armed_partial_;
    return armed_kind_;
  }
  return FaultKind::kNone;
}

Status FaultInjectionEnv::LogAppend(const std::string& path, const Slice& data,
                                    WritableLog* base) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return Status::IOError("injected fault: environment is dead");
  FileState& st = files_[path];
  size_t partial = 0;
  FaultKind kind = NextOp(&partial);
  switch (kind) {
    case FaultKind::kNone: {
      Status s = base->Append(data);
      if (s.ok()) st.current_size += data.size();
      return s;
    }
    case FaultKind::kShortWrite: {
      // Only a prefix of the record reaches the kernel; whether it
      // survives the crash is SimulateCrash's CrashMode decision.
      size_t n = std::min(partial, data.size());
      if (n > 0) {
        Status s = base->Append(Slice(data.data(), n));
        if (s.ok()) st.current_size += n;
      }
      return Status::IOError("injected short write (" + std::to_string(n) +
                             "/" + std::to_string(data.size()) + " bytes)");
    }
    default:
      // kFailWrite — and a kFailSync that happened to land on an
      // append, which degrades to a plain write failure.
      return Status::IOError("injected write failure");
  }
}

Status FaultInjectionEnv::LogSync(const std::string& path, WritableLog* base) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return Status::IOError("injected fault: environment is dead");
  size_t partial = 0;
  FaultKind kind = NextOp(&partial);
  if (kind != FaultKind::kNone) {
    // Any fault kind landing on a sync keeps the unsynced data volatile.
    return Status::IOError("injected sync failure");
  }
  Status s = base->Sync();
  if (s.ok()) {
    FileState& st = files_[path];
    st.synced_size = st.flushed_size = st.current_size;
  }
  return s;
}

Status FaultInjectionEnv::LogFlush(const std::string& path,
                                   WritableLog* base) {
  Status s = base->Flush();
  std::lock_guard<std::mutex> lock(mu_);
  // Recorded even on a dead env: a crashed process's already-issued
  // write(2)s are in the kernel regardless, and the flush point only
  // matters if a later *successful* sync hardens it (impossible while
  // dead).
  FileState& st = files_[path];
  st.flushed_size = st.current_size;
  return s;
}

Status FaultInjectionEnv::LogSyncFlushed(const std::string& path,
                                         WritableLog* base) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return Status::IOError("injected fault: environment is dead");
  size_t partial = 0;
  FaultKind kind = NextOp(&partial);
  if (kind != FaultKind::kNone) {
    return Status::IOError("injected sync failure");
  }
  Status s = base->SyncFlushed();
  if (s.ok()) {
    FileState& st = files_[path];
    // Only the flushed prefix hardens; bytes appended after the last
    // flush ride in the (simulated) user-space buffer through this
    // barrier and die with a kDropUnsynced crash.
    st.synced_size = std::max(st.synced_size, st.flushed_size);
  }
  return s;
}

Status FaultInjectionEnv::NewWritableLog(const std::string& path,
                                         std::unique_ptr<WritableLog>* log) {
  std::unique_ptr<WritableLog> base;
  Status s = base_->NewWritableLog(path, &base);
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return Status::IOError("injected fault: environment is dead");
    // Whatever is on disk when the log opens is the durable baseline
    // (recovery has already truncated any tail it will not honor).
    uint64_t size = 0;
    base_->FileSize(path, &size).ok();
    FileState& st = files_[path];
    st.current_size = st.flushed_size = st.synced_size = size;
  }
  *log = std::make_unique<FaultWritableLog>(this, path, std::move(base));
  return Status::OK();
}

Status FaultInjectionEnv::ReadFileToString(const std::string& path,
                                           std::string* out) {
  return base_->ReadFileToString(path, out);
}

Status FaultInjectionEnv::Truncate(const std::string& path, uint64_t size) {
  Status s = base_->Truncate(path, size);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it != files_.end()) {
      it->second.current_size = std::min(it->second.current_size, size);
      it->second.flushed_size = std::min(it->second.flushed_size, size);
      it->second.synced_size = std::min(it->second.synced_size, size);
    }
  }
  return s;
}

Status FaultInjectionEnv::CreateDir(const std::string& path) {
  return base_->CreateDir(path);
}

Status FaultInjectionEnv::FileSize(const std::string& path, uint64_t* size) {
  return base_->FileSize(path, size);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultInjectionEnv::NewRandomAccessFile(
    const std::string& path, std::unique_ptr<RandomAccessFile>* file) {
  std::unique_ptr<RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(path, &base);
  if (!s.ok()) return s;
  *file = std::make_unique<FaultRandomAccessFile>(this, path, std::move(base));
  return Status::OK();
}

Status FaultInjectionEnv::FileRead(const std::string& path, uint64_t offset,
                                   size_t n, std::string* out,
                                   const RandomAccessFile* base) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (read_faults_) {
      return Status::IOError("injected read failure: " + path);
    }
  }
  return base->Read(offset, n, out);
}

Status FaultInjectionEnv::ListDir(const std::string& path,
                                  std::vector<std::string>* names) {
  return base_->ListDir(path, names);
}

Status FaultInjectionEnv::DeleteFile(const std::string& path) {
  Status s = base_->DeleteFile(path);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    files_.erase(path);
  }
  return s;
}

Status FaultInjectionEnv::Rename(const std::string& from,
                                 const std::string& to) {
  // A metadata write: refused on a dead env (the crashed process cannot
  // swap files), but not itself a crash point — the SyncDir that
  // hardens it already consumes an op index.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return Status::IOError("injected fault: environment is dead");
  }
  Status s = base_->Rename(from, to);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(from);
    if (it != files_.end()) {
      files_[to] = it->second;
      files_.erase(it);
    } else {
      files_.erase(to);
    }
  }
  return s;
}

Status FaultInjectionEnv::SyncDir(const std::string& path) {
  // A directory fsync is a durability point like a log sync: it
  // consumes one op index, so the crash harness also covers "crashed
  // before the GC rewrite segments' directory entries hardened".
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return Status::IOError("injected fault: environment is dead");
  size_t partial = 0;
  FaultKind kind = NextOp(&partial);
  if (kind != FaultKind::kNone) {
    return Status::IOError("injected dir sync failure");
  }
  return base_->SyncDir(path);
}

}  // namespace spitz
