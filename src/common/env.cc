#include "common/env.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>
#include <vector>

namespace spitz {

namespace {

std::string ErrnoMessage(const std::string& context, int err) {
  return context + ": " + strerror(err);
}

// Append-only fd with a small user-space buffer, so that the per-record
// cost on the write path stays one memcpy (a write(2) only every
// kBufferSize bytes or at Sync/Close), matching the buffered stdio the
// stores used before the Env migration.
class PosixWritableLog : public WritableLog {
 public:
  PosixWritableLog(int fd, std::string path) : fd_(fd), path_(std::move(path)) {
    buffer_.reserve(kBufferSize);
  }

  ~PosixWritableLog() override {
    if (fd_ >= 0) Close();
  }

  Status Append(const Slice& data) override {
    if (!status_.ok()) return status_;
    buffer_.append(data.data(), data.size());
    if (!manual_flush_ && buffer_.size() >= kBufferSize) return FlushBuffer();
    return Status::OK();
  }

  Status Flush() override {
    if (!status_.ok()) return status_;
    return FlushBuffer();
  }

  void SetManualFlush(bool on) override { manual_flush_ = on; }

  uint64_t BufferedBytes() const override { return buffer_.size(); }

  Status Sync() override {
    if (!status_.ok()) return status_;
    Status s = FlushBuffer();
    if (!s.ok()) return s;
    if (::fsync(fd_) != 0) {
      status_ = Status::IOError(ErrnoMessage("fsync " + path_, errno));
      return status_;
    }
    return Status::OK();
  }

  Status SyncFlushed() override {
    // Deliberately touches nothing but the fd (stable until Close), so
    // SpitzDb can run the disk barrier outside its writer lock while
    // other threads keep appending. The sticky status is not consulted
    // or set: fsyncing the flushed prefix is safe even after a buffered
    // append failed, and the failure still surfaces through every
    // Append/Sync.
    if (::fsync(fd_) != 0) {
      return Status::IOError(ErrnoMessage("fsync " + path_, errno));
    }
    return Status::OK();
  }

  Status Close() override {
    Status s = status_.ok() ? FlushBuffer() : status_;
    if (fd_ >= 0 && ::close(fd_) != 0 && s.ok()) {
      s = Status::IOError(ErrnoMessage("close " + path_, errno));
    }
    fd_ = -1;
    if (!status_.ok()) status_ = Status::IOError("log closed after error");
    return s;
  }

 private:
  static constexpr size_t kBufferSize = 1 << 16;

  Status FlushBuffer() {
    size_t done = 0;
    while (done < buffer_.size()) {
      ssize_t n = ::write(fd_, buffer_.data() + done, buffer_.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        status_ = Status::IOError(ErrnoMessage("write " + path_, errno));
        return status_;
      }
      done += static_cast<size_t>(n);
    }
    buffer_.clear();
    // A manual-flush owner may have buffered far more than the working
    // size (a bulk load's whole journal); do not keep that capacity.
    if (buffer_.capacity() > kBufferSize) {
      std::string().swap(buffer_);
      buffer_.reserve(kBufferSize);
    }
    return Status::OK();
  }

  int fd_;
  std::string path_;
  std::string buffer_;
  bool manual_flush_ = false;
  Status status_;  // sticky: set by the first failed write/sync
};

// Positional reads over one fd. pread(2) carries no cursor, so a single
// handle serves concurrent readers, and POSIX keeps the inode alive
// while the fd is open — reads keep working after the file is unlinked.
class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->clear();
    out->resize(n);
    size_t done = 0;
    while (done < n) {
      ssize_t got = ::pread(fd_, &(*out)[done], n - done,
                            static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        out->clear();
        return Status::IOError(ErrnoMessage("pread " + path_, errno));
      }
      if (got == 0) break;  // EOF: return the short prefix
      done += static_cast<size_t>(got);
    }
    out->resize(done);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Status NewWritableLog(const std::string& path,
                        std::unique_ptr<WritableLog>* log) override {
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("open " + path, errno));
    }
    *log = std::make_unique<PosixWritableLog>(fd, path);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::IOError(ErrnoMessage("open " + path, errno));
    }
    *file = std::make_unique<PosixRandomAccessFile>(fd, path);
    return Status::OK();
  }

  Status ReadFileToString(const std::string& path, std::string* out) override {
    out->clear();
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::IOError(ErrnoMessage("open " + path, errno));
    }
    char buf[1 << 16];
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        int err = errno;
        ::close(fd);
        return Status::IOError(ErrnoMessage("read " + path, err));
      }
      if (n == 0) break;
      out->append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Status::IOError(ErrnoMessage("truncate " + path, errno));
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) == 0) return Status::OK();
    if (errno == EEXIST) {
      // EEXIST also fires when a regular file squats on the path;
      // succeeding then would defer the failure to a confusing
      // cannot-open-log error inside it.
      struct stat st;
      if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        return Status::OK();
      }
      return Status::IOError(path + " exists but is not a directory");
    }
    return Status::IOError(ErrnoMessage("mkdir " + path, errno));
  }

  Status FileSize(const std::string& path, uint64_t* size) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::IOError(ErrnoMessage("stat " + path, errno));
    }
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    names->clear();
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) {
      if (errno == ENOENT) return Status::NotFound("no such dir: " + path);
      return Status::IOError(ErrnoMessage("opendir " + path, errno));
    }
    struct dirent* entry;
    while ((entry = ::readdir(dir)) != nullptr) {
      const char* name = entry->d_name;
      if (strcmp(name, ".") == 0 || strcmp(name, "..") == 0) continue;
      names->emplace_back(name);
    }
    ::closedir(dir);
    return Status::OK();
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::IOError(ErrnoMessage("unlink " + path, errno));
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + from);
      return Status::IOError(
          ErrnoMessage("rename " + from + " -> " + to, errno));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("open dir " + path, errno));
    }
    Status s;
    if (::fsync(fd) != 0) {
      s = Status::IOError(ErrnoMessage("fsync dir " + path, errno));
    }
    ::close(fd);
    return s;
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();  // leaked: outlives all users
  return env;
}

}  // namespace spitz
