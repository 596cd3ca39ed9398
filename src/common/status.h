#ifndef SPITZ_COMMON_STATUS_H_
#define SPITZ_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace spitz {

// A Status encapsulates the result of an operation. It may indicate
// success, or it may indicate an error with an associated error message.
// Status is cheap to copy for the OK case (no allocation) and carries a
// heap-allocated message only on error, mirroring the convention used by
// storage engines such as RocksDB.
class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kIOError = 4,
    kAborted = 5,
    kBusy = 6,
    kNotSupported = 7,
    kVerificationFailed = 8,
    kTimedOut = 9,
    kUnavailable = 10,
  };

  Status() = default;

  Status(const Status& other) = default;
  Status& operator=(const Status& other) = default;
  Status(Status&& other) = default;
  Status& operator=(Status&& other) = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status VerificationFailed(std::string msg = "") {
    return Status(Code::kVerificationFailed, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  // The component is shut down (or not yet started); the operation was
  // refused, not attempted. Distinct from IOError: nothing went wrong
  // with the work itself.
  static Status Unavailable(std::string msg = "") {
    return Status(Code::kUnavailable, std::move(msg));
  }
  // Any code with `msg`: for decoders of a code and for wrappers that
  // keep one.
  static Status FromCode(Code code, std::string msg) {
    return Status(code, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsVerificationFailed() const {
    return code_ == Code::kVerificationFailed;
  }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  // Human-readable form, e.g. "NotFound: key missing".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_ = Code::kOk;
  std::string msg_;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code();
}

}  // namespace spitz

#endif  // SPITZ_COMMON_STATUS_H_
