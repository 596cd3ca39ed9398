#ifndef SPITZ_NET_NET_CLIENT_H_
#define SPITZ_NET_NET_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "net/frame.h"

namespace spitz {

// ---------------------------------------------------------------------------
// NetClient — a blocking framed RPC client over one TCP connection.
//
//   * Connect() retries with linear backoff, so a client racing a
//     server's startup converges instead of failing.
//   * Calls are pipelined by request id: any number of threads may
//     Call() concurrently over the one connection; a reader thread
//     routes each response frame to the waiting caller, so slow
//     requests never head-of-line block fast ones issued after them.
//   * Per-call deadlines: a call that misses its deadline returns
//     TimedOut and abandons its slot (a late response is dropped).
//   * A broken connection (peer close, protocol error from the server's
//     byte stream) fails every pending and future call with the sticky
//     error — callers never hang on a dead socket.
// ---------------------------------------------------------------------------
class NetClient {
 public:
  struct Options {
    Options() {}
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    // Connection attempts before giving up, retry_backoff_ms apart.
    int connect_attempts = 10;
    uint64_t retry_backoff_ms = 20;
    // Default per-call deadline; 0 = wait forever.
    uint64_t deadline_ms = 10'000;
    // Frames from the server larger than this poison the connection.
    size_t max_frame_bytes = 16u << 20;
    // The protocol version announced in the connect handshake. Only
    // tests override this (to exercise the mismatch path); real clients
    // speak the build's kProtocolVersion.
    uint32_t protocol_version = kProtocolVersion;
  };

  static Status Connect(const Options& options,
                        std::unique_ptr<NetClient>* out);

  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  // A response payload as it arrived: a view into the frame buffer the
  // reader read it into, which `buffer` keeps alive. Decoders that keep
  // views of the payload (ReadProof, ScanProof) hold `buffer` too.
  struct Reply {
    Slice payload;
    std::shared_ptr<const void> buffer;
  };

  // Synchronous call with the default deadline. Thread-safe.
  Status Call(uint32_t method, const std::string& request,
              std::string* response) {
    return Call(method, request, response, options_.deadline_ms);
  }
  // With an explicit deadline; 0 = wait forever. Copies the payload.
  Status Call(uint32_t method, const std::string& request,
              std::string* response, uint64_t deadline_ms);
  // As above, handing over the frame buffer itself instead of a copy.
  Status Call(uint32_t method, const std::string& request, Reply* reply,
              uint64_t deadline_ms);

  uint64_t calls_sent() const {
    return calls_sent_.load(std::memory_order_relaxed);
  }

  // Feature bitmask the server advertised in its handshake.
  uint64_t server_features() const { return server_features_; }

  // OK while the connection is usable; once it breaks (peer close,
  // protocol error, failed send) this returns the sticky error every
  // call will surface. Thread-safe.
  Status connection_status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return broken_;
  }

 private:
  NetClient() = default;

  struct Pending {
    Status status;
    Reply reply;
    bool done = false;
  };

  void ReaderLoop();
  // Fails every waiting call and poisons future ones. Called by the
  // reader when the connection dies.
  void BreakConnection(Status reason);

  Options options_;
  uint64_t server_features_ = 0;  // set once during Connect's handshake
  int fd_ = -1;
  std::thread reader_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> calls_sent_{0};

  // Serializes whole-frame writes so pipelined frames never interleave.
  std::mutex write_mu_;

  mutable std::mutex mu_;  // pending_ and broken_
  std::condition_variable cv_;
  std::unordered_map<uint64_t, Pending*> pending_;
  Status broken_;  // sticky; non-OK once the connection is unusable
};

}  // namespace spitz

#endif  // SPITZ_NET_NET_CLIENT_H_
