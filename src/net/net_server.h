#ifndef SPITZ_NET_NET_SERVER_H_
#define SPITZ_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/queue.h"
#include "common/status.h"
#include "net/event_loop.h"

namespace spitz {

// ---------------------------------------------------------------------------
// NetServer — a framed request/response RPC server over an EventLoop.
// The handler maps (method, request bytes) to (status, response bytes);
// SpitzServer and the non-intrusive design's TcpChannel both serve
// through it. A response is built where it is sent from: *response
// arrives holding the reserved frame prefix (kFramePrefixBytes), the
// handler appends its payload after it, and the server fills in the
// prefix and crc in place and hands the buffer to the loop.
//
// Threading model: the event loop thread only moves bytes; decoded
// frames are queued to a pool of dispatcher threads that run the
// handler and queue the response frame back to the loop. The bounded
// queue and its dispatchers are the paper's global message queue and
// processor nodes (Figure 5). If the dispatch queue is full the server
// answers Busy instead of stalling the loop (backpressure is explicit,
// never head-of-line blocking).
// ---------------------------------------------------------------------------
class NetServer {
 public:
  // Appends the response payload to *response; never overwrites the
  // bytes already there.
  using Handler =
      std::function<Status(uint32_t method, const std::string& request,
                           std::string* response)>;

  struct Options {
    Options() {}
    EventLoop::Options loop;
    // Handler threads; bound the request concurrency one server offers.
    size_t dispatcher_count = 4;
    size_t queue_depth = 1024;
    // Feature bits this server advertises in its handshake reply.
    // SpitzServer adds kFeatureReplication when a replica service is
    // wired in.
    uint64_t features = kDefaultFeatures;
  };

  // Binds, listens, spawns the loop and dispatcher threads.
  static Status Start(Handler handler, Options options,
                      std::unique_ptr<NetServer>* out);

  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  uint16_t port() const { return loop_.port(); }

  // Graceful: drains delivered requests, flushes their responses,
  // stops the loop and joins the dispatchers. Idempotent.
  void Shutdown();

  uint64_t frames_served() const {
    return frames_served_.load(std::memory_order_relaxed);
  }

  // The server's observability surface (net.*). SpitzServer adds its
  // per-method latency histograms into the same registry.
  MetricsSnapshot Metrics() const { return registry_.Snapshot(); }
  MetricsRegistry* registry() { return &registry_; }

 private:
  NetServer() = default;

  struct Work {
    uint64_t conn_id = 0;
    ReceivedFrame frame;
    uint64_t enqueue_ns = 0;  // stamped on push, for queue_wait_ns
  };

  void DispatcherLoop();

  Options options_;
  Handler handler_;
  // Declared before the loop and dispatchers so registered instruments
  // outlive the threads recording into them during shutdown.
  MetricsRegistry registry_;
  Counter* overloaded_ = nullptr;
  Histogram* dispatch_ns_ = nullptr;
  Histogram* queue_wait_ns_ = nullptr;
  EventLoop loop_;
  std::unique_ptr<BoundedQueue<Work>> queue_;
  std::vector<std::thread> dispatchers_;
  std::atomic<uint64_t> frames_served_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace spitz

#endif  // SPITZ_NET_NET_SERVER_H_
