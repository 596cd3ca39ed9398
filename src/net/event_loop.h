#ifndef SPITZ_NET_EVENT_LOOP_H_
#define SPITZ_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/frame.h"

namespace spitz {

// ---------------------------------------------------------------------------
// EventLoop — the non-blocking TCP core of the network service layer
// (DESIGN.md section 10). One thread runs epoll over a listening socket
// plus every accepted connection:
//
//   * accept: new connections are put in non-blocking mode and
//     registered for reads; beyond max_connections they are accepted
//     and immediately closed (so the backlog cannot fill with sockets
//     the server will never serve).
//   * read state machine: bytes are read into a per-connection
//     FrameDecoder; every complete, CRC-valid frame is handed to the
//     frame handler (on the loop thread — the handler must not block;
//     the server layers a dispatcher pool on top). A malformed frame —
//     bad CRC, undersized or oversized length prefix — bumps
//     net.protocol_errors and closes the connection. It never crashes
//     the server and never desynchronizes other connections.
//   * write state machine: responses are queued from any thread via
//     SendFrame (an eventfd wakes the loop); the loop queues each
//     encoded frame, as the buffer it was built in, on its connection,
//     gathers the queue into one sendmsg per wake, frees every frame
//     once it is fully sent, and arms EPOLLOUT for the remainder.
//   * half-close: a peer that shut down its write side still receives
//     the responses to every request it sent before the FIN.
//   * idle timeout: connections with no traffic and no in-flight
//     requests for idle_timeout_ms are closed.
//   * graceful Shutdown(): stop accepting, stop reading, let every
//     delivered-but-unanswered request finish and flush its response,
//     then close — bounded by drain_timeout_ms.
// ---------------------------------------------------------------------------
class EventLoop {
 public:
  struct Options {
    Options() {}
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  // 0 = kernel-assigned ephemeral port
    size_t max_connections = 1024;
    // Upper bound on one frame's body; a length prefix beyond this is a
    // protocol error before any body byte is read.
    size_t max_frame_bytes = 16u << 20;
    uint64_t idle_timeout_ms = 0;  // 0 = never
    // How long Shutdown() waits for in-flight requests to drain before
    // force-closing.
    uint64_t drain_timeout_ms = 5000;
  };

  // Called on the loop thread for every decoded frame. Must not block:
  // hand the frame to a queue and return.
  using FrameHandler =
      std::function<void(uint64_t conn_id, ReceivedFrame frame)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Binds, listens and starts the loop thread. On success port() holds
  // the actual (possibly kernel-assigned) port.
  Status Start(Options options, FrameHandler handler);

  uint16_t port() const { return port_; }

  // Queues a sealed frame (SealFrame bytes) for conn_id and wakes the
  // loop; the buffer itself is sent and freed, never copied. Safe from
  // any thread. Returns false once the loop has stopped. A frame for a
  // connection that has meanwhile closed is silently dropped.
  bool SendFrame(uint64_t conn_id, std::string frame);

  // Graceful stop; blocks until the loop thread exited. Idempotent.
  void Shutdown();

  // Registers the loop's instruments (net.server.*, net.frames.*,
  // net.protocol_errors) into `registry`, which must outlive the loop.
  void WireMetrics(MetricsRegistry* registry);

  uint64_t protocol_errors() const { return protocol_errors_.value(); }
  uint64_t accepts() const { return accepts_.value(); }

 private:
  struct Connection {
    explicit Connection(size_t max_frame_bytes) : decoder(max_frame_bytes) {}
    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    // Encoded frames, oldest first; those before out_head are sent and
    // freed, and out_pos bytes of outq[out_head] are sent.
    std::vector<std::string> outq;
    size_t out_head = 0;
    size_t out_pos = 0;
    uint64_t last_activity_ns = 0;
    uint32_t in_flight = 0;  // frames delivered, response not yet queued
    bool read_closed = false;
    uint32_t epoll_events = 0;
  };

  void Run();
  void AcceptPending();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  void DrainOutbox();
  void UpdateEpoll(Connection* conn, uint32_t events);
  void CloseConnection(uint64_t conn_id);
  // True when the connection has nothing left to say: no unanswered
  // request and no frame waiting to be sent.
  static bool Drained(const Connection& conn) {
    return conn.in_flight == 0 && conn.out_head == conn.outq.size();
  }

  Options options_;
  FrameHandler handler_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> stopped_{false};
  bool started_ = false;

  // Loop-thread-only state.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listen socket, 1 = wake eventfd

  // Cross-thread response hand-off: SendFrame queues frames here, the
  // loop moves them onto their connections' queues.
  std::mutex outbox_mu_;
  std::vector<std::pair<uint64_t, std::string>> outbox_;

  Counter accepts_;
  Counter accept_rejected_;
  Counter frames_rx_;
  Counter frames_tx_;
  Counter protocol_errors_;
  Counter idle_closed_;
  std::atomic<uint64_t> open_connections_{0};
};

}  // namespace spitz

#endif  // SPITZ_NET_EVENT_LOOP_H_
