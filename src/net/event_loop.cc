#include "net/event_loop.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/clock.h"

namespace spitz {

namespace {

constexpr uint64_t kListenToken = 0;
constexpr uint64_t kWakeToken = 1;
// Frames one sendmsg gathers.
constexpr size_t kMaxGather = 64;

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

EventLoop::~EventLoop() {
  Shutdown();
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Status EventLoop::Start(Options options, FrameHandler handler) {
  if (started_) return Status::InvalidArgument("event loop already started");
  if (options.max_frame_bytes < kFrameHeaderBytes) {
    return Status::InvalidArgument("max_frame_bytes below frame header size");
  }
  options_ = std::move(options);
  handler_ = std::move(handler);

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("bind");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, 128) < 0) {
    Status s = Errno("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  Status s = SetNonBlocking(listen_fd_);
  if (!s.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    Status e = Errno("epoll_create1");
    close(listen_fd_);
    listen_fd_ = -1;
    return e;
  }
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    Status e = Errno("eventfd");
    close(listen_fd_);
    listen_fd_ = -1;
    return e;
  }

  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenToken;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeToken;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  started_ = true;
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void EventLoop::WireMetrics(MetricsRegistry* registry) {
  registry->RegisterCounter("net.server.accepts", &accepts_);
  registry->RegisterCounter("net.server.accept_rejected", &accept_rejected_);
  registry->RegisterCounter("net.frames.rx", &frames_rx_);
  registry->RegisterCounter("net.frames.tx", &frames_tx_);
  registry->RegisterCounter("net.protocol_errors", &protocol_errors_);
  registry->RegisterCounter("net.server.idle_closed", &idle_closed_);
  registry->RegisterGaugeFn("net.server.connections", [this] {
    return open_connections_.load(std::memory_order_relaxed);
  });
}

bool EventLoop::SendFrame(uint64_t conn_id, std::string frame) {
  if (stopped_.load(std::memory_order_acquire)) return false;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    outbox_.emplace_back(conn_id, std::move(frame));
  }
  uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; other errors
  // mean the loop is gone and the frame will simply never be flushed.
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  return true;
}

void EventLoop::Shutdown() {
  if (!started_) return;
  shutdown_requested_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
}

void EventLoop::UpdateEpoll(Connection* conn, uint32_t events) {
  if (conn->epoll_events == events) return;
  conn->epoll_events = events;
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.u64 = conn->id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void EventLoop::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  close(it->second->fd);
  conns_.erase(it);
  open_connections_.store(conns_.size(), std::memory_order_relaxed);
}

void EventLoop::AcceptPending() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: try again next wake
    }
    if (shutdown_requested_.load(std::memory_order_acquire) ||
        conns_.size() >= options_.max_connections) {
      accept_rejected_.Increment();
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity_ns = MonotonicNanos();
    epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    conn->epoll_events = EPOLLIN;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      close(fd);
      continue;
    }
    accepts_.Increment();
    conns_[conn->id] = std::move(conn);
    open_connections_.store(conns_.size(), std::memory_order_relaxed);
  }
}

void EventLoop::HandleReadable(Connection* conn) {
  while (true) {
    const size_t want = conn->decoder.space_size();
    ssize_t n = recv(conn->fd, conn->decoder.space(), want, 0);
    if (n > 0) {
      conn->last_activity_ns = MonotonicNanos();
      conn->decoder.Commit(static_cast<size_t>(n));
      ReceivedFrame frame;
      FrameDecoder::Result r;
      while ((r = conn->decoder.Next(&frame)) ==
             FrameDecoder::Result::kFrame) {
        frames_rx_.Increment();
        if (shutdown_requested_.load(std::memory_order_acquire)) {
          continue;  // draining: new requests are dropped
        }
        conn->in_flight++;
        handler_(conn->id, std::move(frame));
      }
      if (r == FrameDecoder::Result::kError) {
        // Malformed stream: protocol error, close immediately. Pending
        // responses are dropped — the peer broke the framing contract.
        protocol_errors_.Increment();
        CloseConnection(conn->id);
        return;
      }
      if (static_cast<size_t>(n) < want) return;  // likely drained
      continue;
    }
    if (n == 0) {
      // Peer half-closed (or closed). Responses for requests already
      // received still go out; the connection dies once drained.
      conn->read_closed = true;
      UpdateEpoll(conn, conn->epoll_events & ~uint32_t{EPOLLIN});
      if (Drained(*conn)) CloseConnection(conn->id);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConnection(conn->id);  // reset or other hard error
    return;
  }
}

void EventLoop::HandleWritable(Connection* conn) {
  while (conn->out_head < conn->outq.size()) {
    // Gather the queued frames into one send.
    iovec iov[kMaxGather];
    size_t count = 0;
    for (size_t i = conn->out_head;
         i < conn->outq.size() && count < kMaxGather; i++, count++) {
      const size_t skip = i == conn->out_head ? conn->out_pos : 0;
      iov[count].iov_base = conn->outq[i].data() + skip;
      iov[count].iov_len = conn->outq[i].size() - skip;
    }
    msghdr msg;
    memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      conn->last_activity_ns = MonotonicNanos();
      // Free every frame the send completed.
      size_t sent = static_cast<size_t>(n);
      while (sent > 0) {
        std::string& front = conn->outq[conn->out_head];
        const size_t left = front.size() - conn->out_pos;
        if (sent < left) {
          conn->out_pos += sent;
          break;
        }
        sent -= left;
        std::string().swap(front);
        conn->out_head++;
        conn->out_pos = 0;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateEpoll(conn, conn->epoll_events | EPOLLOUT);
      return;
    }
    CloseConnection(conn->id);  // broken pipe etc.
    return;
  }
  // Fully flushed: every frame is freed; disarm EPOLLOUT.
  conn->outq.clear();
  conn->out_head = 0;
  UpdateEpoll(conn, conn->epoll_events & ~uint32_t{EPOLLOUT});
  if ((conn->read_closed ||
       shutdown_requested_.load(std::memory_order_acquire)) &&
      Drained(*conn)) {
    CloseConnection(conn->id);
  }
}

void EventLoop::DrainOutbox() {
  std::vector<std::pair<uint64_t, std::string>> batch;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    batch.swap(outbox_);
  }
  for (auto& [conn_id, frame] : batch) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;  // connection died before the reply
    Connection* conn = it->second.get();
    if (conn->in_flight > 0) conn->in_flight--;
    frames_tx_.Increment();
    conn->outq.push_back(std::move(frame));
  }
  // Write immediately, one gathered send per connection; arms EPOLLOUT
  // on a partial write.
  for (const auto& [conn_id, frame] : batch) {
    auto it = conns_.find(conn_id);
    if (it != conns_.end() && (it->second->epoll_events & EPOLLOUT) == 0) {
      HandleWritable(it->second.get());
    }
  }
}

void EventLoop::Run() {
  constexpr int kTickMs = 50;
  uint64_t drain_deadline_ns = 0;
  epoll_event events[64];

  while (true) {
    int n = epoll_wait(epoll_fd_, events, 64, kTickMs);
    if (n < 0 && errno != EINTR) break;

    for (int i = 0; i < n; i++) {
      uint64_t token = events[i].data.u64;
      if (token == kListenToken) {
        AcceptPending();
        continue;
      }
      if (token == kWakeToken) {
        uint64_t v;
        while (read(wake_fd_, &v, sizeof(v)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(token);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        // EPOLLHUP with readable data still pending is possible; try a
        // final read so a request+FIN burst is not lost, then close if
        // the read path did not already.
        HandleReadable(conn);
        if (conns_.count(token) != 0 && Drained(*conns_[token])) {
          CloseConnection(token);
        }
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      if (conns_.count(token) == 0) continue;  // closed during read
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
    }

    // Response hand-off from dispatcher threads.
    DrainOutbox();

    // Idle sweep.
    if (options_.idle_timeout_ms > 0) {
      uint64_t now = MonotonicNanos();
      uint64_t limit = options_.idle_timeout_ms * 1'000'000ull;
      std::vector<uint64_t> idle;
      for (const auto& [id, conn] : conns_) {
        if (Drained(*conn) && now - conn->last_activity_ns > limit) {
          idle.push_back(id);
        }
      }
      for (uint64_t id : idle) {
        idle_closed_.Increment();
        CloseConnection(id);
      }
    }

    // Graceful shutdown: stop accepting, drain in-flight requests, then
    // close everything. Bounded by drain_timeout_ms.
    if (shutdown_requested_.load(std::memory_order_acquire)) {
      if (drain_deadline_ns == 0) {
        drain_deadline_ns =
            MonotonicNanos() + options_.drain_timeout_ms * 1'000'000ull;
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        close(listen_fd_);
        listen_fd_ = -1;
        // Stop reading new requests on every connection.
        for (auto& [id, conn] : conns_) {
          UpdateEpoll(conn.get(),
                      conn->epoll_events & ~uint32_t{EPOLLIN});
        }
      }
      std::vector<uint64_t> done;
      for (const auto& [id, conn] : conns_) {
        if (Drained(*conn)) done.push_back(id);
      }
      for (uint64_t id : done) CloseConnection(id);
      if (conns_.empty() || MonotonicNanos() > drain_deadline_ns) break;
    }
  }

  stopped_.store(true, std::memory_order_release);
  for (auto& [id, conn] : conns_) close(conn->fd);
  conns_.clear();
  open_connections_.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace spitz
