#include "net/net_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

namespace spitz {

namespace {

Status ConnectOnce(const NetClient::Options& options, int* out_fd) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError(std::string("socket: ") + strerror(errno));
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host address: " + options.host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IOError(std::string("connect: ") + strerror(errno));
    close(fd);
    return s;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *out_fd = fd;
  return Status::OK();
}

}  // namespace

Status NetClient::Connect(const Options& options,
                          std::unique_ptr<NetClient>* out) {
  if (options.port == 0) return Status::InvalidArgument("port must be set");
  int fd = -1;
  Status s;
  int attempts = options.connect_attempts > 0 ? options.connect_attempts : 1;
  for (int i = 0; i < attempts; i++) {
    s = ConnectOnce(options, &fd);
    if (s.ok()) break;
    if (i + 1 < attempts && options.retry_backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.retry_backoff_ms));
    }
  }
  if (!s.ok()) return s;
  auto client = std::unique_ptr<NetClient>(new NetClient());
  client->options_ = options;
  client->fd_ = fd;
  NetClient* raw = client.get();
  client->reader_ = std::thread([raw] { raw->ReaderLoop(); });
  // Handshake before the connection is handed to the caller: both sides
  // prove they speak the same protocol revision, so a mismatched peer
  // fails Connect() with InvalidArgument instead of undefined decoding
  // on the first real RPC.
  Handshake ours;
  ours.protocol_version = options.protocol_version;
  std::string request;
  ours.EncodeTo(&request);
  std::string response;
  s = raw->Call(kHandshakeMethod, request, &response, options.deadline_ms);
  if (!s.ok()) return s;
  Handshake peer;
  s = Handshake::DecodeFrom(response, &peer);
  if (s.ok()) s = CheckHandshake(peer);
  if (!s.ok()) return s;
  raw->server_features_ = peer.features;
  *out = std::move(client);
  return Status::OK();
}

NetClient::~NetClient() {
  // Wake the reader out of recv(); it fails any pending calls and
  // exits.
  shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  close(fd_);
}

Status NetClient::Call(uint32_t method, const std::string& request,
                       std::string* response, uint64_t deadline_ms) {
  Reply reply;
  Status s = Call(method, request, &reply, deadline_ms);
  if (s.ok() || s.IsNotFound()) *response = reply.payload.ToString();
  return s;
}

Status NetClient::Call(uint32_t method, const std::string& request,
                       Reply* reply, uint64_t deadline_ms) {
  uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Pending pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!broken_.ok()) return broken_;
    pending_[id] = &pending;
  }

  std::string encoded;
  encoded.reserve(kFramePrefixBytes + request.size());
  encoded.resize(kFramePrefixBytes);
  encoded.append(request);
  SealFrame(method, id, /*status=*/0, &encoded);
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    size_t sent = 0;
    while (sent < encoded.size()) {
      ssize_t n = send(fd_, encoded.data() + sent, encoded.size() - sent,
                       MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        // A failed send leaves the stream desynced if any bytes of this
        // frame already went out — the next frame would start mid-frame
        // from the server's point of view. The connection is unusable
        // either way (a TCP send only fails once the connection is
        // dead), so poison it: this call and every later one surface
        // the same sticky IOError instead of a confusing server-side
        // protocol error.
        Status reason =
            Status::IOError(std::string("send: ") + strerror(errno));
        BreakConnection(reason);
        return reason;
      }
      sent += static_cast<size_t>(n);
    }
  }
  calls_sent_.fetch_add(1, std::memory_order_relaxed);

  std::unique_lock<std::mutex> lock(mu_);
  if (deadline_ms == 0) {
    cv_.wait(lock, [&] { return pending.done; });
  } else if (!cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                           [&] { return pending.done; })) {
    // Abandon the slot; if the response arrives later the reader finds
    // no waiter and drops it.
    pending_.erase(id);
    return Status::TimedOut("rpc deadline exceeded");
  }
  if (pending.status.ok() || pending.status.IsNotFound()) {
    *reply = std::move(pending.reply);
  }
  return pending.status;
}

void NetClient::BreakConnection(Status reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_.ok()) broken_ = reason;
  for (auto& [id, pending] : pending_) {
    pending->status = reason;
    pending->done = true;
  }
  pending_.clear();
  cv_.notify_all();
}

void NetClient::ReaderLoop() {
  FrameDecoder decoder(options_.max_frame_bytes);
  while (true) {
    ssize_t n = recv(fd_, decoder.space(), decoder.space_size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      BreakConnection(Status::IOError("connection closed by server"));
      return;
    }
    decoder.Commit(static_cast<size_t>(n));
    ReceivedFrame frame;
    FrameDecoder::Result r;
    std::string error;
    while ((r = decoder.Next(&frame, &error)) ==
           FrameDecoder::Result::kFrame) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(frame.request_id);
      if (it == pending_.end()) continue;  // deadline already gave up
      Pending* pending = it->second;
      if (frame.status == WireStatusCode(Status::OK()) ||
          frame.status ==
              static_cast<uint32_t>(Status::Code::kNotFound)) {
        pending->status = StatusFromWire(frame.status, Slice());
        pending->reply = Reply{frame.payload, std::move(frame.buffer)};
      } else {
        pending->status = StatusFromWire(frame.status, frame.payload);
      }
      pending->done = true;
      pending_.erase(it);
      cv_.notify_all();
    }
    if (r == FrameDecoder::Result::kError) {
      BreakConnection(Status::Corruption("protocol error from server: " +
                                         error));
      return;
    }
  }
}

}  // namespace spitz
