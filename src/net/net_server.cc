#include "net/net_server.h"

#include "common/clock.h"

namespace spitz {

Status NetServer::Start(Handler handler, Options options,
                        std::unique_ptr<NetServer>* out) {
  if (handler == nullptr) {
    return Status::InvalidArgument("null handler");
  }
  if (options.dispatcher_count == 0) {
    return Status::InvalidArgument("dispatcher_count must be positive");
  }
  auto server = std::unique_ptr<NetServer>(new NetServer());
  server->options_ = options;
  server->handler_ = std::move(handler);
  server->queue_ =
      std::make_unique<BoundedQueue<Work>>(options.queue_depth);
  server->loop_.WireMetrics(&server->registry_);
  server->overloaded_ = server->registry_.counter("net.server.overloaded");
  server->dispatch_ns_ =
      server->registry_.histogram("net.server.dispatch_latency_ns");
  server->queue_wait_ns_ =
      server->registry_.histogram("net.server.queue_wait_ns");
  server->registry_.RegisterCounterFn("net.server.frames_served", [s =
                                          server.get()] {
    return s->frames_served_.load(std::memory_order_relaxed);
  });

  NetServer* raw = server.get();
  Status s = server->loop_.Start(
      options.loop, [raw](uint64_t conn_id, ReceivedFrame frame) {
        uint32_t method = frame.method;
        uint64_t request_id = frame.request_id;
        if (!raw->queue_->TryPush(
                Work{conn_id, std::move(frame), MonotonicNanos()})) {
          // Queue full: answer Busy rather than blocking the loop.
          raw->overloaded_->Increment();
          std::string reply(kFramePrefixBytes, '\0');
          reply.append("server overloaded");
          SealFrame(method, request_id, WireStatusCode(Status::Busy()),
                    &reply);
          raw->loop_.SendFrame(conn_id, std::move(reply));
        }
      });
  if (!s.ok()) return s;
  for (size_t i = 0; i < options.dispatcher_count; i++) {
    server->dispatchers_.emplace_back([raw] { raw->DispatcherLoop(); });
  }
  *out = std::move(server);
  return Status::OK();
}

NetServer::~NetServer() { Shutdown(); }

void NetServer::Shutdown() {
  // Idempotent: only the first caller drains and joins; concurrent
  // callers may return before that ends.
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  // The loop drains first: it stops accepting and reading, then waits
  // for every delivered request's response — produced by the still-live
  // dispatchers below — to be flushed.
  loop_.Shutdown();
  queue_->Close();
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
}

void NetServer::DispatcherLoop() {
  while (auto work = queue_->Pop()) {
    queue_wait_ns_->Record(MonotonicNanos() - work->enqueue_ns);
    ScopedTimer timer(dispatch_ns_);
    const uint32_t method = work->frame.method;
    // The reply is built in place: the handler appends its payload after
    // the reserved frame prefix, and SealFrame fills the prefix in.
    std::string reply(kFramePrefixBytes, '\0');
    Status s;
    // Handshake frames are answered by the transport itself, before the
    // application handler sees anything: a mismatched peer must learn
    // InvalidArgument even if the handler would choke on its bytes.
    // Not counted in frames_served_ — that counter means RPCs served.
    if (method == kHandshakeMethod) {
      Handshake peer;
      s = Handshake::DecodeFrom(work->frame.payload, &peer);
      if (s.ok()) s = CheckHandshake(peer);
      if (s.ok()) {
        Handshake ours;
        ours.features = options_.features;
        ours.EncodeTo(&reply);
      }
    } else {
      s = handler_(method, work->frame.payload.ToString(), &reply);
      frames_served_.fetch_add(1, std::memory_order_relaxed);
    }
    // kOk and kNotFound carry the method payload (proof-of-absence
    // bytes ride on NotFound); every other status carries the message.
    if (!s.ok() && !s.IsNotFound()) {
      reply.resize(kFramePrefixBytes);
      reply.append(s.message());
    }
    SealFrame(method, work->frame.request_id, WireStatusCode(s), &reply);
    loop_.SendFrame(work->conn_id, std::move(reply));
  }
}

}  // namespace spitz
