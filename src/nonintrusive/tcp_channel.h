#ifndef SPITZ_NONINTRUSIVE_TCP_CHANNEL_H_
#define SPITZ_NONINTRUSIVE_TCP_CHANNEL_H_

#include <memory>

#include "net/net_client.h"
#include "net/net_server.h"

namespace spitz {

// The transport of the non-intrusive design: a synchronous
// (method, request) -> (status, response) channel between the composed
// database's client side and one of its two services. The handler is
// served over an actual loopback TCP socket — a NetServer on an
// ephemeral 127.0.0.1 port and a pipelined NetClient connected to it —
// so every Call pays genuine serialization, framing, CRC, and two kernel
// socket round trips, and the Figure 8 "composed design" overhead is
// measured, not modelled.
class TcpChannel {
 public:
  struct Options {
    Options() {}
    NetServer::Options server;
    // Client-side per-call deadline (forwarded to NetClient).
    uint64_t deadline_ms = 10'000;
  };

  static Status Start(NetServer::Handler handler, Options options,
                      std::unique_ptr<TcpChannel>* out);

  ~TcpChannel();

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  Status Call(uint32_t method, const std::string& request,
              std::string* response);

  uint64_t calls_served() const { return server_->frames_served(); }

  uint16_t port() const { return server_->port(); }

 private:
  TcpChannel() = default;

  std::unique_ptr<NetServer> server_;
  std::unique_ptr<NetClient> client_;
};

}  // namespace spitz

#endif  // SPITZ_NONINTRUSIVE_TCP_CHANNEL_H_
