#include "nonintrusive/tcp_channel.h"

namespace spitz {

Status TcpChannel::Start(NetServer::Handler handler, Options options,
                         std::unique_ptr<TcpChannel>* out) {
  auto channel = std::unique_ptr<TcpChannel>(new TcpChannel());
  Status s = NetServer::Start(std::move(handler), options.server,
                              &channel->server_);
  if (!s.ok()) return s;
  NetClient::Options client_options;
  client_options.port = channel->server_->port();
  client_options.deadline_ms = options.deadline_ms;
  s = NetClient::Connect(client_options, &channel->client_);
  if (!s.ok()) return s;
  *out = std::move(channel);
  return Status::OK();
}

TcpChannel::~TcpChannel() {
  // Client first, so its reader sees a clean server-side close rather
  // than racing the server teardown.
  client_.reset();
  server_.reset();
}

Status TcpChannel::Call(uint32_t method, const std::string& request,
                        std::string* response) {
  return client_->Call(method, request, response);
}

}  // namespace spitz
