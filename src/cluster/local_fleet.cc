#include "cluster/local_fleet.h"

#include <chrono>
#include <filesystem>
#include <thread>

namespace spitz {

namespace {
// Drain() waits this long per shard for the backup to catch up.
constexpr uint64_t kDrainTimeoutMs = 30'000;
// Bounce() retries the reopen this often while the old listener's port
// is still held.
constexpr int kReopenAttempts = 100;
constexpr auto kReopenBackoff = std::chrono::milliseconds(20);
}  // namespace

Status LocalFleet::Open(const Options& options,
                        std::unique_ptr<LocalFleet>* out) {
  if (options.shards == 0) {
    return Status::InvalidArgument("a fleet needs at least one shard");
  }
  if (!options.db.data_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.db.data_dir, ec);
    if (ec) {
      return Status::IOError("create " + options.db.data_dir + ": " +
                             ec.message());
    }
  }
  auto fleet = std::unique_ptr<LocalFleet>(new LocalFleet());
  fleet->options_ = options;
  for (size_t i = 0; i < options.shards; i++) {
    const std::string suffix = std::to_string(i);
    Node primary;
    Status s = fleet->OpenNode("primary" + suffix, /*backup=*/false, &primary);
    if (!s.ok()) return s;
    fleet->primaries_.push_back(std::move(primary));
    if (!options.replicated) continue;

    Node backup;
    s = fleet->OpenNode("backup" + suffix, /*backup=*/true, &backup);
    if (!s.ok()) return s;
    Replicator::Options stream;
    stream.db = fleet->primaries_.back().db.get();
    stream.backup = EndpointOf(backup).net;
    fleet->backups_.push_back(std::move(backup));
    std::unique_ptr<Replicator> replicator;
    s = Replicator::Open(stream, &replicator);
    if (!s.ok()) return s;
    fleet->replicators_.push_back(std::move(replicator));
  }
  *out = std::move(fleet);
  return Status::OK();
}

LocalFleet::~LocalFleet() {
  replicators_.clear();
  for (std::vector<Node>* nodes : {&primaries_, &backups_}) {
    for (Node& node : *nodes) node.server.reset();
  }
}

Status LocalFleet::OpenNode(const std::string& name, bool backup,
                            Node* node) const {
  SpitzOptions db_options = options_.db;
  if (db_options.data_dir.empty()) {
    node->db = std::make_unique<SpitzDb>(db_options);
  } else {
    db_options.data_dir += "/" + name;
    Status s = SpitzDb::Open(db_options, &node->db);
    if (!s.ok()) return s;
  }
  if (backup) {
    BackupReplica::Options replica_options;
    replica_options.db = node->db.get();
    Status s = BackupReplica::Open(replica_options, &node->replica);
    if (!s.ok()) return s;
  }
  return Serve(*node, /*port=*/0, &node->server);
}

Status LocalFleet::Serve(const Node& node, uint16_t port,
                         std::unique_ptr<SpitzServer>* out) const {
  SpitzServer::Options server_options = options_.server;
  server_options.db = node.db.get();
  server_options.replica = node.replica.get();
  server_options.net.loop.port = port;
  return SpitzServer::Open(server_options, out);
}

SpitzClient::Options LocalFleet::EndpointOf(const Node& node) {
  SpitzClient::Options options;
  options.net.port = node.server->port();
  return options;
}

SpitzClient::Options LocalFleet::ClientOptions(size_t shard) const {
  return EndpointOf(primaries_[shard]);
}

SpitzClient::Options LocalFleet::BackupClientOptions(size_t shard) const {
  return EndpointOf(backups_[shard]);
}

ClusterClient::Options LocalFleet::ClusterOptions() const {
  ClusterClient::Options options;
  for (const Node& node : primaries_) {
    options.shards.push_back(EndpointOf(node).net);
  }
  for (const Node& node : backups_) {
    options.backups.push_back(EndpointOf(node).net);
  }
  return options;
}

void LocalFleet::KillPrimary(size_t shard) {
  if (options_.replicated) replicators_[shard]->Stop();
  primaries_[shard].server->Shutdown();
}

Status LocalFleet::Bounce(size_t shard) {
  Node& node = primaries_[shard];
  const uint16_t port = node.server->port();
  node.server->Shutdown();
  std::unique_ptr<SpitzServer> server;
  Status s;
  for (int attempt = 0; attempt < kReopenAttempts; attempt++) {
    s = Serve(node, port, &server);
    if (s.ok()) break;
    std::this_thread::sleep_for(kReopenBackoff);
  }
  if (!s.ok()) return s;
  node.server = std::move(server);
  return Status::OK();
}

Status LocalFleet::Drain() {
  for (size_t i = 0; i < shards(); i++) {
    Status s = primaries_[i].db->FlushBlock();
    if (s.ok() && options_.replicated) {
      s = replicators_[i]->WaitDrained(kDrainTimeoutMs);
    }
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace spitz
