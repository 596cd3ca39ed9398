#ifndef SPITZ_CLUSTER_LOCAL_FLEET_H_
#define SPITZ_CLUSTER_LOCAL_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_client.h"
#include "core/spitz_db.h"
#include "net/spitz_client.h"
#include "net/spitz_server.h"
#include "replica/backup.h"
#include "replica/replicator.h"

namespace spitz {

// ---------------------------------------------------------------------------
// LocalFleet — the paper-§5 deployment in one process, on loopback TCP:
// N shards, each a SpitzDb served by a SpitzServer, and optionally one
// backup per shard (its own SpitzDb behind a BackupReplica and a
// SpitzServer) fed by a Replicator streaming from the primary. Tests and
// benches that need a working deployment open a fleet; tests of the
// wiring itself (Open rejections, histories staged before a stream
// exists) keep calling the components directly.
//
// Clients belong to the caller. ClientOptions / ClusterOptions hand out
// endpoint options; client-side settings (connect_attempts,
// probe_deadline_ms, txn_id_seed) are set on the returned copies.
//
// Faults, per shard:
//   KillPrimary(i)  the crash stand-in: stops shard i's replication
//                   stream, then shuts its primary server down. No
//                   drain, so blocks sealed but not yet acked by the
//                   backup are lost, as in a real crash.
//   Bounce(i)       shuts the primary server down (no-op if it already
//                   is) and reopens it over the same database on the
//                   same port, retrying while the port is still held.
//                   A stream stopped by KillPrimary stays stopped.
//   Drain()         seals every primary's open block and waits until
//                   each backup has acked everything sealed.
//
// Teardown is bottom-up: replicators stop first (nothing ships into a
// closing server), then every server shuts down (in-flight requests
// finish against live databases), then the replicas and databases go.
//
// Fault calls must not race each other, teardown or the accessors;
// clients may run concurrently with faults.
// ---------------------------------------------------------------------------
class LocalFleet {
 public:
  struct Options {
    Options() {}
    size_t shards = 1;
    // Give every shard a backup fed by a Replicator.
    bool replicated = false;
    // Template for every database. An empty data_dir keeps the fleet in
    // memory; otherwise it is a root under which shard i's databases
    // open in primary<i>/ and backup<i>/.
    SpitzOptions db;
    // Template for every server; db, replica and the port are set per
    // node.
    SpitzServer::Options server;
  };

  static Status Open(const Options& options, std::unique_ptr<LocalFleet>* out);
  ~LocalFleet();

  LocalFleet(const LocalFleet&) = delete;
  LocalFleet& operator=(const LocalFleet&) = delete;

  size_t shards() const { return primaries_.size(); }
  SpitzDb* db(size_t shard) const { return primaries_[shard].db.get(); }
  SpitzServer* server(size_t shard) const {
    return primaries_[shard].server.get();
  }
  // Replicated fleets only.
  BackupReplica* replica(size_t shard) const {
    return backups_[shard].replica.get();
  }
  Replicator* replicator(size_t shard) const {
    return replicators_[shard].get();
  }

  // Endpoint of shard i's primary, or (replicated fleets) its backup.
  SpitzClient::Options ClientOptions(size_t shard) const;
  SpitzClient::Options BackupClientOptions(size_t shard) const;
  // Every primary in partition order, plus every backup when replicated.
  ClusterClient::Options ClusterOptions() const;

  void KillPrimary(size_t shard);
  Status Bounce(size_t shard);
  Status Drain();

 private:
  struct Node {
    std::unique_ptr<SpitzDb> db;
    std::unique_ptr<BackupReplica> replica;  // backups only
    std::unique_ptr<SpitzServer> server;
  };

  LocalFleet() = default;

  Status OpenNode(const std::string& name, bool backup, Node* node) const;
  Status Serve(const Node& node, uint16_t port,
               std::unique_ptr<SpitzServer>* out) const;
  static SpitzClient::Options EndpointOf(const Node& node);

  Options options_;
  std::vector<Node> primaries_;
  std::vector<Node> backups_;
  std::vector<std::unique_ptr<Replicator>> replicators_;
};

}  // namespace spitz

#endif  // SPITZ_CLUSTER_LOCAL_FLEET_H_
