#ifndef SPITZ_NET_SPITZ_SERVER_H_
#define SPITZ_NET_SPITZ_SERVER_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "core/spitz_db.h"
#include "net/net_server.h"
#include "net/spitz_wire.h"

namespace spitz {

// ---------------------------------------------------------------------------
// SpitzServer — the served form of the database (paper section 4: the
// service layer between clients and processor nodes). A NetServer
// accepts framed requests over TCP and queues them to its dispatcher
// threads — the global message queue and processor nodes of Figure 5.
// The dispatcher that took a frame off the queue decodes it and runs it
// against the SpitzDb, combining the paper's three roles: request
// handler (decode, reply with proofs), transaction manager (execute)
// and auditor (every put or delete queues a deferred audit of its key).
//
// Every proof travels as the serialized ReadProof/ScanProof wire bytes
// together with the digest it proves against, so clients verify
// locally (SpitzClient::VerifiedGet) without trusting the server.
//
// As a cluster shard (protocol v2) the server additionally exposes the
// database's 2PC participant surface (prepare/commit/abort/in-doubt)
// and pinned-root proofs, and can run a presumed-abort sweeper that
// aborts prepared transactions whose coordinator went silent.
//
// Metrics: the NetServer's transport counters (net.frames.{rx,tx},
// net.server.accepts, net.protocol_errors, net.server.queue_wait_ns,
// ...) plus a per-method latency histogram
// (net.server.method_latency_ns.<method>) — all in one Metrics()
// snapshot.
// ---------------------------------------------------------------------------
// The replication surface a SpitzServer can front (protocol v3). The
// concrete implementation (replica/BackupReplica) lives one layer up —
// the net library only routes the three replication methods and asks
// whether the node is still a backup (backups reject client writes
// until promoted). Implementations must be thread-safe.
class ReplicaService {
 public:
  virtual ~ReplicaService() = default;
  // True while this node is an un-promoted backup.
  virtual bool IsBackup() const = 0;
  // wire::kReplicate — apply one replication record, answer an ack.
  virtual Status HandleReplicate(const Slice& request,
                                 std::string* response) = 0;
  // wire::kReplicaAck — answer the latest applied state (resume point).
  virtual Status HandleAck(std::string* response) = 0;
  // wire::kReplicaStatus — query or promote.
  virtual Status HandleStatus(const Slice& request,
                              std::string* response) = 0;
};

class SpitzServer {
 public:
  struct Options {
    Options() {}
    // net.dispatcher_count is the number of handler threads, i.e. how
    // many requests this server runs at once.
    NetServer::Options net;
    // The database this server fronts; must outlive the server.
    SpitzDb* db = nullptr;
    // When set, this server serves the replication methods (and
    // advertises kFeatureReplication in its handshake); while
    // replica->IsBackup() it answers every write-family method with
    // Unavailable — a backup's state must be exactly the replicated
    // stream until Promote(). Must outlive the server.
    ReplicaService* replica = nullptr;
    // When positive, a background sweeper aborts prepared (in-doubt)
    // transactions older than this — the presumed-abort answer to a
    // coordinator that died after prepare. Must be much larger than a
    // coordinator's worst-case decision time, or a timed-out abort can
    // race a commit decision already in flight. The sweeper wakes every
    // fifth of this (at least 1 ms). 0 = no sweeper.
    uint64_t txn_abort_after_ms = 0;

    Status Validate() const;
  };

  // Opens the service over options.db (the PR 3 Open(Options, out)
  // convention): validates, binds, listens, spawns the loop, the
  // dispatcher pool and (if configured) the txn sweeper.
  static Status Open(Options options, std::unique_ptr<SpitzServer>* out);

  ~SpitzServer();

  SpitzServer(const SpitzServer&) = delete;
  SpitzServer& operator=(const SpitzServer&) = delete;

  uint16_t port() const { return net_->port(); }

  // Graceful: stops the sweeper, then drains in-flight network requests
  // (responses flush). Idempotent.
  void Shutdown();

  uint64_t frames_served() const { return net_->frames_served(); }

  // The server's net.* instruments.
  MetricsSnapshot Metrics() const { return net_->Metrics(); }

 private:
  SpitzServer() = default;

  Status Handle(uint32_t method, const std::string& request,
                std::string* response);
  void SweeperLoop();

  Options options_;
  SpitzDb* db_ = nullptr;
  std::unique_ptr<NetServer> net_;
  Histogram* method_ns_[wire::kMethodCount + 1] = {};  // +1: unknown

  // Presumed-abort sweeper state (txn_abort_after_ms > 0 only).
  std::mutex sweep_mu_;
  std::condition_variable sweep_cv_;
  bool sweep_stop_ = false;
  std::thread sweeper_;
};

}  // namespace spitz

#endif  // SPITZ_NET_SPITZ_SERVER_H_
