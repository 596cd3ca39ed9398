// The client half of the cluster quickstart: one ClusterClient over
// the N shards cluster_server put up. Everything below runs through
// the same VerifiedKv surface an embedded SpitzDb offers — the
// difference is that writes spanning shards commit via 2PC and every
// verified read checks out against ONE cluster root digest, a single
// hash that commits the state of the whole fleet.
//
//   terminal 1:  ./build/examples/cluster_server 7711 3
//   terminal 2:  ./build/examples/cluster_client 7711 3

#include <cstdio>
#include <cstdlib>

#include "cluster/cluster_client.h"
#include "cluster/partition.h"

using namespace spitz;

int main(int argc, char** argv) {
  uint16_t base_port = 7711;
  size_t shard_count = 3;
  if (argc > 1) base_port = static_cast<uint16_t>(atoi(argv[1]));
  if (argc > 2) shard_count = static_cast<size_t>(atoi(argv[2]));

  ClusterClient::Options options;
  for (size_t i = 0; i < shard_count; i++) {
    NetClient::Options endpoint;
    endpoint.port = static_cast<uint16_t>(base_port + i);
    options.shards.push_back(endpoint);
  }
  std::unique_ptr<ClusterClient> cluster;
  Status s = ClusterClient::Open(options, &cluster);
  if (!s.ok()) {
    fprintf(stderr, "cluster connect failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // --- Single-key writes route by partition ------------------------------
  for (int i = 0; i < 100; i++) {
    char key[32], value[32];
    snprintf(key, sizeof(key), "account/%04d", i);
    snprintf(value, sizeof(value), "balance=%d", i * 10);
    if (!cluster->Put(key, value).ok()) return 1;
  }
  printf("wrote 100 records across %zu shards\n", shard_count);

  // --- A cross-shard transfer commits atomically via 2PC -----------------
  // The batch names the balances it was computed from: had another
  // client changed either since, the write would fail Aborted.
  const char* from = "account/0007";
  const char* to = "account/0042";
  WriteBatch transfer;
  transfer.Expect(from, Slice("balance=70"));
  transfer.Expect(to, Slice("balance=420"));
  transfer.Put(from, "balance=20");
  transfer.Put(to, "balance=470");
  s = cluster->Write(WriteOptions(), transfer);
  if (!s.ok()) {
    fprintf(stderr, "transfer failed: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("transfer %s -> %s committed (shards %zu and %zu, %s)\n", from, to,
         PartitionOf(from, shard_count), PartitionOf(to, shard_count),
         PartitionOf(from, shard_count) == PartitionOf(to, shard_count)
             ? "one-phase"
             : "two-phase");

  // --- Verified reads against the cluster root digest --------------------
  std::string value;
  s = cluster->VerifiedGet(to, &value);
  if (!s.ok()) {
    fprintf(stderr, "verified read failed: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("verified read: %s -> %s\n", to, value.c_str());

  // The portable evidence: digest = the ClusterDigest envelope (every
  // shard's digest, then their Merkle root, the one hash worth
  // retaining), proof = the owning shard's pinned-root proof. Any
  // tampered byte fails the verifier.
  VerifiedKv::Evidence evidence;
  if (!cluster->GetProof(to, &evidence).ok()) return 1;
  printf("evidence verifies: %s\n",
         VerifyClusterGetEvidence(to, evidence).ToString().c_str());
  evidence.proof[evidence.proof.size() / 2] ^= 1;
  printf("tampered evidence rejected: %s\n",
         VerifyClusterGetEvidence(to, evidence).ToString().c_str());

  // --- A verified scan merges per-shard proofs in key order --------------
  std::vector<PosEntry> rows;
  s = cluster->VerifiedScan("account/0010", "account/0020", 100, &rows);
  if (!s.ok()) {
    fprintf(stderr, "verified scan failed: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("verified scan [account/0010, account/0020): %zu rows\n",
         rows.size());

  // --- One hash for the whole cluster ------------------------------------
  ClusterDigest digest;
  if (!cluster->GetClusterDigest(&digest).ok()) return 1;
  printf("cluster root over %zu shard digest(s): %s\n", digest.shards.size(),
         digest.root.ToHex().c_str());
  return 0;
}
