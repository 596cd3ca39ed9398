// Quickstart: the essential Spitz workflow in one file.
//
//   1. open a database;
//   2. write some records (every change is ledgered);
//   3. read with a proof and verify it locally against the digest;
//   4. watch the digest evolve append-only (consistency proof);
//   5. query a range with a proof that covers the whole result.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/spitz_db.h"
#include "core/verifier.h"

using namespace spitz;

int main() {
  SpitzDb db;

  // --- 1. Write a few records -------------------------------------------
  for (int i = 0; i < 100; i++) {
    char key[32], value[32];
    snprintf(key, sizeof(key), "user/%04d", i);
    snprintf(value, sizeof(value), "balance=%d", i * 10);
    Status s = db.Put(key, value);
    if (!s.ok()) {
      fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  printf("wrote 100 records; ledger holds %llu entries\n",
         static_cast<unsigned long long>(db.ledger()->entry_count()));

  // --- 2. The client saves the digest (its only trusted state) ----------
  ClientVerifier client;
  client.ObserveDigest(db.Digest());
  printf("client digest: index root %s...\n",
         client.digest().index_root.ToHex().substr(0, 16).c_str());

  // --- 3. Verified point read -------------------------------------------
  std::string value;
  ReadProof proof;
  Status s = db.Read(kCurrentVersion, "user/0042", &value, &proof);
  if (!s.ok() || !client.CheckRead("user/0042", value, proof).ok()) {
    fprintf(stderr, "verified read failed\n");
    return 1;
  }
  printf("verified read: user/0042 -> %s (proof: %zu nodes)\n", value.c_str(),
         proof.index_proof.pos.nodes.size());

  // A forged value does not verify.
  Status forged = client.CheckRead("user/0042", std::string("balance=1M"),
                                   proof);
  printf("forged value rejected: %s\n", forged.ToString().c_str());

  // --- 4. More writes; prove the ledger only grew -----------------------
  for (int i = 100; i < 200; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user/%04d", i);
    db.Put(key, "balance=0");
  }
  db.FlushBlock();
  SpitzDigest next = db.Digest();
  MerkleConsistencyProof consistency;
  db.ledger()->ProveConsistency(client.digest().journal, &consistency);
  s = client.ObserveDigest(next, &consistency);
  printf("digest advanced append-only: %s\n", s.ToString().c_str());

  // --- 5. Verified range query ------------------------------------------
  std::vector<PosEntry> rows;
  ScanProof scan_proof;
  s = db.ReadRange(kCurrentVersion, "user/0010", "user/0020", 0, &rows,
                   &scan_proof);
  if (!s.ok() ||
      !client.CheckScan("user/0010", "user/0020", 0, rows, scan_proof).ok()) {
    fprintf(stderr, "verified scan failed\n");
    return 1;
  }
  printf("verified range query: %zu rows, every row covered by the proof\n",
         rows.size());

  printf("quickstart complete\n");
  return 0;
}
