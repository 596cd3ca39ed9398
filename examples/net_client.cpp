// The client half of the network quickstart: connects to a running
// net_server, writes records, and performs verified reads — the proof
// and digest come off the wire and are checked locally, so nothing the
// server says is taken on trust.
//
//   terminal 1:  ./build/examples/net_server 7707
//   terminal 2:  ./build/examples/net_client 7707

#include <cstdio>
#include <cstdlib>

#include "net/spitz_client.h"

using namespace spitz;

int main(int argc, char** argv) {
  if (argc < 2) {
    fprintf(stderr, "usage: %s <port>\n", argv[0]);
    return 2;
  }
  SpitzClient::Options options;
  options.net.port = static_cast<uint16_t>(atoi(argv[1]));

  std::unique_ptr<SpitzClient> client;
  Status s = SpitzClient::Open(options, &client);
  if (!s.ok()) {
    fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // --- Write a few records over the wire --------------------------------
  for (int i = 0; i < 100; i++) {
    char key[32], value[32];
    snprintf(key, sizeof(key), "user/%04d", i);
    snprintf(value, sizeof(value), "balance=%d", i * 10);
    s = client->Put(key, value);
    if (!s.ok()) {
      fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  printf("wrote 100 records\n");

  // --- Verified read: proof checked locally against the digest ----------
  std::string value;
  s = client->VerifiedGet("user/0042", &value);
  if (!s.ok()) {
    fprintf(stderr, "verified read failed: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("verified read: user/0042 -> %s\n", value.c_str());

  // The raw evidence is available too; a forged value fails the same
  // static verifier a local embedder would run.
  SpitzClient::ProofResult pr;
  if (!client->GetProof("user/0042", &pr).ok()) return 1;
  Status forged = VerifyRead(pr.digest, "user/0042",
                             std::string("balance=1M"), pr.proof);
  printf("forged value rejected: %s\n", forged.ToString().c_str());

  // Absence is proven, not asserted.
  s = client->VerifiedGet("user/9999", &value);
  printf("missing key: %s (with a verified proof of absence)\n",
         s.ToString().c_str());

  // --- Verified range scan ----------------------------------------------
  std::vector<PosEntry> rows;
  s = client->VerifiedScan("user/0010", "user/0020", 100, &rows);
  if (!s.ok()) {
    fprintf(stderr, "verified scan failed: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("verified scan [user/0010, user/0020): %zu rows\n", rows.size());

  // --- Ask the server to audit itself -----------------------------------
  s = client->AuditLastSealed();
  printf("server-side audit of the last sealed block: %s\n",
         s.ToString().c_str());
  return 0;
}
