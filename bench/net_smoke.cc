// CI smoke test for the network service layer: a SpitzServer on an
// ephemeral loopback port, 8 concurrent SpitzClients driving
// put/get/proof-verify traffic, then hard assertions on the outcome —
// every proof verified, zero protocol errors, a non-trivial verified
// digest. Exits non-zero on any violation, so a transport regression
// fails CI before it reaches a benchmark.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cluster/local_fleet.h"
#include "net/spitz_client.h"
#include "net/spitz_server.h"

namespace spitz {
namespace {

constexpr size_t kClients = 8;
constexpr size_t kOpsPerClient = 200;

#define SMOKE_CHECK(cond, what)                              \
  do {                                                       \
    if (!(cond)) {                                           \
      fprintf(stderr, "net_smoke: FAILED: %s\n", (what));    \
      exit(1);                                               \
    }                                                        \
  } while (0)

void RunClient(const SpitzClient::Options& options, size_t id,
               std::atomic<uint64_t>* failures) {
  std::unique_ptr<SpitzClient> client;
  if (!SpitzClient::Open(options, &client).ok()) {
    failures->fetch_add(kOpsPerClient);
    return;
  }
  for (size_t i = 0; i < kOpsPerClient; i++) {
    std::string key = "client" + std::to_string(id) + "-key" +
                      std::to_string(i);
    std::string value = "value" + std::to_string(i);
    if (!client->Put(key, value).ok()) {
      failures->fetch_add(1);
      continue;
    }
    std::string got;
    if (!client->Get(key, &got).ok() || got != value) {
      failures->fetch_add(1);
    }
    // Proof-verify round trip: the proof and digest come off the wire
    // and are checked client-side.
    if (!client->VerifiedGet(key, &got).ok() || got != value) {
      failures->fetch_add(1);
    }
  }
}

int Run() {
  std::unique_ptr<LocalFleet> fleet;
  Status s = LocalFleet::Open(LocalFleet::Options(), &fleet);
  SMOKE_CHECK(s.ok(), "server start");
  SpitzServer* server = fleet->server(0);
  SMOKE_CHECK(server->port() != 0, "ephemeral port assignment");

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; c++) {
    clients.emplace_back(RunClient, fleet->ClientOptions(0), c, &failures);
  }
  for (auto& t : clients) t.join();
  SMOKE_CHECK(failures.load() == 0, "all client operations succeed");

  // The digest that verified every proof above must describe the
  // written data.
  std::unique_ptr<SpitzClient> checker;
  SMOKE_CHECK(SpitzClient::Open(fleet->ClientOptions(0), &checker).ok(),
              "checker connect");
  SpitzDigest digest;
  SMOKE_CHECK(checker->Digest(&digest).ok(), "digest fetch");
  // The journal digest covers sealed blocks; only the final partial
  // block (at most block_size entries) may be outstanding.
  SMOKE_CHECK(digest.journal.entry_count + 64 >= kClients * kOpsPerClient,
              "digest covers every sealed block");
  SMOKE_CHECK(checker->AuditLastBlock().ok(), "server-side audit");

  MetricsSnapshot m = server->Metrics();
  SMOKE_CHECK(m.CounterValue("net.protocol_errors") == 0,
              "zero protocol errors");
  SMOKE_CHECK(m.CounterValue("net.server.accepts") >= kClients,
              "every client accepted");
  SMOKE_CHECK(m.CounterValue("net.frames.rx") >=
                  kClients * kOpsPerClient * 3,
              "request frames counted");

  checker.reset();
  server->Shutdown();
  printf("net_smoke: OK (%zu clients x %zu ops, %" PRIu64
         " frames served, digest entries %" PRIu64 ")\n",
         kClients, kOpsPerClient, server->frames_served(),
         digest.journal.entry_count);
  return 0;
}

}  // namespace
}  // namespace spitz

int main() { return spitz::Run(); }
