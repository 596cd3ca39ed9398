// E-commerce with serializable transactions and near-real-time
// analytics — the HTAP scenario of paper section 3.3: "the purchases of
// the items must occur in sequence to prevent double spending or
// shipping out-of-stock items ... the analysis report or status
// checking on the system may not require strict isolation."
//
// This example exercises:
//   * serializable purchases through MVCC + 2PC across processor shards
//     (no oversold stock under concurrency);
//   * the served control layer: orders go over TCP to a Spitz server
//     whose dispatcher threads take them off its message queue, and
//     results come back with proofs the client verifies;
//   * an analytical stock-level query ("getting all items with
//     stock-level lower than 50") over the verifiable store.
//
// Build & run:  ./build/examples/ecommerce_audit

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/spitz_db.h"
#include "net/spitz_client.h"
#include "net/spitz_server.h"
#include "txn/two_phase_commit.h"

using namespace spitz;

int main() {
  // --- OLTP side: sharded MVCC store with 2PC -----------------------------
  constexpr int kItems = 8;
  constexpr int kInitialStock = 40;
  constexpr int kShoppers = 8;
  constexpr int kAttemptsEach = 200;

  ShardedStore shards(4);
  TxnCoordinator coordinator(&shards, TimestampScheme::kHlc);
  {
    DistributedTxn init = coordinator.Begin();
    for (int i = 0; i < kItems; i++) {
      init.Put("stock/item" + std::to_string(i),
               std::to_string(kInitialStock));
    }
    if (!init.Commit().ok()) {
      fprintf(stderr, "stock initialization failed\n");
      return 1;
    }
  }

  std::atomic<int> sold{0};
  std::atomic<int> rejected_out_of_stock{0};
  std::atomic<int> aborted_conflicts{0};
  std::vector<std::thread> shoppers;
  for (int t = 0; t < kShoppers; t++) {
    shoppers.emplace_back([&, t] {
      Random rng(100 + t);
      for (int i = 0; i < kAttemptsEach; i++) {
        DistributedTxn txn = coordinator.Begin();
        std::string item = "stock/item" + std::to_string(rng.Uniform(kItems));
        std::string stock_str;
        if (!txn.Get(item, &stock_str).ok()) continue;
        int stock = atoi(stock_str.c_str());
        if (stock <= 0) {
          rejected_out_of_stock++;
          continue;  // no oversell: the purchase is refused
        }
        txn.Put(item, std::to_string(stock - 1));
        txn.Put("orders/" + std::to_string(t) + "-" + std::to_string(i),
                item);
        Status s = txn.Commit();
        if (s.ok()) {
          sold++;
        } else {
          aborted_conflicts++;
        }
      }
    });
  }
  for (auto& th : shoppers) th.join();

  // Serializability check: units sold == stock consumed, exactly.
  int remaining = 0;
  DistributedTxn audit = coordinator.Begin();
  for (int i = 0; i < kItems; i++) {
    std::string stock_str;
    if (audit.Get("stock/item" + std::to_string(i), &stock_str).ok()) {
      remaining += atoi(stock_str.c_str());
    }
  }
  printf("OLTP: sold=%d conflicts-aborted=%d out-of-stock-refusals=%d\n",
         sold.load(), aborted_conflicts.load(),
         rejected_out_of_stock.load());
  printf("stock accounting: %d initial = %d remaining + %d sold  ->  %s\n",
         kItems * kInitialStock, remaining, sold.load(),
         (kItems * kInitialStock == remaining + sold.load())
             ? "consistent (serializable)"
             : "INCONSISTENT!");
  if (kItems * kInitialStock != remaining + sold.load()) return 1;

  // --- Verifiable store side: the served control layer ---------------------
  // Completed orders are recorded in a Spitz server, whose dispatcher
  // threads take requests off its message queue; a compliance client
  // verifies what it reads against the digest in each reply.
  SpitzDb db;
  SpitzServer::Options server_options;
  server_options.db = &db;
  std::unique_ptr<SpitzServer> server;
  Status s = SpitzServer::Open(server_options, &server);
  if (!s.ok()) {
    fprintf(stderr, "server open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  SpitzClient::Options client_options;
  client_options.net.port = server->port();
  std::unique_ptr<SpitzClient> client;
  s = SpitzClient::Open(client_options, &client);
  if (!s.ok()) {
    fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }
  for (int i = 0; i < sold.load(); i++) {
    char key[32];
    snprintf(key, sizeof(key), "order/%06d", i);
    if (!client->Put(key, "item-sold").ok()) {
      fprintf(stderr, "ledgered order write failed\n");
      return 1;
    }
  }
  // Every served put queued a deferred audit of its key.
  if (!db.DrainAudits().ok()) {
    fprintf(stderr, "deferred audits failed\n");
    return 1;
  }
  printf("\ncontrol layer: %llu requests served by %zu dispatcher threads\n",
         static_cast<unsigned long long>(server->frames_served()),
         server_options.net.dispatcher_count);

  // Verified order lookup: the proof is checked client-side.
  std::string value;
  Status verified = client->VerifiedGet("order/000000", &value);
  printf("verified order read: %s\n", verified.ToString().c_str());

  // Analytical range query with proof: all recorded orders in a range.
  std::vector<PosEntry> rows;
  Status scan_ok =
      client->VerifiedScan("order/000010", "order/000020", 0, &rows);
  printf("verified order scan: %zu rows, %s\n", rows.size(),
         scan_ok.ToString().c_str());

  return verified.ok() && scan_ok.ok() ? 0 : 1;
}
