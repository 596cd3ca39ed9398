// E-commerce with serializable transactions and near-real-time
// analytics — the HTAP scenario of paper section 3.3: "the purchases of
// the items must occur in sequence to prevent double spending or
// shipping out-of-stock items ... the analysis report or status
// checking on the system may not require strict isolation."
//
// This example exercises:
//   * serializable purchases over TCP on a 4-shard cluster: each one is
//     a verified read of the stock plus a cross-shard write that
//     carries that read, so a purchase that raced another sale of the
//     same item aborts and is retried (no oversold stock);
//   * the served control layer: every request goes over TCP to a shard
//     server whose dispatcher threads take it off its message queue,
//     and reads come back with proofs the client verifies against one
//     cluster root digest;
//   * an analytical stock-level query ("getting all items with
//     stock-level lower than 50") as a verified scan that takes no
//     part in any transaction and so never aborts a purchase.
//
// Build & run:  ./build/examples/ecommerce_audit

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/local_fleet.h"
#include "common/random.h"

using namespace spitz;

namespace {

constexpr int kItems = 4;
constexpr int kInitialStock = 20;
constexpr int kShoppers = 8;
constexpr int kAttemptsEach = 15;

std::string ItemKey(int i) { return "stock/item" + std::to_string(i); }

enum class Purchase { kSold, kOutOfStock, kFailed };

// One purchase as a read-modify-write: a verified read of the stock,
// then one atomic write of the decremented stock and the order that
// carries the read. If another shopper sold the item in between, the
// write fails Aborted (or Busy while that sale is mid-commit) and the
// purchase starts over from a fresh read.
Purchase Buy(ClusterClient* client, const std::string& item,
             const std::string& order, std::atomic<int>* retries) {
  ReadOptions verified;
  verified.verify = true;
  for (int attempt = 0; attempt < 100; attempt++) {
    std::string stock;
    if (!client->Get(verified, item, &stock).ok()) return Purchase::kFailed;
    const int units = atoi(stock.c_str());
    if (units <= 0) return Purchase::kOutOfStock;  // no oversell
    WriteBatch batch;
    batch.Expect(item, Slice(stock));
    batch.Put(item, std::to_string(units - 1));
    batch.Put(order, item);
    Status s = client->Write(WriteOptions(), batch);
    if (s.ok()) return Purchase::kSold;
    if (!s.IsAborted() && !s.IsBusy()) return Purchase::kFailed;
    (*retries)++;
  }
  return Purchase::kFailed;
}

}  // namespace

int main() {
  // --- OLTP side: serializable purchases on a 4-shard cluster -------------
  LocalFleet::Options fleet_options;
  fleet_options.shards = 4;
  std::unique_ptr<LocalFleet> fleet;
  Status s = LocalFleet::Open(fleet_options, &fleet);
  std::unique_ptr<ClusterClient> client;
  if (s.ok()) s = ClusterClient::Open(fleet->ClusterOptions(), &client);
  if (!s.ok()) {
    fprintf(stderr, "cluster open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  WriteBatch init;
  for (int i = 0; i < kItems; i++) {
    init.Put(ItemKey(i), std::to_string(kInitialStock));
  }
  if (!client->Write(WriteOptions(), init).ok()) {
    fprintf(stderr, "stock initialization failed\n");
    return 1;
  }

  std::atomic<int> sold{0};
  std::atomic<int> rejected_out_of_stock{0};
  std::atomic<int> conflict_retries{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> shoppers;
  for (int t = 0; t < kShoppers; t++) {
    shoppers.emplace_back([&, t] {
      Random rng(100 + t);
      for (int i = 0; i < kAttemptsEach; i++) {
        const std::string order =
            "orders/" + std::to_string(t) + "-" + std::to_string(i);
        switch (Buy(client.get(), ItemKey(rng.Uniform(kItems)), order,
                    &conflict_retries)) {
          case Purchase::kSold:
            sold++;
            break;
          case Purchase::kOutOfStock:
            rejected_out_of_stock++;
            break;
          case Purchase::kFailed:
            failed++;
            break;
        }
      }
    });
  }
  for (auto& th : shoppers) th.join();

  // Serializability check: units sold == stock consumed, exactly.
  ReadOptions verified;
  verified.verify = true;
  int remaining = 0;
  for (int i = 0; i < kItems; i++) {
    std::string stock;
    if (client->Get(verified, ItemKey(i), &stock).ok()) {
      remaining += atoi(stock.c_str());
    }
  }
  printf("OLTP: sold=%d conflict-retries=%d out-of-stock-refusals=%d "
         "failed=%d\n",
         sold.load(), conflict_retries.load(), rejected_out_of_stock.load(),
         failed.load());
  printf("stock accounting: %d initial = %d remaining + %d sold  ->  %s\n",
         kItems * kInitialStock, remaining, sold.load(),
         (kItems * kInitialStock == remaining + sold.load())
             ? "consistent (serializable)"
             : "INCONSISTENT!");
  if (kItems * kInitialStock != remaining + sold.load()) return 1;
  if (failed.load() != 0) return 1;

  // --- Analytics side: verified scans at read committed -------------------
  // Each scan is proved against one cluster root digest, but it is not
  // part of any transaction: it reads the latest committed state and
  // aborts nobody.
  std::vector<PosEntry> rows;
  s = client->Scan(verified, "stock/", "stock0", 0, &rows);
  int low_stock = 0;
  for (const PosEntry& row : rows) {
    if (atoi(row.value.c_str()) < 50) low_stock++;
  }
  printf("\nverified stock scan: %zu items, %d with stock-level < 50, %s\n",
         rows.size(), low_stock, s.ToString().c_str());
  if (!s.ok() || rows.size() != kItems) return 1;

  std::vector<PosEntry> orders;
  Status orders_ok = client->Scan(verified, "orders/", "orders0", 0, &orders);
  printf("verified order scan: %zu orders recorded, %s\n", orders.size(),
         orders_ok.ToString().c_str());
  if (!orders_ok.ok() || orders.size() != static_cast<size_t>(sold.load())) {
    return 1;
  }
  uint64_t frames = 0;
  for (size_t i = 0; i < fleet->shards(); i++) {
    frames += fleet->server(i)->frames_served();
  }
  printf("control layer: %llu requests served by %zu shard servers\n",
         static_cast<unsigned long long>(frames), fleet->shards());
  return 0;
}
