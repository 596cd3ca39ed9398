#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/codec.h"
#include "core/sql.h"
#include "core/table.h"

namespace spitz {
namespace {

TableSchema OrdersSchema() {
  TableSchema schema;
  schema.name = "orders";
  schema.primary_key_column = "order_id";
  schema.columns = {
      {"order_id", ColumnSpec::Type::kString, false},
      {"customer", ColumnSpec::Type::kString, true},
      {"status", ColumnSpec::Type::kString, true},
      {"amount", ColumnSpec::Type::kNumeric, true},
  };
  return schema;
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : table_(&db_, OrdersSchema(), 1) {}

  SpitzDb db_;
  Table table_;
};

TEST_F(TableTest, UpsertAndGetRow) {
  ASSERT_TRUE(table_
                  .Upsert({{"order_id", "o1"},
                           {"customer", "alice"},
                           {"status", "pending"},
                           {"amount", "250"}})
                  .ok());
  Row row;
  ASSERT_TRUE(table_.GetRow("o1", &row).ok());
  EXPECT_EQ(row["customer"], "alice");
  EXPECT_EQ(row["amount"], "250");
  EXPECT_EQ(table_.row_count(), 1u);
}

TEST_F(TableTest, MissingRowNotFound) {
  Row row;
  EXPECT_TRUE(table_.GetRow("ghost", &row).IsNotFound());
}

TEST_F(TableTest, UpsertRequiresPrimaryKey) {
  EXPECT_TRUE(table_.Upsert({{"customer", "bob"}}).IsInvalidArgument());
}

TEST_F(TableTest, UpsertRejectsUnknownColumn) {
  EXPECT_TRUE(table_
                  .Upsert({{"order_id", "o1"}, {"bogus", "x"}})
                  .IsInvalidArgument());
}

TEST_F(TableTest, PartialUpdateKeepsOtherColumns) {
  ASSERT_TRUE(table_
                  .Upsert({{"order_id", "o1"},
                           {"customer", "alice"},
                           {"status", "pending"}})
                  .ok());
  ASSERT_TRUE(table_.Upsert({{"order_id", "o1"}, {"status", "shipped"}}).ok());
  Row row;
  ASSERT_TRUE(table_.GetRow("o1", &row).ok());
  EXPECT_EQ(row["customer"], "alice");
  EXPECT_EQ(row["status"], "shipped");
  EXPECT_EQ(table_.row_count(), 1u);  // still one row
}

TEST_F(TableTest, UpsertJsonDocument) {
  ASSERT_TRUE(table_
                  .UpsertJson(R"({"order_id":"o9","customer":"carol",
                                  "status":"pending","amount":99})")
                  .ok());
  Row row;
  ASSERT_TRUE(table_.GetRow("o9", &row).ok());
  EXPECT_EQ(row["customer"], "carol");
  EXPECT_EQ(row["amount"], "99");
}

TEST_F(TableTest, UpsertJsonRejectsNonObject) {
  EXPECT_TRUE(table_.UpsertJson("[1,2,3]").IsInvalidArgument());
  EXPECT_TRUE(table_.UpsertJson("{bad json").IsInvalidArgument());
}

TEST_F(TableTest, NumericRangeQuery) {
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(table_
                    .Upsert({{"order_id", "o" + std::to_string(i)},
                             {"amount", std::to_string(i * 10)}})
                    .ok());
  }
  std::vector<std::string> pks;
  ASSERT_TRUE(table_.QueryNumericRange("amount", 100, 150, &pks).ok());
  // amounts 100,110,...,150 -> o10..o15
  EXPECT_EQ(pks.size(), 6u);
}

TEST_F(TableTest, NumericRangeReflectsUpdates) {
  ASSERT_TRUE(table_.Upsert({{"order_id", "o1"}, {"amount", "100"}}).ok());
  ASSERT_TRUE(table_.Upsert({{"order_id", "o1"}, {"amount", "500"}}).ok());
  std::vector<std::string> pks;
  ASSERT_TRUE(table_.QueryNumericRange("amount", 50, 150, &pks).ok());
  EXPECT_TRUE(pks.empty()) << "old value must be unindexed";
  ASSERT_TRUE(table_.QueryNumericRange("amount", 400, 600, &pks).ok());
  EXPECT_EQ(pks, std::vector<std::string>{"o1"});
}

TEST_F(TableTest, StringQueries) {
  ASSERT_TRUE(
      table_.Upsert({{"order_id", "o1"}, {"status", "shipped"}}).ok());
  ASSERT_TRUE(
      table_.Upsert({{"order_id", "o2"}, {"status", "shipping"}}).ok());
  ASSERT_TRUE(
      table_.Upsert({{"order_id", "o3"}, {"status", "pending"}}).ok());
  std::vector<std::string> pks;
  ASSERT_TRUE(table_.QueryStringEquals("status", "shipped", &pks).ok());
  EXPECT_EQ(pks, std::vector<std::string>{"o1"});
  ASSERT_TRUE(table_.QueryStringPrefix("status", "ship", &pks).ok());
  EXPECT_EQ(pks.size(), 2u);
  ASSERT_TRUE(table_.QueryStringEquals("status", "unknown", &pks).ok());
  EXPECT_TRUE(pks.empty());
}

TEST_F(TableTest, QueryOnUnindexedColumnFails) {
  std::vector<std::string> pks;
  EXPECT_TRUE(
      table_.QueryNumericRange("order_id", 0, 10, &pks).IsInvalidArgument());
}

TEST_F(TableTest, CellHistoryTracksVersions) {
  ASSERT_TRUE(table_.Upsert({{"order_id", "o1"}, {"status", "pending"}}).ok());
  ASSERT_TRUE(table_.Upsert({{"order_id", "o1"}, {"status", "paid"}}).ok());
  ASSERT_TRUE(table_.Upsert({{"order_id", "o1"}, {"status", "shipped"}}).ok());
  std::vector<std::pair<uint64_t, std::string>> versions;
  ASSERT_TRUE(table_.CellHistory("o1", "status", &versions).ok());
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].second, "pending");
  EXPECT_EQ(versions[2].second, "shipped");
  EXPECT_LT(versions[0].first, versions[2].first);
}

TEST_F(TableTest, GetRowAtSnapshot) {
  ASSERT_TRUE(table_.Upsert({{"order_id", "o1"}, {"status", "pending"}}).ok());
  std::vector<std::pair<uint64_t, std::string>> versions;
  ASSERT_TRUE(table_.CellHistory("o1", "status", &versions).ok());
  uint64_t first_ts = versions[0].first;
  ASSERT_TRUE(table_.Upsert({{"order_id", "o1"}, {"status", "shipped"}}).ok());
  Row row;
  ASSERT_TRUE(table_.GetRowAt("o1", first_ts, &row).ok());
  EXPECT_EQ(row["status"], "pending");
}

TEST_F(TableTest, VerifiedRowReadChecksProofs) {
  ASSERT_TRUE(table_
                  .Upsert({{"order_id", "o1"},
                           {"customer", "alice"},
                           {"status", "pending"},
                           {"amount", "250"}})
                  .ok());
  Row row;
  ASSERT_TRUE(table_.GetRowVerified("o1", &row).ok());
  EXPECT_EQ(row.size(), 4u);
  EXPECT_EQ(row["customer"], "alice");
}

TEST_F(TableTest, ScanRowsByPrimaryKeyRange) {
  for (int i = 0; i < 30; i++) {
    char pk[16];
    snprintf(pk, sizeof(pk), "o%04d", i);
    ASSERT_TRUE(table_
                    .Upsert({{"order_id", pk},
                             {"amount", std::to_string(i)}})
                    .ok());
  }
  std::vector<std::pair<std::string, Row>> rows;
  ASSERT_TRUE(table_.ScanRows("o0010", "o0015", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows.front().first, "o0010");
  EXPECT_EQ(rows.front().second.at("amount"), "10");
  ASSERT_TRUE(table_.ScanRows("o0000", "", 3, &rows).ok());
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(TableTest, WritesAreLedgered) {
  ASSERT_TRUE(table_.Upsert({{"order_id", "o1"}, {"status", "x"}}).ok());
  // Two cells (order_id + status) -> two ledger entries.
  EXPECT_EQ(db_.entry_count(), 2u);
}

// Primary keys holding '/' and bytes below it are escaped in cell keys:
// no two rows share a cell, and a scan returns rows in pk byte order.
TEST_F(TableTest, PrimaryKeysNeverShareACell) {
  const std::vector<std::string> pks = {"a",     "a/b",  "a!",
                                        "a\x01", "p-001", ""};
  for (size_t i = 0; i < pks.size(); i++) {
    ASSERT_TRUE(table_
                    .Upsert({{"order_id", pks[i]},
                             {"amount", std::to_string(i)}})
                    .ok());
  }
  for (size_t i = 0; i < pks.size(); i++) {
    Row row;
    ASSERT_TRUE(table_.GetRow(pks[i], &row).ok()) << i;
    EXPECT_EQ(row, (Row{{"order_id", pks[i]}, {"amount", std::to_string(i)}}))
        << i;
    ASSERT_TRUE(table_.GetRowVerified(pks[i], &row).ok()) << i;
    EXPECT_EQ(row.at("amount"), std::to_string(i)) << i;
  }
  std::vector<std::pair<std::string, Row>> rows;
  ASSERT_TRUE(table_.ScanRows("", "", 0, &rows).ok());
  std::vector<std::string> scanned;
  for (const auto& [pk, row] : rows) scanned.push_back(pk);
  std::vector<std::string> sorted = pks;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(scanned, sorted);
  EXPECT_EQ(table_.row_count(), pks.size());
  ASSERT_TRUE(table_.ScanRows("a", "a/", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 3u);  // a, a\x01, a!
  EXPECT_EQ(rows.back().first, "a!");
}

// Tables need ordered scans; the MPT backend has none.
TEST(TableBackendTest, CreateOnMptIsNotSupported) {
  SpitzOptions options;
  options.index_backend = SiriBackend::kMerklePatriciaTrie;
  SpitzDb db(options);
  SqlDatabase sql(&db);
  SqlResult r;
  EXPECT_TRUE(sql.Execute("CREATE TABLE t (k STRING PRIMARY KEY)", &r)
                  .IsNotSupported());
  EXPECT_EQ(sql.GetTable("t"), nullptr);
}

// --- Tampering with the files under a table ----------------------------------

class TableTamperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_table_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // A durable database behind a 64 KiB cache.
  std::unique_ptr<SpitzDb> Open() {
    SpitzOptions options;
    options.data_dir = dir_;
    options.buffer_cache_bytes = 64 << 10;
    std::unique_ptr<SpitzDb> db;
    EXPECT_TRUE(SpitzDb::Open(options, &db).ok());
    return db;
  }

  // Flips one byte of every occurrence of `marker` in the chunk log;
  // returns how many it flipped.
  int FlipChunkBytes(const std::string& marker) {
    int found = 0;
    for (const auto& file :
         std::filesystem::directory_iterator(dir_ + "/chunks")) {
      std::fstream f(file.path(),
                     std::ios::binary | std::ios::in | std::ios::out);
      std::string bytes((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
      for (size_t at = bytes.find(marker); at != std::string::npos;
           at = bytes.find(marker, at + 1)) {
        found++;
        f.clear();
        f.seekp(static_cast<std::streamoff>(at + marker.size() / 2));
        f.put(static_cast<char>(bytes[at + marker.size() / 2] ^ 0x01));
      }
    }
    return found;
  }

  // Flips one byte in the middle of block `height`'s frame in
  // journal.log (frames are lp(payload) ‖ crc32c; frame 0 is the
  // header, so block h is frame h + 1).
  void FlipJournalByte(uint64_t height) {
    const std::string path = dir_ + "/journal.log";
    std::ifstream in(path, std::ios::binary);
    const std::string contents((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    Slice input(contents);
    Slice payload;
    for (uint64_t frame = 0; frame <= height + 1; frame++) {
      if (frame > 0) input.remove_prefix(sizeof(uint32_t));
      ASSERT_TRUE(GetLengthPrefixedSlice(&input, &payload).ok());
    }
    const auto at = static_cast<std::streamoff>(
        payload.data() - contents.data() + payload.size() / 2);
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(at);
    io.put(static_cast<char>(contents[at] ^ 0x20));
  }

  std::string dir_;
};

// A byte flipped in the chunk log under a row's cell fails the verified
// row read once the cell is read back from disk.
TEST_F(TableTamperTest, FlippedChunkByteFailsVerifiedRow) {
  std::unique_ptr<SpitzDb> db = Open();
  std::vector<PosEntry> filler;
  for (int i = 0; i < 4000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "f%05d", i);
    filler.push_back({key, std::string(80, 'x')});
  }
  ASSERT_TRUE(db->BulkLoad(filler).ok());
  Table table(db.get(), OrdersSchema(), 1);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(table
                    .Upsert({{"order_id", "o" + std::to_string(i)},
                             {"customer", "c" + std::to_string(i)}})
                    .ok());
  }
  const std::string marker = "tampered-customer-value";
  ASSERT_TRUE(table.Upsert({{"order_id", "o7"}, {"customer", marker}}).ok());
  ASSERT_TRUE(db->SyncStorage().ok());
  Row row;
  ASSERT_TRUE(table.GetRowVerified("o7", &row).ok());
  EXPECT_EQ(row.at("customer"), marker);

  ASSERT_GE(FlipChunkBytes(marker), 1);
  // Churn the cache with the first half of the filler, far from the
  // table's keys, so the damaged leaf is read back from its segment.
  std::string value;
  for (size_t i = 0; i < filler.size() / 2; i++) {
    ASSERT_TRUE(
        db->Read(kCurrentVersion, filler[i].key, &value, nullptr).ok());
  }
  Status s = table.GetRowVerified("o7", &row);
  EXPECT_TRUE(s.IsCorruption() || s.IsVerificationFailed()) << s.ToString();
  EXPECT_TRUE(row.empty());
}

// A byte flipped in journal.log under a cell's write fails the cell's
// history, natively and through SELECT HISTORY, with no partial list.
TEST_F(TableTamperTest, FlippedJournalByteFailsHistory) {
  std::unique_ptr<SpitzDb> db = Open();
  SqlDatabase sql(db.get());
  SqlResult r;
  ASSERT_TRUE(sql.Execute("CREATE TABLE orders (order_id STRING PRIMARY KEY, "
                          "status STRING)",
                          &r)
                  .ok());
  ASSERT_TRUE(sql.Execute("INSERT INTO orders (order_id, status) "
                          "VALUES ('o1', 'pending')",
                          &r)
                  .ok());
  for (const char* status : {"paid", "shipped"}) {
    ASSERT_TRUE(sql.Execute(std::string("UPDATE orders SET status = '") +
                                status + "' WHERE order_id = 'o1'",
                            &r)
                    .ok());
  }
  ASSERT_TRUE(db->SyncStorage().ok());
  const std::string query =
      "SELECT HISTORY(status) FROM orders WHERE order_id = 'o1'";
  ASSERT_TRUE(sql.Execute(query, &r).ok());
  ASSERT_EQ(r.rows.size(), 3u);

  std::vector<SpitzDb::HistoricalWrite> writes;
  ASSERT_TRUE(db->KeyHistory("t1/o1/status", &writes).ok());
  ASSERT_EQ(writes.size(), 3u);
  FlipJournalByte(writes[1].block_height);

  std::vector<std::pair<uint64_t, std::string>> versions;
  Status s = sql.GetTable("orders")->CellHistory("o1", "status", &versions);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(versions.empty());
  s = sql.Execute(query, &r);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

}  // namespace
}  // namespace spitz
