// Cross-layer integration: the full production story in one test file —
// SQL front end over a durable SpitzDb, crash/reopen, client-side
// verification across restarts, requests served over TCP, and the
// analytics surfaces all interoperating.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "cluster/local_fleet.h"
#include "core/spitz_db.h"
#include "core/sql.h"
#include "core/verifier.h"

namespace spitz {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_integration_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  SpitzOptions Durable() {
    SpitzOptions options;
    options.block_size = 8;
    options.data_dir = dir_;
    return options;
  }

  std::string dir_;
};

TEST_F(IntegrationTest, SqlOverDurableDbSurvivesRestart) {
  ClientVerifier client;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(Durable(), &db).ok());
    SqlDatabase sql(db.get());
    SqlResult r;
    ASSERT_TRUE(sql.Execute("CREATE TABLE accounts ("
                            "  id STRING PRIMARY KEY,"
                            "  owner STRING INDEXED,"
                            "  balance NUMERIC INDEXED)",
                            &r)
                    .ok());
    for (int i = 0; i < 30; i++) {
      ASSERT_TRUE(sql.Execute("INSERT INTO accounts (id, owner, balance) "
                              "VALUES ('acc" +
                                  std::to_string(i) + "', 'owner" +
                                  std::to_string(i % 3) + "', " +
                                  std::to_string(i * 100) + ")",
                              &r)
                      .ok());
    }
    db->FlushBlock();
    ASSERT_TRUE(db->SyncStorage().ok());
    ASSERT_TRUE(client.ObserveDigest(db->Digest()).ok());
  }

  // "Restart": reopen from disk. The client kept only its digest.
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(Durable(), &db).ok());

  // The recovered digest matches what the client trusts, exactly.
  SpitzDigest recovered = db->Digest();
  EXPECT_EQ(recovered.index_root, client.digest().index_root);
  EXPECT_EQ(recovered.journal.merkle_root,
            client.digest().journal.merkle_root);

  // Verified reads of the SQL-written cells still check out against the
  // pre-restart digest (the SQL layer keys cells as t<id>/<pk>/<col>).
  std::string value;
  ReadProof proof;
  ASSERT_TRUE(
      db->Read(kCurrentVersion, "t1/acc7/balance", &value, &proof).ok());
  EXPECT_EQ(value, "700");
  EXPECT_TRUE(client.CheckRead("t1/acc7/balance", value, proof).ok());

  // New writes extend the ledger; the old client accepts the new digest
  // only with a consistency proof.
  ASSERT_TRUE(db->Put("post-restart-key", "v").ok());
  db->FlushBlock();
  MerkleConsistencyProof consistency;
  ASSERT_TRUE(db->ProveConsistency(client.digest(), &consistency).ok());
  EXPECT_TRUE(client.ObserveDigest(db->Digest(), &consistency).ok());
}

// Tables live on the ledger: after a close and reopen, a fresh
// SqlDatabase finds the catalog and answers every query as before.
TEST_F(IntegrationTest, SqlTablesSurviveReopen) {
  const std::vector<std::string> queries = {
      "SELECT * FROM accounts",
      "SELECT id, owner FROM accounts WHERE balance BETWEEN 300 AND 700",
      "SELECT HISTORY(balance) FROM accounts WHERE id = 'acc2'",
  };
  std::vector<SqlResult> before(queries.size());
  uint64_t first_ts = 0;
  Row at_first;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(Durable(), &db).ok());
    SqlDatabase sql(db.get());
    SqlResult r;
    ASSERT_TRUE(sql.Execute("CREATE TABLE accounts (id STRING PRIMARY KEY, "
                            "owner STRING INDEXED, balance NUMERIC INDEXED)",
                            &r)
                    .ok());
    for (int i = 0; i < 6; i++) {
      ASSERT_TRUE(sql.Execute("INSERT INTO accounts (id, owner, balance) "
                              "VALUES ('acc" + std::to_string(i) +
                                  "', 'owner" + std::to_string(i % 2) +
                                  "', " + std::to_string(i * 100) + ")",
                              &r)
                      .ok());
    }
    for (const char* balance : {"450", "900"}) {
      ASSERT_TRUE(sql.Execute(std::string("UPDATE accounts SET balance = ") +
                                  balance + " WHERE id = 'acc2'",
                              &r)
                      .ok());
    }
    for (size_t q = 0; q < queries.size(); q++) {
      ASSERT_TRUE(sql.Execute(queries[q], &before[q]).ok()) << queries[q];
    }
    ASSERT_EQ(before[0].rows.size(), 6u);
    ASSERT_EQ(before[1].rows.size(), 3u);  // acc3, acc4, acc5
    ASSERT_EQ(before[2].rows.size(), 3u);  // 200, 450, 900
    first_ts = std::stoull(before[2].rows[0][1]);
    Table* accounts = sql.GetTable("accounts");
    ASSERT_NE(accounts, nullptr);
    ASSERT_TRUE(accounts->GetRowAt("acc2", first_ts, &at_first).ok());
    EXPECT_EQ(at_first.at("balance"), "200");
    ASSERT_TRUE(db->SyncStorage().ok());
  }

  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(Durable(), &db).ok());
  SqlDatabase sql(db.get());
  for (size_t q = 0; q < queries.size(); q++) {
    SqlResult r;
    Status s = sql.Execute(queries[q], &r);
    ASSERT_TRUE(s.ok()) << queries[q] << ": " << s.ToString();
    EXPECT_EQ(r.columns, before[q].columns) << queries[q];
    EXPECT_EQ(r.rows, before[q].rows) << queries[q];
  }
  Table* accounts = sql.GetTable("accounts");
  ASSERT_NE(accounts, nullptr);
  Row row;
  ASSERT_TRUE(accounts->GetRowAt("acc2", first_ts, &row).ok());
  EXPECT_EQ(row, at_first);

  // The name is taken; a new table gets the next unused id.
  SqlResult r;
  EXPECT_TRUE(sql.Execute("CREATE TABLE accounts (id STRING PRIMARY KEY)", &r)
                  .IsInvalidArgument());
  ASSERT_TRUE(
      sql.Execute("CREATE TABLE audit (entry STRING PRIMARY KEY)", &r).ok());
  ASSERT_TRUE(
      sql.Execute("INSERT INTO audit (entry) VALUES ('e1')", &r).ok());
  std::string value;
  ASSERT_TRUE(db->Read(kCurrentVersion, "t2/e1/entry", &value, nullptr).ok());
  EXPECT_EQ(value, "e1");
}

TEST_F(IntegrationTest, ControlLayerOverDurableDb) {
  LocalFleet::Options fleet_options;
  fleet_options.db = Durable();
  SpitzDigest digest;
  {
    std::unique_ptr<LocalFleet> fleet;
    ASSERT_TRUE(LocalFleet::Open(fleet_options, &fleet).ok());
    std::unique_ptr<SpitzClient> client;
    ASSERT_TRUE(SpitzClient::Open(fleet->ClientOptions(0), &client).ok());
    for (int i = 0; i < 64; i++) {
      ASSERT_TRUE(client
                      ->Put("req" + std::to_string(i), "v" + std::to_string(i))
                      .ok());
    }
    std::string value;
    ASSERT_TRUE(client->VerifiedGet("req42", &value).ok());
    EXPECT_EQ(value, "v42");
    fleet->server(0)->Shutdown();
    SpitzDb* db = fleet->db(0);
    ASSERT_TRUE(db->auditor()->Drain().ok());
    db->FlushBlock();
    digest = db->Digest();
  }

  // After restart the served writes are intact and provable. The fleet
  // keeps shard 0's primary under primary0/.
  SpitzOptions reopen = Durable();
  reopen.data_dir += "/primary0";
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(reopen, &db).ok());
  EXPECT_EQ(db->Digest().index_root, digest.index_root);
  std::string value;
  ASSERT_TRUE(db->Get("req63", &value).ok());
  EXPECT_EQ(value, "v63");
}

TEST_F(IntegrationTest, HistoryQueriesAcrossRestart) {
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(Durable(), &db).ok());
    // Three generations of one record, each sealed.
    for (const char* v : {"draft", "review", "final"}) {
      for (int pad = 0; pad < 8; pad++) {  // fill a block per generation
        ASSERT_TRUE(
            db->Put(pad == 0 ? "doc" : "pad" + std::to_string(pad), v).ok());
      }
    }
    db->FlushBlock();
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(Durable(), &db).ok());
  // Time travel through recovered block roots.
  Hash256 root_gen0, root_gen2;
  ASSERT_TRUE(db->IndexRootAt(0, &root_gen0).ok());
  ASSERT_TRUE(db->IndexRootAt(2, &root_gen2).ok());
  std::string value;
  ASSERT_TRUE(db->Read(root_gen0, "doc", &value, nullptr).ok());
  EXPECT_EQ(value, "draft");
  ASSERT_TRUE(db->Read(root_gen2, "doc", &value, nullptr).ok());
  EXPECT_EQ(value, "final");
  // Scans of historical versions work post-recovery.
  std::vector<PosEntry> rows;
  ASSERT_TRUE(db->ReadRange(root_gen0, "doc", "", 1, &rows, nullptr).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, "doc");
  EXPECT_EQ(rows[0].value, "draft");
}

}  // namespace
}  // namespace spitz
