#include <gtest/gtest.h>

#include <string>

#include "core/spitz_db.h"
#include "core/sql.h"

namespace spitz {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() : sql_(&db_) {
    SqlResult r;
    Status s = sql_.Execute(
        "CREATE TABLE orders ("
        "  order_id STRING PRIMARY KEY,"
        "  customer STRING INDEXED,"
        "  status STRING INDEXED,"
        "  amount NUMERIC INDEXED)",
        &r);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  Status Exec(const std::string& stmt, SqlResult* r) {
    return sql_.Execute(stmt, r);
  }

  SpitzDb db_;
  SqlDatabase sql_;
};

TEST_F(SqlTest, CreateDuplicateTableFails) {
  SqlResult r;
  EXPECT_TRUE(
      Exec("CREATE TABLE orders (x STRING PRIMARY KEY)", &r)
          .IsInvalidArgument());
}

TEST_F(SqlTest, CreateWithoutPrimaryKeyFails) {
  SqlResult r;
  EXPECT_TRUE(
      Exec("CREATE TABLE t2 (x STRING)", &r).IsInvalidArgument());
}

TEST_F(SqlTest, InsertAndSelectByPrimaryKey) {
  SqlResult r;
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, customer, amount) "
                   "VALUES ('o1', 'alice', 250)",
                   &r)
                  .ok());
  EXPECT_EQ(r.message, "1 row inserted");
  ASSERT_TRUE(Exec("SELECT * FROM orders WHERE order_id = 'o1'", &r).ok());
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.columns[0], "order_id");
  EXPECT_EQ(r.rows[0][0], "o1");
  EXPECT_EQ(r.rows[0][1], "alice");
  EXPECT_EQ(r.rows[0][3], "250");
}

TEST_F(SqlTest, SelectProjection) {
  SqlResult r;
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, customer, amount) "
                   "VALUES ('o1', 'bob', 99)",
                   &r)
                  .ok());
  ASSERT_TRUE(
      Exec("SELECT customer, amount FROM orders WHERE order_id = 'o1'", &r)
          .ok());
  ASSERT_EQ(r.columns, (std::vector<std::string>{"customer", "amount"}));
  EXPECT_EQ(r.rows[0], (std::vector<std::string>{"bob", "99"}));
}

TEST_F(SqlTest, SelectMissingRowReturnsEmpty) {
  SqlResult r;
  ASSERT_TRUE(Exec("SELECT * FROM orders WHERE order_id = 'ghost'", &r).ok());
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(SqlTest, UpdateThroughPrimaryKey) {
  SqlResult r;
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, status) "
                   "VALUES ('o1', 'pending')",
                   &r)
                  .ok());
  ASSERT_TRUE(
      Exec("UPDATE orders SET status = 'shipped' WHERE order_id = 'o1'", &r)
          .ok());
  ASSERT_TRUE(Exec("SELECT status FROM orders WHERE order_id = 'o1'", &r)
                  .ok());
  EXPECT_EQ(r.rows[0][0], "shipped");
}

TEST_F(SqlTest, UpdateWithoutPrimaryKeyPredicateRejected) {
  SqlResult r;
  EXPECT_TRUE(
      Exec("UPDATE orders SET status = 'x' WHERE customer = 'alice'", &r)
          .IsNotSupported());
}

TEST_F(SqlTest, DeleteIsRejectedByDesign) {
  SqlResult r;
  Status s = Exec("DELETE FROM orders WHERE order_id = 'o1'", &r);
  EXPECT_TRUE(s.IsNotSupported());
}

TEST_F(SqlTest, NumericBetweenUsesInvertedIndex) {
  SqlResult r;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(Exec("INSERT INTO orders (order_id, amount) VALUES ('o" +
                         std::to_string(i) + "', " + std::to_string(i * 10) +
                         ")",
                     &r)
                    .ok());
  }
  ASSERT_TRUE(
      Exec("SELECT order_id FROM orders WHERE amount BETWEEN 50 AND 80", &r)
          .ok());
  EXPECT_EQ(r.rows.size(), 4u);  // 50, 60, 70, 80
}

TEST_F(SqlTest, StringEqualsUsesInvertedIndex) {
  SqlResult r;
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, customer) "
                   "VALUES ('o1', 'alice')",
                   &r)
                  .ok());
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, customer) "
                   "VALUES ('o2', 'alice')",
                   &r)
                  .ok());
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, customer) "
                   "VALUES ('o3', 'bob')",
                   &r)
                  .ok());
  ASSERT_TRUE(
      Exec("SELECT order_id FROM orders WHERE customer = 'alice'", &r).ok());
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlTest, LikePrefixUsesRadixTree) {
  SqlResult r;
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, status) "
                   "VALUES ('o1', 'shipped')",
                   &r)
                  .ok());
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, status) "
                   "VALUES ('o2', 'shipping')",
                   &r)
                  .ok());
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, status) "
                   "VALUES ('o3', 'pending')",
                   &r)
                  .ok());
  ASSERT_TRUE(
      Exec("SELECT order_id FROM orders WHERE status LIKE 'ship%'", &r).ok());
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(
      Exec("SELECT * FROM orders WHERE status LIKE '%ship'", &r)
          .IsNotSupported());
}

TEST_F(SqlTest, PrimaryKeyBetweenScansRows) {
  SqlResult r;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(Exec("INSERT INTO orders (order_id, amount) VALUES ('o0" +
                         std::to_string(i) + "', 1)",
                     &r)
                    .ok());
  }
  ASSERT_TRUE(
      Exec("SELECT order_id FROM orders WHERE order_id BETWEEN 'o02' AND "
           "'o05'",
           &r)
          .ok());
  EXPECT_EQ(r.rows.size(), 4u);  // inclusive
}

TEST_F(SqlTest, FullScanWithoutWhere) {
  SqlResult r;
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(Exec("INSERT INTO orders (order_id, amount) VALUES ('o" +
                         std::to_string(i) + "', 1)",
                     &r)
                    .ok());
  }
  ASSERT_TRUE(Exec("SELECT order_id FROM orders", &r).ok());
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST_F(SqlTest, HistorySelectShowsProvenance) {
  SqlResult r;
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, status) "
                   "VALUES ('o1', 'pending')",
                   &r)
                  .ok());
  ASSERT_TRUE(
      Exec("UPDATE orders SET status = 'paid' WHERE order_id = 'o1'", &r)
          .ok());
  ASSERT_TRUE(
      Exec("UPDATE orders SET status = 'shipped' WHERE order_id = 'o1'", &r)
          .ok());
  ASSERT_TRUE(
      Exec("SELECT HISTORY(status) FROM orders WHERE order_id = 'o1'", &r)
          .ok());
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][2], "pending");
  EXPECT_EQ(r.rows[2][2], "shipped");
  EXPECT_EQ(r.columns,
            (std::vector<std::string>{"order_id", "version_ts", "status"}));
}

TEST_F(SqlTest, QuotedStringsWithEscapes) {
  SqlResult r;
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, customer) "
                   "VALUES ('o1', 'O''Brien')",
                   &r)
                  .ok());
  ASSERT_TRUE(Exec("SELECT customer FROM orders WHERE order_id = 'o1'", &r)
                  .ok());
  EXPECT_EQ(r.rows[0][0], "O'Brien");
}

TEST_F(SqlTest, SyntaxErrorsAreReported) {
  SqlResult r;
  EXPECT_TRUE(Exec("SELEC * FROM orders", &r).IsInvalidArgument());
  EXPECT_TRUE(Exec("INSERT orders VALUES (1)", &r).IsInvalidArgument());
  EXPECT_TRUE(Exec("SELECT * FROM no_such_table", &r).IsNotFound());
  EXPECT_TRUE(Exec("", &r).IsInvalidArgument());
  EXPECT_TRUE(
      Exec("INSERT INTO orders (order_id) VALUES ('a', 'b')", &r)
          .IsInvalidArgument());
}

TEST_F(SqlTest, SqlWritesAreLedgeredAndProvable) {
  SqlResult r;
  ASSERT_TRUE(Exec("INSERT INTO orders (order_id, amount) "
                   "VALUES ('o1', 42)",
                   &r)
                  .ok());
  EXPECT_GT(db_.ledger()->entry_count(), 0u);
  // The underlying cells are provable through the SpitzDb surface.
  Table* orders = sql_.GetTable("orders");
  ASSERT_NE(orders, nullptr);
  Row row;
  ASSERT_TRUE(orders->GetRowVerified("o1", &row).ok());
  EXPECT_EQ(row["amount"], "42");
}

}  // namespace
}  // namespace spitz
