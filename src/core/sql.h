#ifndef SPITZ_CORE_SQL_H_
#define SPITZ_CORE_SQL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/table.h"

namespace spitz {

// ---------------------------------------------------------------------------
// The SQL front end of paper section 5.1: "Spitz supports both SQL and
// a self-defined JSON schema." A deliberately small dialect sufficient
// for the verifiable OLTP + analytics workloads the paper targets:
//
//   CREATE TABLE t (col TYPE [PRIMARY KEY] [INDEXED], ...)
//        TYPE in {STRING, NUMERIC}
//   INSERT INTO t (c1, c2, ...) VALUES ('v1', 2, ...)
//   UPDATE t SET c1 = 'v' [, ...] WHERE <pk-col> = 'k'
//   SELECT c1, c2 | * FROM t WHERE <predicate>
//        predicates: pk = 'k'
//                    pk BETWEEN 'a' AND 'b'       (pk range)
//                    col = 'v'                    (inverted index)
//                    col BETWEEN 10 AND 20        (numeric inverted index)
//                    col LIKE 'prefix%'           (radix prefix)
//   SELECT HISTORY(col) FROM t WHERE <pk-col> = 'k'   (cell provenance)
//
// DELETE is intentionally rejected: a verifiable database never deletes
// (paper section 1, immutability requirement).
// ---------------------------------------------------------------------------

struct SqlResult {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  // Statement kind feedback for non-query statements.
  std::string message;
};

// A catalog of tables over one SpitzDb instance. The catalog lives on
// the ledger: CREATE TABLE writes key c/<name> (DecodeCatalogEntry), and
// the first use of a SqlDatabase loads every table stored there, so a
// reopened database keeps its tables. Tables need a backend with ordered
// scans; on the MPT or MBT backend CREATE fails NotSupported.
class SqlDatabase {
 public:
  explicit SqlDatabase(SpitzDb* db) : db_(db) {}

  SqlDatabase(const SqlDatabase&) = delete;
  SqlDatabase& operator=(const SqlDatabase&) = delete;

  // Parses and executes one SQL statement.
  Status Execute(const Slice& sql, SqlResult* result);

  // Direct access for code that mixes SQL with the native API; nullptr
  // if there is no such table or the catalog cannot be read.
  Table* GetTable(const std::string& name);

 private:
  // Reads the catalog from the ledger unless already loaded.
  Status LoadCatalog();
  Status CreateTable(const TableSchema& schema);

  SpitzDb* db_;
  bool catalog_loaded_ = false;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  uint32_t next_table_id_ = 1;
};

}  // namespace spitz

#endif  // SPITZ_CORE_SQL_H_
