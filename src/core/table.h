#ifndef SPITZ_CORE_TABLE_H_
#define SPITZ_CORE_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/spitz_db.h"

namespace spitz {

// A column of a Spitz table. An inverted_indexed (SQL: INDEXED) column
// may be queried by value (section 5, "Inverted Index").
struct ColumnSpec {
  enum class Type { kString, kNumeric };

  std::string name;
  Type type = Type::kString;
  bool inverted_indexed = false;
};

struct TableSchema {
  std::string name;
  std::string primary_key_column;
  std::vector<ColumnSpec> columns;

  // Index of a column within `columns`, or -1.
  int ColumnIndex(const std::string& column) const;
};

// InvalidArgument unless `schema` can be stored: a non-empty name,
// non-empty and distinct column names whose first byte is below 0x80
// (the cell-key encoding relies on it), and a primary key column among
// the columns.
Status ValidateSchema(const TableSchema& schema);

// The catalog entry of a table: the value of ledger key c/<name>,
// holding the table id and the encoded schema. The decoder reads bytes
// back from the ledger, so it rejects anything but a complete entry of
// a valid schema.
std::string EncodeCatalogEntry(uint32_t table_id, const TableSchema& schema);
Status DecodeCatalogEntry(const Slice& input, uint32_t* table_id,
                          TableSchema* schema);

// One materialized row.
using Row = std::map<std::string, std::string>;

// ---------------------------------------------------------------------------
// Table — the structured-data surface of Spitz (sections 5 and 5.1).
// Each (row, column) pair is a *cell* filed under its key
// t<id>/<escaped pk>/<column> in the one ledgered SpitzDb, so every
// read is a read of the ledger: a row is one contiguous key range, a
// table scan is a range read, and a cell's history is the key's
// history. Each Upsert seals one block, so a row version is a block
// and time travel reads at that block's index root. `db` must serve
// ordered scans (the POS-tree backend).
//
// Rows can be inserted as JSON documents (the paper's "self-defined JSON
// schema" interface) or as explicit column maps.
// ---------------------------------------------------------------------------
class Table {
 public:
  Table(SpitzDb* db, TableSchema schema, uint32_t table_id);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }

  // --- Writes ----------------------------------------------------------------

  // Inserts or updates a row given as a column->value map, then seals
  // the block. The map must contain the primary key column; unspecified
  // columns keep their previous value.
  Status Upsert(const Row& row);

  // Inserts or updates a row from a JSON object document.
  Status UpsertJson(const Slice& json_text);

  // --- Point reads ---------------------------------------------------------------

  // Latest row image: one range read over the row's cells.
  Status GetRow(const Slice& primary_key, Row* row) const;

  // Latest row, read with a range proof at one digest and verified
  // against that digest before returning.
  Status GetRowVerified(const Slice& primary_key, Row* row) const;

  // Value history of one cell, oldest first: (commit timestamp, value).
  // Each value is read at its block's index root and checked against
  // the ledgered value hash; if any version cannot be read the call
  // fails and returns no versions.
  Status CellHistory(const Slice& primary_key, const std::string& column,
                     std::vector<std::pair<uint64_t, std::string>>* versions)
      const;

  // Row image as of a commit timestamp.
  Status GetRowAt(const Slice& primary_key, uint64_t snapshot_ts,
                  Row* row) const;

  // --- Analytical queries (section 5.1 read workload) ------------------------
  //
  // Each is one range read over the table filtered on an INDEXED column;
  // primary keys come back in pk order.

  // Primary keys of rows whose numeric column value lies in [lo, hi].
  Status QueryNumericRange(const std::string& column, uint64_t lo,
                           uint64_t hi, std::vector<std::string>* pks) const;

  // Primary keys of rows whose string column equals `value`.
  Status QueryStringEquals(const std::string& column, const Slice& value,
                           std::vector<std::string>* pks) const;

  // Primary keys of rows whose string column starts with `prefix`.
  Status QueryStringPrefix(const std::string& column, const Slice& prefix,
                           std::vector<std::string>* pks) const;

  // Rows with primary key in [start, end) in pk byte order (an empty
  // `end` is unbounded), at most `limit` rows (0 = no limit).
  Status ScanRows(const Slice& start, const Slice& end, size_t limit,
                  std::vector<std::pair<std::string, Row>>* rows) const;

  // Rows in the table (0 if the table cannot be read).
  uint64_t row_count() const;

 private:
  // Key of a cell: t<id>/<escaped pk>/<column>.
  std::string CellKey(const Slice& primary_key,
                      const std::string& column) const;
  // The key range [start, end) holding exactly one row's cells.
  std::string RowStart(const Slice& primary_key) const;
  std::string RowEnd(const Slice& primary_key) const;

  // Groups the cells of a range read of this table into rows, in key
  // order, at most `limit` rows (0 = no limit).
  Status CellsToRows(const std::vector<PosEntry>& cells, size_t limit,
                     std::vector<std::pair<std::string, Row>>* rows) const;
  // The one row a read of RowStart..RowEnd returned; NotFound if none.
  Status CellsToRow(const std::vector<PosEntry>& cells, Row* row) const;
  // The row as of index version `at`.
  Status ReadRow(const ReadVersion& at, const Slice& primary_key,
                 Row* row) const;
  // Primary keys of the rows whose `column` cell satisfies `match`.
  Status QueryColumn(const std::string& column,
                     const std::function<bool(const std::string&)>& match,
                     std::vector<std::string>* pks) const;

  SpitzDb* db_;
  TableSchema schema_;
  uint32_t table_id_;
  std::string prefix_;  // t<id>/
  // Serializes Upsert's write and seal, so no two versions of a row
  // share a block.
  std::mutex write_mu_;
};

}  // namespace spitz

#endif  // SPITZ_CORE_TABLE_H_
