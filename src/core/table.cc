#include "core/table.h"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/codec.h"

namespace spitz {

int TableSchema::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns.size(); i++) {
    if (columns[i].name == column) return static_cast<int>(i);
  }
  return -1;
}

Status ValidateSchema(const TableSchema& schema) {
  if (schema.name.empty()) return Status::InvalidArgument("empty table name");
  std::set<std::string> names;
  for (const ColumnSpec& col : schema.columns) {
    if (col.name.empty() || static_cast<unsigned char>(col.name[0]) >= 0x80) {
      return Status::InvalidArgument(
          "a column name must be non-empty and start below byte 0x80");
    }
    if (!names.insert(col.name).second) {
      return Status::InvalidArgument("duplicate column: " + col.name);
    }
  }
  if (schema.ColumnIndex(schema.primary_key_column) < 0) {
    return Status::InvalidArgument("table needs a PRIMARY KEY column");
  }
  return Status::OK();
}

// varint32 id ‖ lp(name) ‖ lp(pk column) ‖ varint32 column count ‖
// per column: lp(name) ‖ type byte ‖ indexed byte.
std::string EncodeCatalogEntry(uint32_t table_id, const TableSchema& schema) {
  std::string out;
  PutVarint32(&out, table_id);
  PutLengthPrefixedSlice(&out, schema.name);
  PutLengthPrefixedSlice(&out, schema.primary_key_column);
  PutVarint32(&out, static_cast<uint32_t>(schema.columns.size()));
  for (const ColumnSpec& col : schema.columns) {
    PutLengthPrefixedSlice(&out, col.name);
    out.push_back(col.type == ColumnSpec::Type::kNumeric ? 1 : 0);
    out.push_back(col.inverted_indexed ? 1 : 0);
  }
  return out;
}

Status DecodeCatalogEntry(const Slice& bytes, uint32_t* table_id,
                          TableSchema* schema) {
  Slice input = bytes;
  Slice name, pk;
  uint64_t count = 0;
  *schema = TableSchema();
  Status s = GetVarint32(&input, table_id);
  if (s.ok()) s = GetLengthPrefixedSlice(&input, &name);
  if (s.ok()) s = GetLengthPrefixedSlice(&input, &pk);
  // A column takes a name length byte and two flag bytes at least.
  if (s.ok()) s = GetCount(&input, 3, &count);
  for (uint64_t i = 0; s.ok() && i < count; i++) {
    Slice col_name;
    bool numeric = false;
    ColumnSpec col;
    s = GetLengthPrefixedSlice(&input, &col_name);
    if (s.ok()) s = GetBool(&input, &numeric);
    if (s.ok()) s = GetBool(&input, &col.inverted_indexed);
    col.name = col_name.ToString();
    col.type = numeric ? ColumnSpec::Type::kNumeric : ColumnSpec::Type::kString;
    schema->columns.push_back(std::move(col));
  }
  if (s.ok()) s = CheckConsumed(input, "the columns");
  if (!s.ok()) return Status::Corruption("catalog entry: " + s.ToString());
  if (*table_id == 0) return Status::Corruption("catalog entry: table id 0");
  schema->name = name.ToString();
  schema->primary_key_column = pk.ToString();
  s = ValidateSchema(*schema);
  if (!s.ok()) return Status::Corruption("catalog entry: " + s.ToString());
  return Status::OK();
}

namespace {

// A pk byte above '/' is written as itself; a byte b <= '/' as '/'
// followed by 0x80 + b. A column name starts below 0x80, so the first
// '/' followed by such a byte ends the pk. The escape keeps pk byte
// order and makes one row one contiguous key range.
void AppendEscapedPk(const Slice& pk, std::string* out) {
  for (size_t i = 0; i < pk.size(); i++) {
    const uint8_t b = static_cast<uint8_t>(pk[i]);
    if (b > '/') {
      out->push_back(static_cast<char>(b));
    } else {
      out->push_back('/');
      out->push_back(static_cast<char>(0x80 + b));
    }
  }
}

// Splits the part of a cell key after t<id>/ into pk and column.
Status SplitCellKey(const Slice& key, std::string* pk, std::string* column) {
  pk->clear();
  for (size_t i = 0; i < key.size(); i++) {
    const uint8_t b = static_cast<uint8_t>(key[i]);
    if (b != '/') {
      pk->push_back(static_cast<char>(b));
      continue;
    }
    if (i + 1 == key.size()) break;
    const uint8_t next = static_cast<uint8_t>(key[i + 1]);
    if (next < 0x80) {
      column->assign(key.data() + i + 1, key.size() - i - 1);
      return Status::OK();
    }
    if (next > 0x80 + '/') break;
    pk->push_back(static_cast<char>(next - 0x80));
    i++;
  }
  return Status::Corruption("malformed cell key");
}

// The first key past every key that starts with `prefix` (whose last
// byte is below 0xff).
std::string PrefixEnd(std::string prefix) {
  prefix.back()++;
  return prefix;
}

}  // namespace

Table::Table(SpitzDb* db, TableSchema schema, uint32_t table_id)
    : db_(db),
      schema_(std::move(schema)),
      table_id_(table_id),
      prefix_("t" + std::to_string(table_id) + "/") {}

std::string Table::CellKey(const Slice& primary_key,
                           const std::string& column) const {
  std::string out = RowStart(primary_key);
  out += column;
  return out;
}

std::string Table::RowStart(const Slice& primary_key) const {
  std::string out = prefix_;
  AppendEscapedPk(primary_key, &out);
  out += '/';
  return out;
}

std::string Table::RowEnd(const Slice& primary_key) const {
  std::string out = RowStart(primary_key);
  out += static_cast<char>(0x80);
  return out;
}

Status Table::Upsert(const Row& row) {
  auto pk_it = row.find(schema_.primary_key_column);
  if (pk_it == row.end()) {
    return Status::InvalidArgument("row is missing the primary key column '" +
                                   schema_.primary_key_column + "'");
  }
  WriteBatch batch;
  for (const auto& [column, value] : row) {
    if (schema_.ColumnIndex(column) < 0) {
      return Status::InvalidArgument("unknown column '" + column + "'");
    }
    batch.Put(CellKey(pk_it->second, column), value);
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  Status s = db_->Write(batch);
  if (!s.ok()) return s;
  return db_->FlushBlock();
}

Status Table::UpsertJson(const Slice& json_text) {
  JsonValue doc;
  Status s = JsonValue::Parse(json_text, &doc);
  if (!s.ok()) return s;
  if (!doc.is_object()) {
    return Status::InvalidArgument("document must be a JSON object");
  }
  Row row;
  for (const auto& [key, value] : doc.members()) {
    switch (value.type()) {
      case JsonValue::Type::kString:
        row[key] = value.as_string();
        break;
      case JsonValue::Type::kNumber: {
        char buf[32];
        double d = value.as_number();
        if (d == static_cast<double>(static_cast<long long>(d))) {
          snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
        } else {
          snprintf(buf, sizeof(buf), "%.17g", d);
        }
        row[key] = buf;
        break;
      }
      case JsonValue::Type::kBool:
        row[key] = value.as_bool() ? "true" : "false";
        break;
      case JsonValue::Type::kNull:
        break;  // null column: skip
      default:
        return Status::InvalidArgument("column '" + key +
                                       "' must be a scalar");
    }
  }
  return Upsert(row);
}

Status Table::CellsToRows(
    const std::vector<PosEntry>& cells, size_t limit,
    std::vector<std::pair<std::string, Row>>* rows) const {
  rows->clear();
  std::string pk, column;
  for (const PosEntry& cell : cells) {
    Slice key(cell.key);
    key.remove_prefix(prefix_.size());
    Status s = SplitCellKey(key, &pk, &column);
    if (!s.ok()) return s;
    if (rows->empty() || rows->back().first != pk) {
      if (limit != 0 && rows->size() == limit) break;
      rows->emplace_back(pk, Row());
    }
    rows->back().second[column] = cell.value;
  }
  return Status::OK();
}

Status Table::CellsToRow(const std::vector<PosEntry>& cells, Row* row) const {
  std::vector<std::pair<std::string, Row>> rows;
  Status s = CellsToRows(cells, 0, &rows);
  if (!s.ok()) return s;
  if (rows.empty()) return Status::NotFound("row absent");
  *row = std::move(rows.front().second);
  return Status::OK();
}

Status Table::ReadRow(const ReadVersion& at, const Slice& primary_key,
                      Row* row) const {
  row->clear();
  std::vector<PosEntry> cells;
  Status s = db_->ReadRange(at, RowStart(primary_key), RowEnd(primary_key), 0,
                            &cells, nullptr);
  if (!s.ok()) return s;
  return CellsToRow(cells, row);
}

Status Table::GetRow(const Slice& primary_key, Row* row) const {
  return ReadRow(kCurrentVersion, primary_key, row);
}

Status Table::GetRowVerified(const Slice& primary_key, Row* row) const {
  row->clear();
  const SpitzDigest digest = db_->Digest();
  const std::string start = RowStart(primary_key);
  const std::string end = RowEnd(primary_key);
  std::vector<PosEntry> cells;
  spitz::ScanProof proof;
  Status s = db_->ReadRange(digest.index_root, start, end, 0, &cells, &proof);
  if (s.ok()) s = VerifyScan(digest, start, end, 0, cells, proof);
  if (!s.ok()) return s;
  return CellsToRow(cells, row);
}

Status Table::ScanRows(
    const Slice& start, const Slice& end, size_t limit,
    std::vector<std::pair<std::string, Row>>* rows) const {
  rows->clear();
  std::string start_key = prefix_;
  AppendEscapedPk(start, &start_key);
  std::string end_key = prefix_;
  if (end.empty()) {
    end_key = PrefixEnd(prefix_);
  } else {
    AppendEscapedPk(end, &end_key);
  }
  // A row has at most one cell per column, so the first `limit` rows
  // lie within the first limit * columns cells.
  std::vector<PosEntry> cells;
  Status s = db_->ReadRange(kCurrentVersion, start_key, end_key,
                            limit * schema_.columns.size(), &cells, nullptr);
  if (!s.ok()) return s;
  return CellsToRows(cells, limit, rows);
}

uint64_t Table::row_count() const {
  std::vector<std::pair<std::string, Row>> rows;
  if (!ScanRows("", "", 0, &rows).ok()) return 0;
  return rows.size();
}

Status Table::CellHistory(
    const Slice& primary_key, const std::string& column,
    std::vector<std::pair<uint64_t, std::string>>* versions) const {
  versions->clear();
  if (schema_.ColumnIndex(column) < 0) {
    return Status::InvalidArgument("unknown column");
  }
  const std::string key = CellKey(primary_key, column);
  std::vector<SpitzDb::HistoricalWrite> writes;
  Status s = db_->ledger()->KeyHistory(key, &writes);
  if (!s.ok()) return s;
  for (const SpitzDb::HistoricalWrite& write : writes) {
    Hash256 root;
    std::string value;
    s = db_->ledger()->IndexRootAt(write.block_height, &root);
    if (s.ok()) s = db_->Read(root, key, &value, nullptr);
    if (s.ok() && Hash256::Of(value) != write.entry.value_hash) {
      s = Status::Corruption("cell value does not match its ledger entry");
    }
    if (!s.ok()) {
      versions->clear();
      return s;
    }
    versions->emplace_back(write.entry.commit_ts, std::move(value));
  }
  return Status::OK();
}

Status Table::GetRowAt(const Slice& primary_key, uint64_t snapshot_ts,
                       Row* row) const {
  row->clear();
  // Every Upsert writes the primary key cell, so its history holds
  // every version of the row, each sealed in its own block.
  std::vector<SpitzDb::HistoricalWrite> writes;
  Status s = db_->ledger()->KeyHistory(
      CellKey(primary_key, schema_.primary_key_column), &writes);
  if (!s.ok() && !s.IsNotFound()) return s;
  const SpitzDb::HistoricalWrite* last = nullptr;
  for (const SpitzDb::HistoricalWrite& write : writes) {
    if (write.entry.commit_ts <= snapshot_ts) last = &write;
  }
  if (last == nullptr) return Status::NotFound("row absent at timestamp");
  Hash256 root;
  s = db_->ledger()->IndexRootAt(last->block_height, &root);
  if (!s.ok()) return s;
  return ReadRow(root, primary_key, row);
}

Status Table::QueryColumn(
    const std::string& column,
    const std::function<bool(const std::string&)>& match,
    std::vector<std::string>* pks) const {
  pks->clear();
  int col = schema_.ColumnIndex(column);
  if (col < 0 || !schema_.columns[col].inverted_indexed) {
    return Status::InvalidArgument("column is not INDEXED: " + column);
  }
  std::vector<std::pair<std::string, Row>> rows;
  Status s = ScanRows("", "", 0, &rows);
  if (!s.ok()) return s;
  for (const auto& [pk, row] : rows) {
    auto it = row.find(column);
    if (it != row.end() && match(it->second)) pks->push_back(pk);
  }
  return Status::OK();
}

Status Table::QueryNumericRange(const std::string& column, uint64_t lo,
                                uint64_t hi,
                                std::vector<std::string>* pks) const {
  return QueryColumn(
      column,
      [lo, hi](const std::string& value) {
        uint64_t v = strtoull(value.c_str(), nullptr, 10);
        return lo <= v && v <= hi;
      },
      pks);
}

Status Table::QueryStringEquals(const std::string& column, const Slice& value,
                                std::vector<std::string>* pks) const {
  return QueryColumn(
      column, [&value](const std::string& v) { return Slice(v) == value; },
      pks);
}

Status Table::QueryStringPrefix(const std::string& column,
                                const Slice& prefix,
                                std::vector<std::string>* pks) const {
  return QueryColumn(
      column,
      [&prefix](const std::string& v) { return Slice(v).starts_with(prefix); },
      pks);
}

}  // namespace spitz
