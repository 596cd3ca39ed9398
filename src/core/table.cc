#include "core/table.h"

#include <cstdio>
#include <cstdlib>

namespace spitz {

int TableSchema::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns.size(); i++) {
    if (columns[i].name == column) return static_cast<int>(i);
  }
  return -1;
}

Table::Table(SpitzDb* db, ChunkStore* cell_chunks, TableSchema schema,
             uint32_t table_id)
    : db_(db),
      cells_(cell_chunks),
      schema_(std::move(schema)),
      table_id_(table_id) {
  for (const ColumnSpec& col : schema_.columns) {
    if (col.inverted_indexed) {
      inverted_.emplace(col.name, std::make_unique<InvertedIndex>());
    }
  }
}

std::string Table::CellKey(const Slice& primary_key,
                           const std::string& column) const {
  std::string out = "t";
  out += std::to_string(table_id_);
  out += '/';
  out.append(primary_key.data(), primary_key.size());
  out += '/';
  out += column;
  return out;
}

Status Table::Upsert(const Row& row) {
  std::lock_guard<std::mutex> lock(mu_);
  return UpsertLocked(row);
}

Status Table::UpsertLocked(const Row& row) {
  auto pk_it = row.find(schema_.primary_key_column);
  if (pk_it == row.end()) {
    return Status::InvalidArgument("row is missing the primary key column '" +
                                   schema_.primary_key_column + "'");
  }
  const std::string& pk = pk_it->second;
  uint64_t ts = version_clock_.Allocate();

  bool is_new_row = pk_index_.Put(pk, std::to_string(ts));

  WriteBatch ledgered;
  for (const auto& [column, value] : row) {
    int col = schema_.ColumnIndex(column);
    if (col < 0) {
      return Status::InvalidArgument("unknown column '" + column + "'");
    }
    const ColumnSpec& spec = schema_.columns[col];

    // Maintain the inverted index: unindex the previous value first.
    auto inv_it = inverted_.find(column);
    if (inv_it != inverted_.end()) {
      Cell previous;
      if (cells_.ReadLatest(static_cast<uint32_t>(col), pk, &previous).ok()) {
        // The previous value may predate index creation; a missing
        // posting is not an error.
        if (spec.type == ColumnSpec::Type::kNumeric) {
          (void)inv_it->second->RemoveNumeric(
              strtoull(previous.value.c_str(), nullptr, 10), pk);
        } else {
          (void)inv_it->second->RemoveString(previous.value, pk);
        }
      }
      if (spec.type == ColumnSpec::Type::kNumeric) {
        inv_it->second->AddNumeric(strtoull(value.c_str(), nullptr, 10), pk);
      } else {
        inv_it->second->AddString(value, pk);
      }
    }

    // Multi-version cell write.
    cells_.Write(static_cast<uint32_t>(col), pk, ts, value);
    // Ledgered latest-value write (provable through SpitzDb).
    ledgered.Put(CellKey(pk, column), value);
  }
  Status s = db_->Write(ledgered);
  if (!s.ok()) return s;
  if (is_new_row) row_count_++;
  return Status::OK();
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

Status Table::MaterializeRowLocked(const Slice& primary_key,
                                   Row* row) const {
  row->clear();
  for (size_t i = 0; i < schema_.columns.size(); i++) {
    Cell cell;
    Status s =
        cells_.ReadLatest(static_cast<uint32_t>(i), primary_key, &cell);
    if (s.IsNotFound()) continue;
    if (!s.ok()) return s;
    (*row)[schema_.columns[i].name] = cell.value;
  }
  if (row->empty()) return Status::NotFound("row absent");
  return Status::OK();
}

Status Table::GetRow(const Slice& primary_key, Row* row) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Route through the B+-tree first: absent keys never touch the cells.
  std::string unused_ts;
  if (!pk_index_.Get(primary_key, &unused_ts).ok()) {
    return Status::NotFound("row absent");
  }
  return MaterializeRowLocked(primary_key, row);
}

Status Table::ScanRows(
    const Slice& start, const Slice& end, size_t limit,
    std::vector<std::pair<std::string, Row>>* rows) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> pks;
  pk_index_.Scan(start, end, limit, &pks);
  rows->clear();
  rows->reserve(pks.size());
  for (const auto& [pk, ts] : pks) {
    Row row;
    Status s = MaterializeRowLocked(pk, &row);
    if (!s.ok()) return s;
    rows->emplace_back(pk, std::move(row));
  }
  return Status::OK();
}

Status Table::GetRowVerified(const Slice& primary_key, Row* row) const {
  // Each cell's latest value is a verified read of the ledgered key
  // space (proved and checked at one pinned digest per cell).
  row->clear();
  for (const ColumnSpec& col : schema_.columns) {
    std::string value;
    Status s = db_->VerifiedGet(CellKey(primary_key, col.name), &value);
    if (s.IsNotFound()) continue;
    if (!s.ok()) return s;
    (*row)[col.name] = value;
  }
  if (row->empty()) return Status::NotFound("row absent");
  return Status::OK();
}

Status Table::CellHistory(
    const Slice& primary_key, const std::string& column,
    std::vector<std::pair<uint64_t, std::string>>* versions) const {
  std::lock_guard<std::mutex> lock(mu_);
  int col = schema_.ColumnIndex(column);
  if (col < 0) return Status::InvalidArgument("unknown column");
  std::vector<Cell> cells;
  Status s = cells_.History(static_cast<uint32_t>(col), primary_key, &cells);
  if (!s.ok()) return s;
  versions->clear();
  for (const Cell& cell : cells) {
    versions->emplace_back(cell.key.timestamp, cell.value);
  }
  return Status::OK();
}

Status Table::GetRowAt(const Slice& primary_key, uint64_t snapshot_ts,
                       Row* row) const {
  std::lock_guard<std::mutex> lock(mu_);
  row->clear();
  for (size_t i = 0; i < schema_.columns.size(); i++) {
    Cell cell;
    Status s = cells_.ReadAt(static_cast<uint32_t>(i), primary_key,
                             snapshot_ts, &cell);
    if (s.IsNotFound()) continue;
    if (!s.ok()) return s;
    (*row)[schema_.columns[i].name] = cell.value;
  }
  if (row->empty()) return Status::NotFound("row absent at timestamp");
  return Status::OK();
}

Status Table::QueryNumericRange(const std::string& column, uint64_t lo,
                                uint64_t hi,
                                std::vector<std::string>* pks) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inverted_.find(column);
  if (it == inverted_.end()) {
    return Status::InvalidArgument("column has no inverted index");
  }
  pks->clear();
  it->second->LookupNumericRange(lo, hi, pks);
  return Status::OK();
}

Status Table::QueryStringEquals(const std::string& column, const Slice& value,
                                std::vector<std::string>* pks) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inverted_.find(column);
  if (it == inverted_.end()) {
    return Status::InvalidArgument("column has no inverted index");
  }
  pks->clear();
  Status s = it->second->LookupString(value, pks);
  if (s.IsNotFound()) return Status::OK();  // empty result
  return s;
}

Status Table::QueryStringPrefix(const std::string& column,
                                const Slice& prefix,
                                std::vector<std::string>* pks) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inverted_.find(column);
  if (it == inverted_.end()) {
    return Status::InvalidArgument("column has no inverted index");
  }
  pks->clear();
  it->second->LookupStringPrefix(prefix, pks);
  return Status::OK();
}

}  // namespace spitz
