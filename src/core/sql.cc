#include "core/sql.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace spitz {

namespace {

// --- Tokenizer -------------------------------------------------------------

struct Token {
  enum class Kind { kWord, kString, kNumber, kSymbol, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;  // uppercased for words; literal for strings/numbers
  std::string raw;   // original spelling
};

class Lexer {
 public:
  explicit Lexer(const Slice& input) : p_(input.data()), end_(p_ + input.size()) {
    Advance();
  }

  const Token& peek() const { return current_; }

  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }

  bool TakeWord(const char* word) {
    if (current_.kind == Token::Kind::kWord && current_.text == word) {
      Advance();
      return true;
    }
    return false;
  }

  bool TakeSymbol(char c) {
    if (current_.kind == Token::Kind::kSymbol && current_.text[0] == c) {
      Advance();
      return true;
    }
    return false;
  }

  bool AtEnd() const { return current_.kind == Token::Kind::kEnd; }

 private:
  void Advance() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) p_++;
    current_ = Token();
    if (p_ >= end_) return;
    char c = *p_;
    if (c == '\'') {
      p_++;
      current_.kind = Token::Kind::kString;
      std::string value;
      while (p_ < end_) {
        if (*p_ == '\'') {
          if (p_ + 1 < end_ && p_[1] == '\'') {  // escaped quote
            value.push_back('\'');
            p_ += 2;
            continue;
          }
          break;
        }
        value.push_back(*p_);
        p_++;
      }
      if (p_ < end_) p_++;  // closing quote
      current_.text = value;
      current_.raw = value;
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && p_ + 1 < end_ &&
         std::isdigit(static_cast<unsigned char>(p_[1])))) {
      current_.kind = Token::Kind::kNumber;
      const char* start = p_;
      p_++;
      while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                           *p_ == '.')) {
        p_++;
      }
      current_.text.assign(start, p_ - start);
      current_.raw = current_.text;
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      current_.kind = Token::Kind::kWord;
      const char* start = p_;
      while (p_ < end_ && (std::isalnum(static_cast<unsigned char>(*p_)) ||
                           *p_ == '_')) {
        p_++;
      }
      current_.raw.assign(start, p_ - start);
      current_.text = current_.raw;
      std::transform(current_.text.begin(), current_.text.end(),
                     current_.text.begin(),
                     [](unsigned char ch) { return std::toupper(ch); });
      return;
    }
    current_.kind = Token::Kind::kSymbol;
    current_.text = std::string(1, c);
    current_.raw = current_.text;
    p_++;
  }

  const char* p_;
  const char* end_;
  Token current_;
};

// Catalog keys are c/<name>; "c0" is the first key past them.
const char kCatalogPrefix[] = "c/";
const char kCatalogEnd[] = "c0";

Status SyntaxError(const std::string& what) {
  return Status::InvalidArgument("syntax error: " + what);
}

}  // namespace

Status SqlDatabase::LoadCatalog() {
  if (catalog_loaded_ || !db_->SupportsScan()) return Status::OK();
  std::vector<PosEntry> entries;
  Status s = db_->ReadRange(kCurrentVersion, kCatalogPrefix, kCatalogEnd, 0,
                            &entries, nullptr);
  if (!s.ok()) return s;
  for (const PosEntry& entry : entries) {
    uint32_t id = 0;
    TableSchema schema;
    s = DecodeCatalogEntry(entry.value, &id, &schema);
    if (s.ok() && entry.key != kCatalogPrefix + schema.name) {
      s = Status::Corruption("catalog entry names another table");
    }
    if (!s.ok()) {
      tables_.clear();
      return Status::Corruption(entry.key + ": " + s.ToString());
    }
    next_table_id_ = std::max(next_table_id_, id + 1);
    std::string name = schema.name;
    tables_.emplace(std::move(name),
                    std::make_unique<Table>(db_, std::move(schema), id));
  }
  catalog_loaded_ = true;
  return Status::OK();
}

Status SqlDatabase::CreateTable(const TableSchema& schema) {
  if (!db_->SupportsScan()) {
    return Status::NotSupported(
        "tables need an index backend with ordered scans (the POS-tree)");
  }
  Status s = ValidateSchema(schema);
  if (!s.ok()) return s;
  if (tables_.count(schema.name)) {
    return Status::InvalidArgument("table already exists: " + schema.name);
  }
  const uint32_t id = next_table_id_;
  s = db_->Put(kCatalogPrefix + schema.name, EncodeCatalogEntry(id, schema));
  if (s.ok()) s = db_->FlushBlock();
  if (!s.ok()) return s;
  next_table_id_++;
  tables_.emplace(schema.name, std::make_unique<Table>(db_, schema, id));
  return Status::OK();
}

Table* SqlDatabase::GetTable(const std::string& name) {
  if (!LoadCatalog().ok()) return nullptr;
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status SqlDatabase::Execute(const Slice& sql, SqlResult* result) {
  result->columns.clear();
  result->rows.clear();
  result->message.clear();
  Status loaded = LoadCatalog();
  if (!loaded.ok()) return loaded;
  Lexer lex(sql);

  // ----------------------------------------------------------- CREATE ---
  if (lex.TakeWord("CREATE")) {
    if (!lex.TakeWord("TABLE")) return SyntaxError("expected TABLE");
    Token name = lex.Take();
    if (name.kind != Token::Kind::kWord) {
      return SyntaxError("expected table name");
    }
    if (!lex.TakeSymbol('(')) return SyntaxError("expected (");
    TableSchema schema;
    schema.name = name.raw;
    while (true) {
      Token col = lex.Take();
      if (col.kind != Token::Kind::kWord) {
        return SyntaxError("expected column name");
      }
      ColumnSpec spec;
      spec.name = col.raw;
      if (lex.TakeWord("STRING")) {
        spec.type = ColumnSpec::Type::kString;
      } else if (lex.TakeWord("NUMERIC")) {
        spec.type = ColumnSpec::Type::kNumeric;
      } else {
        return SyntaxError("expected STRING or NUMERIC for column '" +
                           col.raw + "'");
      }
      while (true) {
        if (lex.TakeWord("PRIMARY")) {
          if (!lex.TakeWord("KEY")) return SyntaxError("expected KEY");
          if (!schema.primary_key_column.empty()) {
            return Status::InvalidArgument("multiple primary keys");
          }
          schema.primary_key_column = spec.name;
        } else if (lex.TakeWord("INDEXED")) {
          spec.inverted_indexed = true;
        } else {
          break;
        }
      }
      schema.columns.push_back(std::move(spec));
      if (lex.TakeSymbol(',')) continue;
      if (lex.TakeSymbol(')')) break;
      return SyntaxError("expected , or ) in column list");
    }
    Status s = CreateTable(schema);
    if (!s.ok()) return s;
    result->message = "created table " + schema.name;
    return Status::OK();
  }

  // ----------------------------------------------------------- INSERT ---
  if (lex.TakeWord("INSERT")) {
    if (!lex.TakeWord("INTO")) return SyntaxError("expected INTO");
    Token name = lex.Take();
    Table* table = GetTable(name.raw);
    if (table == nullptr) {
      return Status::NotFound("no such table: " + name.raw);
    }
    if (!lex.TakeSymbol('(')) return SyntaxError("expected column list");
    std::vector<std::string> columns;
    while (true) {
      Token col = lex.Take();
      if (col.kind != Token::Kind::kWord) {
        return SyntaxError("expected column name");
      }
      columns.push_back(col.raw);
      if (lex.TakeSymbol(',')) continue;
      if (lex.TakeSymbol(')')) break;
      return SyntaxError("expected , or )");
    }
    if (!lex.TakeWord("VALUES")) return SyntaxError("expected VALUES");
    if (!lex.TakeSymbol('(')) return SyntaxError("expected (");
    Row row;
    size_t i = 0;
    while (true) {
      Token value = lex.Take();
      if (value.kind != Token::Kind::kString &&
          value.kind != Token::Kind::kNumber) {
        return SyntaxError("expected literal value");
      }
      if (i >= columns.size()) {
        return Status::InvalidArgument("more values than columns");
      }
      row[columns[i++]] = value.raw;
      if (lex.TakeSymbol(',')) continue;
      if (lex.TakeSymbol(')')) break;
      return SyntaxError("expected , or )");
    }
    if (i != columns.size()) {
      return Status::InvalidArgument("fewer values than columns");
    }
    Status s = table->Upsert(row);
    if (s.ok()) result->message = "1 row inserted";
    return s;
  }

  // ----------------------------------------------------------- UPDATE ---
  if (lex.TakeWord("UPDATE")) {
    Token name = lex.Take();
    Table* table = GetTable(name.raw);
    if (table == nullptr) {
      return Status::NotFound("no such table: " + name.raw);
    }
    if (!lex.TakeWord("SET")) return SyntaxError("expected SET");
    Row row;
    while (true) {
      Token col = lex.Take();
      if (col.kind != Token::Kind::kWord) {
        return SyntaxError("expected column name");
      }
      if (!lex.TakeSymbol('=')) return SyntaxError("expected =");
      Token value = lex.Take();
      if (value.kind != Token::Kind::kString &&
          value.kind != Token::Kind::kNumber) {
        return SyntaxError("expected literal value");
      }
      row[col.raw] = value.raw;
      if (lex.TakeSymbol(',')) continue;
      break;
    }
    if (!lex.TakeWord("WHERE")) return SyntaxError("expected WHERE");
    Token pk_col = lex.Take();
    if (pk_col.raw != table->schema().primary_key_column) {
      return Status::NotSupported(
          "UPDATE requires WHERE on the primary key column");
    }
    if (!lex.TakeSymbol('=')) return SyntaxError("expected =");
    Token pk = lex.Take();
    row[table->schema().primary_key_column] = pk.raw;
    Status s = table->Upsert(row);
    if (s.ok()) result->message = "1 row updated";
    return s;
  }

  // ----------------------------------------------------------- DELETE ---
  if (lex.TakeWord("DELETE")) {
    return Status::NotSupported(
        "a verifiable database never deletes: history is immutable "
        "(write a superseding version instead)");
  }

  // ----------------------------------------------------------- SELECT ---
  if (lex.TakeWord("SELECT")) {
    // Projection.
    bool star = false;
    bool history = false;
    std::string history_column;
    std::vector<std::string> projection;
    if (lex.TakeSymbol('*')) {
      star = true;
    } else if (lex.TakeWord("HISTORY")) {
      history = true;
      if (!lex.TakeSymbol('(')) return SyntaxError("expected (");
      Token col = lex.Take();
      history_column = col.raw;
      if (!lex.TakeSymbol(')')) return SyntaxError("expected )");
    } else {
      while (true) {
        Token col = lex.Take();
        if (col.kind != Token::Kind::kWord) {
          return SyntaxError("expected column name");
        }
        projection.push_back(col.raw);
        if (!lex.TakeSymbol(',')) break;
      }
    }
    if (!lex.TakeWord("FROM")) return SyntaxError("expected FROM");
    Token name = lex.Take();
    Table* table = GetTable(name.raw);
    if (table == nullptr) {
      return Status::NotFound("no such table: " + name.raw);
    }
    const std::string& pk_col = table->schema().primary_key_column;

    // Gather matching primary keys from the predicate.
    std::vector<std::string> pks;
    if (lex.TakeWord("WHERE")) {
      Token col = lex.Take();
      if (col.kind != Token::Kind::kWord) {
        return SyntaxError("expected column in WHERE");
      }
      int col_idx = table->schema().ColumnIndex(col.raw);
      if (col_idx < 0) {
        return Status::InvalidArgument("unknown column: " + col.raw);
      }
      const ColumnSpec& spec = table->schema().columns[col_idx];
      if (lex.TakeWord("BETWEEN")) {
        Token lo = lex.Take();
        if (!lex.TakeWord("AND")) return SyntaxError("expected AND");
        Token hi = lex.Take();
        if (col.raw == pk_col) {
          std::vector<std::pair<std::string, Row>> rows;
          // BETWEEN is inclusive; pk ranges are [start, end), so nudge.
          Status s = table->ScanRows(lo.raw, hi.raw + "\x01", 0, &rows);
          if (!s.ok()) return s;
          for (auto& [pk, row] : rows) pks.push_back(pk);
        } else if (spec.type == ColumnSpec::Type::kNumeric) {
          Status s = table->QueryNumericRange(
              col.raw, strtoull(lo.raw.c_str(), nullptr, 10),
              strtoull(hi.raw.c_str(), nullptr, 10), &pks);
          if (!s.ok()) return s;
        } else {
          return Status::NotSupported(
              "BETWEEN on string columns is only supported for the "
              "primary key");
        }
      } else if (lex.TakeWord("LIKE")) {
        Token pattern = lex.Take();
        std::string p = pattern.raw;
        if (p.empty() || p.back() != '%' ||
            p.find('%') != p.size() - 1) {
          return Status::NotSupported("LIKE supports 'prefix%' only");
        }
        p.pop_back();
        Status s = table->QueryStringPrefix(col.raw, p, &pks);
        if (!s.ok()) return s;
      } else if (lex.TakeSymbol('=')) {
        Token value = lex.Take();
        if (col.raw == pk_col) {
          pks.push_back(value.raw);
        } else {
          Status s = table->QueryStringEquals(col.raw, value.raw, &pks);
          if (!s.ok()) return s;
        }
      } else {
        return SyntaxError("expected =, BETWEEN, or LIKE");
      }
    } else {
      // Full scan.
      std::vector<std::pair<std::string, Row>> rows;
      Status s = table->ScanRows("", "", 0, &rows);
      if (!s.ok()) return s;
      for (auto& [pk, row] : rows) pks.push_back(pk);
    }
    std::sort(pks.begin(), pks.end());

    // HISTORY() projection: provenance of one cell per matching row.
    if (history) {
      result->columns = {pk_col, "version_ts", history_column};
      for (const std::string& pk : pks) {
        std::vector<std::pair<uint64_t, std::string>> versions;
        Status s = table->CellHistory(pk, history_column, &versions);
        if (s.IsNotFound()) continue;
        if (!s.ok()) return s;
        for (const auto& [ts, value] : versions) {
          result->rows.push_back({pk, std::to_string(ts), value});
        }
      }
      return Status::OK();
    }

    // Regular projection: materialize matching rows.
    if (star) {
      for (const ColumnSpec& c : table->schema().columns) {
        result->columns.push_back(c.name);
      }
    } else {
      for (const std::string& c : projection) {
        if (table->schema().ColumnIndex(c) < 0) {
          return Status::InvalidArgument("unknown column: " + c);
        }
      }
      result->columns = projection;
    }
    for (const std::string& pk : pks) {
      Row row;
      Status s = table->GetRow(pk, &row);
      if (s.IsNotFound()) continue;  // e.g. stale pk from a point lookup
      if (!s.ok()) return s;
      std::vector<std::string> out;
      out.reserve(result->columns.size());
      for (const std::string& c : result->columns) {
        auto it = row.find(c);
        out.push_back(it == row.end() ? std::string() : it->second);
      }
      result->rows.push_back(std::move(out));
    }
    return Status::OK();
  }

  return SyntaxError("expected CREATE, INSERT, UPDATE, or SELECT");
}

}  // namespace spitz
