// An interactive SQL shell over a durable Spitz database — the paper's
// "deployability" goal in practice: a familiar interface (section 3:
// "users may find the system difficult to use if the verifiable
// database adopts unfamiliar programming models or interface").
//
// Usage:
//   ./build/examples/sql_repl [data_dir]       # interactive
//   echo "SELECT ..." | ./build/examples/sql_repl [data_dir]
//
// With a data_dir the database is durable and keeps its tables: the
// catalog and every row live on the ledger, so a later run over the
// same directory sees the tables, rows and history an earlier one
// wrote.
//
// Statements end at end of line. Extras beyond SQL:
//   .digest    print the current database digest
//   .verify K  verified read of raw key K with client-side proof check
//   .history K verified provenance of raw key K
//   .quit

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "core/spitz_db.h"
#include "core/sql.h"

using namespace spitz;

namespace {

void PrintResult(const SqlResult& result) {
  if (!result.message.empty()) {
    printf("%s\n", result.message.c_str());
    return;
  }
  for (const auto& col : result.columns) printf("%-16s", col.c_str());
  printf("\n");
  for (const auto& row : result.rows) {
    for (const auto& cell : row) printf("%-16s", cell.c_str());
    printf("\n");
  }
  printf("(%zu rows)\n", result.rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  SpitzOptions options;
  std::unique_ptr<SpitzDb> durable;
  SpitzDb* db = nullptr;
  SpitzDb in_memory;
  if (argc > 1) {
    options.data_dir = argv[1];
    Status s = SpitzDb::Open(options, &durable);
    if (!s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      return 1;
    }
    db = durable.get();
    printf("-- durable database at %s (recovered %llu ledger entries)\n",
           argv[1],
           static_cast<unsigned long long>(db->ledger()->entry_count()));
  } else {
    db = &in_memory;
    printf("-- in-memory database (pass a directory for durability)\n");
  }
  SqlDatabase sql(db);

  std::string line;
  bool interactive = isatty(fileno(stdin));
  while (true) {
    if (interactive) {
      printf("spitz> ");
      fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == ".quit" || line == ".exit") break;
    if (line == ".digest") {
      SpitzDigest d = db->Digest();
      printf("index root:  %s\n", d.index_root.ToHex().c_str());
      printf("ledger:      %llu blocks, %llu entries, tip %s...\n",
             static_cast<unsigned long long>(d.journal.block_count),
             static_cast<unsigned long long>(d.journal.entry_count),
             d.journal.tip_hash.ToHex().substr(0, 16).c_str());
      continue;
    }
    if (line.rfind(".verify ", 0) == 0) {
      std::string key = line.substr(8);
      std::string value;
      ReadProof proof;
      Status s = db->Read(kCurrentVersion, key, &value, &proof);
      if (s.IsNotFound()) {
        Status v = SpitzDb::VerifyRead(db->Digest(), key, std::nullopt, proof);
        printf("absent (non-membership proof: %s)\n", v.ToString().c_str());
      } else if (s.ok()) {
        Status v = SpitzDb::VerifyRead(db->Digest(), key, value, proof);
        printf("%s  (proof: %s)\n", value.c_str(), v.ToString().c_str());
      } else {
        printf("error: %s\n", s.ToString().c_str());
      }
      continue;
    }
    if (line.rfind(".history ", 0) == 0) {
      std::string key = line.substr(9);
      std::vector<SpitzDb::HistoricalWrite> history;
      Status s = db->ledger()->KeyHistory(key, &history);
      if (!s.ok()) {
        printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      SpitzDigest digest = db->Digest();
      for (const auto& write : history) {
        Status v = Journal::VerifyEntry(write.entry, write.proof,
                                        digest.journal);
        printf("block %-6llu ts %-8llu %s  value-hash %s... (%s)\n",
               static_cast<unsigned long long>(write.block_height),
               static_cast<unsigned long long>(write.entry.commit_ts),
               write.entry.op == LedgerEntry::Op::kPut ? "PUT" : "DEL",
               write.entry.value_hash.ToHex().substr(0, 12).c_str(),
               v.ToString().c_str());
      }
      continue;
    }
    SqlResult result;
    Status s = sql.Execute(line, &result);
    if (!s.ok()) {
      printf("error: %s\n", s.ToString().c_str());
      continue;
    }
    PrintResult(result);
  }
  if (durable) {
    db->FlushBlock();
    db->SyncStorage();
  }
  return 0;
}
