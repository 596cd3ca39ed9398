// Tamper detection end to end: what a distrustful client actually
// catches. "A verifiable database system protects integrity of the
// data, of its provenance, and of its query execution. More
// specifically, any tampering such as changing the data content,
// changing a historical record, or modifying query results, can be
// detected." (paper section 1)
//
// Scenarios:
//   1. a server returns a modified value          -> proof check fails;
//   2. a server drops a row from a range result   -> range proof fails;
//   3. a server rewrites history and re-hashes    -> consistency check
//      against the client's saved digest fails;
//   4. a server rolls back to an older state      -> digest regression
//      detected.
//
// Build & run:  ./build/examples/tamper_detection

#include <cstdio>

#include "core/spitz_db.h"
#include "core/verifier.h"

using namespace spitz;

namespace {

int checks_passed = 0;
int checks_failed = 0;

void Expect(bool detected, const char* what) {
  if (detected) {
    printf("  [detected] %s\n", what);
    checks_passed++;
  } else {
    printf("  [MISSED]   %s\n", what);
    checks_failed++;
  }
}

SpitzOptions SmallBlocks() {
  SpitzOptions options;
  options.block_size = 8;
  return options;
}

}  // namespace

int main() {
  printf("scenario 1: modified query result\n");
  {
    SpitzDb db(SmallBlocks());
    for (int i = 0; i < 50; i++) {
      db.Put("account/" + std::to_string(i), "balance=" + std::to_string(i));
    }
    ClientVerifier client;
    client.ObserveDigest(db.Digest());
    std::string value;
    ReadProof proof;
    db.Read(kCurrentVersion, "account/7", &value, &proof);
    // The honest result verifies...
    Expect(client.CheckRead("account/7", value, proof).ok(),
           "honest result accepted (sanity)");
    // ...a doctored one does not.
    Expect(!client.CheckRead("account/7", std::string("balance=9999999"),
                             proof)
                .ok(),
           "server-inflated balance");
  }

  printf("scenario 2: row dropped from a range query\n");
  {
    SpitzDb db(SmallBlocks());
    for (int i = 0; i < 50; i++) {
      char key[32];
      snprintf(key, sizeof(key), "tx/%04d", i);
      db.Put(key, "amount=" + std::to_string(i));
    }
    ClientVerifier client;
    client.ObserveDigest(db.Digest());
    std::vector<PosEntry> rows;
    ScanProof proof;
    db.ReadRange(kCurrentVersion, "tx/0010", "tx/0030", 0, &rows, &proof);
    Expect(client.CheckScan("tx/0010", "tx/0030", 0, rows, proof).ok(),
           "honest range result accepted (sanity)");
    std::vector<PosEntry> doctored = rows;
    doctored.erase(doctored.begin() + 5);  // hide one transaction
    Expect(!client.CheckScan("tx/0010", "tx/0030", 0, doctored, proof).ok(),
           "transaction hidden from a range result");
  }

  printf("scenario 3: history rewritten and ledger re-hashed\n");
  {
    SpitzDb honest(SmallBlocks());
    for (int i = 0; i < 40; i++) {
      honest.Put("rec/" + std::to_string(i), "original");
    }
    ClientVerifier client;
    client.ObserveDigest(honest.Digest());

    // The attacker rebuilds the entire database with one record altered
    // — hashes are all internally consistent in the forged copy.
    SpitzDb forged(SmallBlocks());
    for (int i = 0; i < 40; i++) {
      forged.Put("rec/" + std::to_string(i),
                 i == 13 ? "falsified" : "original");
    }
    for (int i = 40; i < 80; i++) {
      forged.Put("rec/" + std::to_string(i), "original");
    }
    MerkleConsistencyProof consistency;
    forged.ProveConsistency(client.digest(), &consistency);
    Expect(!client.ObserveDigest(forged.Digest(), &consistency).ok(),
           "rewritten history presented as an extension");
  }

  printf("scenario 4: rollback to an older state\n");
  {
    SpitzDb db(SmallBlocks());
    for (int i = 0; i < 40; i++) {
      db.Put("doc/" + std::to_string(i), "v1");
    }
    SpitzDigest early = db.Digest();
    for (int i = 0; i < 40; i++) {
      db.Put("doc/" + std::to_string(i), "v2");
    }
    ClientVerifier client;
    client.ObserveDigest(db.Digest());
    // The server later presents the earlier digest as current.
    Expect(!client.ObserveDigest(early).ok(),
           "server rolled back committed writes");
  }

  printf("scenario 5: historical entry integrity\n");
  {
    SpitzDb db(SmallBlocks());
    for (int i = 0; i < 40; i++) {
      db.Put("evt/" + std::to_string(i), "payload-" + std::to_string(i));
    }
    db.FlushBlock();
    ClientVerifier client;
    client.ObserveDigest(db.Digest());
    JournalEntryProof proof;
    LedgerEntry entry;
    db.ProveHistoricalEntry(2, 3, &proof, &entry);
    Expect(client.CheckHistoricalEntry(entry, proof).ok(),
           "honest historical entry accepted (sanity)");
    LedgerEntry doctored = entry;
    doctored.value_hash = Hash256::Of("not-what-happened");
    Expect(!client.CheckHistoricalEntry(doctored, proof).ok(),
           "altered historical record");
  }

  printf("\n%d/%d tampering checks behaved correctly\n", checks_passed,
         checks_passed + checks_failed);
  return checks_failed == 0 ? 0 : 1;
}
