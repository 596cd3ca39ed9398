// Medical records: the healthcare scenario from the paper's
// introduction. "Health data needs to be kept for the lifetime of a
// patient, and each diagnosis, lab test, prescription, etc., is
// appended to the patient profile. ... the data must be immutable and a
// new version of the database, i.e., a snapshot, is appended."
//
// This example exercises:
//   * the JSON document interface ("self-defined JSON schema", 5.1);
//   * multi-version cells — every upsert seals one ledger block, so the
//     full history of a patient's record remains queryable
//     (immutability requirement);
//   * coding-standard migration (ICD-9 -> ICD-10) as new versions, with
//     the old coding still provable;
//   * analytical queries over INDEXED columns;
//   * verified row reads for audits.
//
// Build & run:  ./build/examples/medical_records

#include <cstdio>

#include "core/table.h"

using namespace spitz;

int main() {
  SpitzDb db;

  TableSchema schema;
  schema.name = "patients";
  schema.primary_key_column = "patient_id";
  schema.columns = {
      {"patient_id", ColumnSpec::Type::kString, false},
      {"name", ColumnSpec::Type::kString, false},
      {"diagnosis_code", ColumnSpec::Type::kString, true},
      {"attending", ColumnSpec::Type::kString, true},
      {"heart_rate", ColumnSpec::Type::kNumeric, true},
  };
  Table patients(&db, schema, 1);

  // --- Admissions arrive as JSON documents -------------------------------
  const char* admissions[] = {
      R"({"patient_id":"p-001","name":"A. Ada","diagnosis_code":"icd9:428.0",
          "attending":"dr-wong","heart_rate":92})",
      R"({"patient_id":"p-002","name":"B. Boole","diagnosis_code":"icd9:401.9",
          "attending":"dr-wong","heart_rate":115})",
      R"({"patient_id":"p-003","name":"C. Curie","diagnosis_code":"icd9:250.00",
          "attending":"dr-patel","heart_rate":78})",
  };
  for (const char* doc : admissions) {
    Status s = patients.UpsertJson(doc);
    if (!s.ok()) {
      fprintf(stderr, "admission failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  printf("admitted %llu patients\n",
         static_cast<unsigned long long>(patients.row_count()));

  // --- Follow-up visits append new versions (never overwrite) ------------
  patients.Upsert({{"patient_id", "p-001"}, {"heart_rate", "85"}});
  patients.Upsert({{"patient_id", "p-001"}, {"heart_rate", "79"}});

  // --- Coding standard migration: ICD-9 -> ICD-10 -------------------------
  // "Changes in classification and coding standards require updates or
  // mapping onto the existing medical record." The migration appends a
  // new version; the ICD-9 history is preserved.
  patients.Upsert({{"patient_id", "p-001"}, {"diagnosis_code", "icd10:I50.9"}});
  patients.Upsert({{"patient_id", "p-002"}, {"diagnosis_code", "icd10:I10"}});
  patients.Upsert(
      {{"patient_id", "p-003"}, {"diagnosis_code", "icd10:E11.9"}});

  std::vector<std::pair<uint64_t, std::string>> history;
  patients.CellHistory("p-001", "diagnosis_code", &history);
  printf("\np-001 diagnosis provenance (%zu versions):\n", history.size());
  for (const auto& [ts, code] : history) {
    printf("  ts=%llu  %s\n", static_cast<unsigned long long>(ts),
           code.c_str());
  }

  // Point-in-time audit: the record as of the first version.
  Row old_row;
  if (patients.GetRowAt("p-001", history.front().first, &old_row).ok()) {
    printf("p-001 at admission: diagnosis=%s heart_rate=%s\n",
           old_row["diagnosis_code"].c_str(), old_row["heart_rate"].c_str());
  }

  // --- Analytics over the INDEXED columns ---------------------------------
  std::vector<std::string> tachycardic;
  patients.QueryNumericRange("heart_rate", 100, 200, &tachycardic);
  printf("\npatients with latest heart rate >= 100: %zu\n",
         tachycardic.size());
  for (const auto& pk : tachycardic) printf("  %s\n", pk.c_str());

  std::vector<std::string> dr_wong;
  patients.QueryStringEquals("attending", "dr-wong", &dr_wong);
  printf("patients attended by dr-wong: %zu\n", dr_wong.size());

  std::vector<std::string> icd10;
  patients.QueryStringPrefix("diagnosis_code", "icd10:", &icd10);
  printf("patients on ICD-10 coding: %zu\n", icd10.size());

  // --- Regulator audit: verified row read ---------------------------------
  Row row;
  Status s = patients.GetRowVerified("p-002", &row);
  printf("\nverified read of p-002: %s (diagnosis=%s)\n",
         s.ToString().c_str(), row["diagnosis_code"].c_str());

  printf("ledger entries recorded: %llu\n",
         static_cast<unsigned long long>(db.entry_count()));
  return s.ok() ? 0 : 1;
}
