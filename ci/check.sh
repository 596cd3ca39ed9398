#!/usr/bin/env bash
# CI entry point, in three parts.
# tier-1: the full ctest suite in Release, then the runnable examples,
#   the metrics smoke, the auditor smoke and chaos runs, and the
#   repository benchmark (spitzbench) smoke. Every other behaviour
#   check lives in ctest; every end-to-end measurement in spitzbench.
#   Last, ci/loc.sh prints the tracked line and ctest case counts (it
#   gates nothing).
# TSan: the concurrency, deferred-auditor, 2PC participant, read-set,
#   key-history, network, cluster and replica tests.
# ASan+UBSan: the proof-codec, database, deferred-auditor, key-history,
#   2PC participant, write-batch and read-set, network, cluster,
#   replica, SHA-256/CRC32C kernel, journal, persistence,
#   index-traversal (POS-tree, MPT, MBT, iterator and property) tests
#   (untrusted bytes are decoded there —
#   proof envelopes, wire requests, the journal.log frames and blocks
#   Journal::Open replays at recovery,
#   sealed blocks read back from journal.log (frame CRC, then block
#   hash, for proofs, key history, audits and the replication encoder),
#   the POS-tree node decoder every read traversal and proof check runs
#   (PosNode::Decode, which bounds a node's entry count by the bytes
#   left to hold it) and the replication-record decoder, swept byte by
#   byte in ReplicaRecordTest —
#   and the hardware hash kernels make unaligned vector loads, so memory
#   errors and UB are the failure modes that matter).
# The read-set suites are ClusterReadSetTest, TwoPhaseCommitTest,
# MvccTest and TxnConfigSweep (cluster_test) plus WriteBatchTest
# (txn_test).
# All legs must be green for a change to land.
#
# Usage: ci/check.sh [build-dir-prefix]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "==> tier-1: Release build + full ctest"
cmake -B "${PREFIX}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${PREFIX}" -j "${JOBS}"
ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}"

echo "==> tier-1: examples smoke (runnable scenarios exit zero)"
# The examples that need no arguments and finish on their own; each
# exits non-zero when a check inside it fails.
for example in quickstart tamper_detection ecommerce_audit \
               federated_analytics medical_records; do
  "${PREFIX}/examples/${example}" > /dev/null
done

echo "==> tier-1: metrics smoke (instrumented paths must populate)"
# micro_benchmarks emits a MetricsSnapshot after the benches run;
# metrics_smoke re-parses it with the in-tree JSON parser and fails on
# any missing or zero metric, so dead instrumentation breaks CI here
# rather than producing empty dashboards later.
METRICS_OUT="${PREFIX}/metrics_snapshot.json"
SPITZ_METRICS_OUT="${METRICS_OUT}" \
  "${PREFIX}/bench/micro_benchmarks" \
      --benchmark_filter='BM_SpitzDbPut' \
      --benchmark_min_time=0.01 > /dev/null
"${PREFIX}/bench/metrics_smoke" "${METRICS_OUT}"

echo "==> tier-1: auditor smoke (continuous stateless re-verification)"
# A continuous auditor sampling GetProof/ScanProof evidence and digests
# from a live single node and a 3-shard cluster while a writer churns:
# re-verifies every sample statelessly from evidence bytes alone,
# tracks digest transitions, and exits non-zero on any verification
# failure or frozen digest.
"${PREFIX}/bench/auditor_client" --smoke

echo "==> tier-1: auditor chaos (bounce, failover, tampered run)"
# The auditor under faults: it must ride through a server bounce and a
# primary kill + failover with zero verification failures — and the
# tampered control run (bit-flipped journal segment, byte-flipped
# evidence envelopes) must FAIL, proving the non-zero-exit contract
# actually fires.
"${PREFIX}/bench/auditor_client" --chaos --smoke

echo "==> tier-1: repository benchmark smoke (spitzbench, all workloads)"
# spitzbench compiles src/ through its own CMake project, which ctest
# never builds, so this leg is what catches a src/ change that breaks
# the benchmark. Every workload runs at a tiny size with every
# correctness check on; any failed check exits non-zero.
CARGO_TARGET_DIR="${PREFIX}-spitzbench" python3 spitzbench/run.py --smoke

echo "==> tier-1: line counts (printed, not gated)"
ci/loc.sh "${PREFIX}"

echo "==> tier-2: ThreadSanitizer concurrency suite"
cmake -B "${PREFIX}-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DSPITZ_SANITIZE=thread
cmake --build "${PREFIX}-tsan" -j "${JOBS}" \
      --target concurrency_test txn_test spitz_db_test auditor_test \
               key_history_test metrics_test recovery_test net_test \
               cluster_test replica_test
# TSAN_OPTIONS makes any reported race fail the run (exit code).
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
        -R 'Concurrency|DeferredVerifier|AuditorTest|TxnParticipant|SpitzDb|KeyHistory|Metrics|Recovery|Net|Cluster|Replica|TwoPhaseCommit|Mvcc|TxnConfigSweep'

echo "==> tier-2: ASan+UBSan proof-codec and database suite"
cmake -B "${PREFIX}-asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DSPITZ_SANITIZE=address,undefined
cmake --build "${PREFIX}-asan" -j "${JOBS}" \
      --target siri_proof_test siri_backend_test spitz_db_test \
               auditor_test key_history_test recovery_test net_test \
               concurrency_test cluster_test replica_test txn_test \
               crypto_test common_test \
               journal_test persistence_test pos_tree_test mpt_mbt_test \
               iterator_test property_test
ASAN_OPTIONS="halt_on_error=1 exitcode=66" \
UBSAN_OPTIONS="halt_on_error=1 exitcode=66 print_stacktrace=1" \
  ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}" \
        -R 'Siri|SpitzDb|SpitzOptions|AuditorTest|KeyHistory|TxnParticipant|WriteBatch|Recovery|Net|Concurrency|Cluster|Replica|TwoPhaseCommit|Mvcc|TxnConfigSweep|Sha256|Crc32c|Journal|Block|Persistence|PosTree|Mpt|Mbt|Iterator'

echo "==> all checks passed"
