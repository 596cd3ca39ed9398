#!/usr/bin/env bash
# CI entry point, in three parts.
# tier-1: the full ctest suite in Release, then the runnable examples,
#   the metrics smoke, the auditor smoke and chaos runs, and the
#   repository benchmark (spitzbench) smoke. Every other behaviour
#   check lives in ctest; every end-to-end measurement in spitzbench.
#   Last, ci/loc.sh prints the tracked line and ctest case counts (it
#   gates nothing).
# TSan: the concurrency, group-commit, version-GC, deferred-auditor,
#   2PC participant, timestamp-oracle, read-set, key-history, network,
#   cluster and replica tests, and the POS-tree, persistence and
#   delta-chunk tests, whose bulk builds, bulk loads, recoveries and GC
#   passes hash or read on several threads (common/fork_join, whose own
#   test runs here too). Among the concurrency cases, readers pinned to
#   versions inside and outside the retain_versions window race a writer
#   whose seals erase the index nodes older blocks replaced from the
#   buffer cache
#   (ConcurrencyTest.PinnedReadersRaceRetirementOfReplacedNodes), and a
#   writer whose delta chains rebase onto their full record at the cap
#   races GC passes that collect that record
#   (ConcurrencyTest.RebasesRaceGcPassesCollectingTheirFullRecord). The
#   DeltaChunk cases include the rebase's own
#   (DeltaChunkTest.VersionPastTheCapIsADeltaOnItsChainsFullRecord,
#   RebasedDeltaNoLongerShorterIsWrittenFull and
#   GcCollectingAChainsFullRecordFlattensItsRebasedDeltas), which run in
#   the ASan+UBSan leg too, as does the concurrency case. The decoded
#   node's offset tables (PosTreeTest.LeafAccessorsReadEveryPrefixWidth-
#   AsTheEntryListDecodes, MetaAccessorsReadEveryPrefixWidth,
#   WideKeysAndValuesReadBackThroughEveryTreeNode,
#   LeafPastSixtyFourKibHasOffsetsPastSixteenBits and
#   LowerBoundAndRouteAgreeWithALinearScanAtEveryBoundary) and the
#   buffer cache's LRU list
#   (ConcurrencyTest.NodeCacheLruOrderThroughPromoteRefreshEvictEraseClear)
#   run in both legs under the existing PosTree and Concurrency filters.
#   The chunk index (chunk_index_test: ChunkIndexTest, whose seeded
#   sequences of inserts, dedup hits, erasures and lookups check the
#   location index against a map model through table growth, slot reuse
#   and probe runs that wrap, and ChunkIndexStoreTest, the same against
#   FileChunkStore with delta chains, GC passes and a reopen) runs in
#   both legs under the ChunkIndex filter, and
#   DeltaChunkTest.BaseReferencesSurviveAPassThatRewritesTheirBases
#   (a delta's 4-byte base reference through a pass that rewrites its
#   base in place, and through replay) under DeltaChunk. The GC plan
#   (chunk_index_test: SegmentGcPlanTest, PlanSegmentGc checked against
#   a plain statement of the victim rule over seeded random snapshots,
#   and hand cases) runs in both legs under the SegmentGcPlan filter,
#   and DeltaChunkTest.VictimWhoseUnlinkFailedGoesWithTheNextPass (a
#   victim whose unlink fails stays condemned, goes with the next pass,
#   and the store reopens) under DeltaChunk.
#   AuditorTest.VersionWhoseRootSurvivesAsADeltaBaseIsCollected (a pass
#   that keeps an old root as a delta base and erases the rest of its
#   version) and AuditorTest.KeptVersionMissingAChunkIsNotCollected (a
#   kept version's missing chunk is damage) run in both legs under
#   AuditorTest. SpitzDb's two components run in both legs: the
#   versioned index (versioned_index_test: VersionedIndexTest, reads and
#   proofs at old roots, the batch apply and the retire ring's cache
#   erasures) and the ledger (ledger_test: LedgerTest, the seal, bulk
#   seal, restore and every ledger proof).
# ASan+UBSan: the proof-codec, database, group-commit, version-GC,
#   deferred-auditor, key-history,
#   2PC participant, write-batch and read-set, network, cluster,
#   replica, SHA-256/CRC32C kernel, journal, persistence, delta-chunk,
#   index-traversal (POS-tree, MPT, MBT and property),
#   table, SQL and integration tests (untrusted bytes are decoded there —
#   proof envelopes, decoded as views over the reply's frame buffer
#   (ReadProof/ScanProof, and the range-proof node order check) and
#   verified in place, the FrameDecoder both ends of a connection run,
#   which reads each frame into its own exactly sized buffer, wire
#   requests, the journal.log header, frames and blocks
#   Journal::Open replays at recovery (Block::Decode, swept byte by
#   byte in BlockTest: every flip and truncation of an encoded block is
#   refused or re-encodes to exactly those bytes),
#   sealed blocks read back from journal.log (frame CRC, then block
#   hash, for proofs, key history, audits and the replication encoder),
#   the POS-tree node decoder every read traversal and proof check runs
#   (PosNode::Decode, which bounds a node's entry count by the bytes
#   left to hold it), the replication-record decoder, swept byte by
#   byte in ReplicaRecordTest, the chunk segments' delta records
#   (ParseChunkRecord + ApplyDelta, swept byte by byte, resealed and
#   against wrong bases in DeltaRecordTest: every variant is refused or
#   rebuilds exactly the encoded chunk), and the table catalog entries
#   (DecodeCatalogEntry) SqlDatabase reads back from the ledger —
#   and the hardware hash kernels make unaligned vector loads, so memory
#   errors and UB are the failure modes that matter).
#   Last in that leg, the codec mutation sweep (codec_mutation_test:
#   CodecMutationTest and its one-byte-form regression cases,
#   OneByteFormTest) runs alone with ASan's allocation cap at 256 MiB
#   (max_allocation_size_mb=256, allocator_may_return_null=0). It
#   mutates every decoder of untrusted bytes in src: digest, ReadProof
#   and ScanProof (SiriProof of all three backends, SiriRangeProof),
#   PosNode, MPT node, MBT bucket and directory, Block, WriteBatch,
#   ClusterDigest, ReplicaAck, ReplicaStatusResult, the replication
#   record, Handshake, the entry list, blob meta, catalog entry,
#   single-node and cluster evidence, and the reply payloads SpitzClient
#   decodes (wire::Decode*Reply; OneByteFormTest serves each method's
#   reply with a byte appended through a relaying NetServer). A crafted count that drove one
#   allocation past the cap fails the run instead of passing.
# The read-set suites are ClusterReadSetTest, TwoPhaseCommitTest,
# MvccTest and TxnConfigSweep (cluster_test) plus WriteBatchTest
# (txn_test). The buffer cache's admission cases run in both legs: the
# bulk load that writes around the cache and the GC mark that reads only
# meta nodes (PersistenceTest), a bulk build torn by a short write
# (RecoveryTest), passes marking beside a writer (VersionGcTest) and the
# GC phase histograms' JSON round trip (MetricsEndToEndTest.GcMark...).
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
               cluster_test replica_test pos_tree_test persistence_test \
               delta_chunk_test chunk_index_test common_test group_commit_test \
               version_gc_test versioned_index_test ledger_test
# TSAN_OPTIONS makes any reported race fail the run (exit code).
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
        -R 'Concurrency|DeferredVerifier|AuditorTest|TxnParticipant|TimestampOracle|SpitzDb|KeyHistory|Metrics|Recovery|Net|Cluster|Replica|TwoPhaseCommit|Mvcc|TxnConfigSweep|PosTree|Persistence|DeltaChunk|DeltaRecord|ChunkIndex|SegmentGcPlan|ForkJoin|GroupCommitTest|VersionGcTest|VersionedIndexTest|LedgerTest'

echo "==> tier-2: ASan+UBSan proof-codec and database suite"
cmake -B "${PREFIX}-asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DSPITZ_SANITIZE=address,undefined
cmake --build "${PREFIX}-asan" -j "${JOBS}" \
      --target siri_proof_test siri_backend_test spitz_db_test \
               auditor_test key_history_test recovery_test net_test \
               concurrency_test cluster_test replica_test txn_test \
               crypto_test common_test \
               journal_test persistence_test delta_chunk_test chunk_index_test \
               pos_tree_test mpt_mbt_test \
               property_test table_test sql_test \
               integration_test group_commit_test version_gc_test metrics_test \
               versioned_index_test ledger_test codec_mutation_test
ASAN_OPTIONS="halt_on_error=1 exitcode=66" \
UBSAN_OPTIONS="halt_on_error=1 exitcode=66 print_stacktrace=1" \
  ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}" \
        -R 'Siri|SpitzDb|SpitzOptions|AuditorTest|KeyHistory|TxnParticipant|WriteBatch|Recovery|Net|Concurrency|Cluster|Replica|TwoPhaseCommit|Mvcc|TxnConfigSweep|Sha256|Crc32c|Journal|Block|Persistence|DeltaChunk|DeltaRecord|ChunkIndex|SegmentGcPlan|PosTree|Mpt|Mbt|Table|Sql|Integration|GroupCommitTest|VersionGcTest|VersionedIndexTest|LedgerTest|MetricsEndToEndTest.GcMark' \
        -E 'CodecMutation|OneByteForm'
ASAN_OPTIONS="halt_on_error=1 exitcode=66 max_allocation_size_mb=256 allocator_may_return_null=0" \
UBSAN_OPTIONS="halt_on_error=1 exitcode=66 print_stacktrace=1" \
  ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}" \
        -R 'CodecMutation|OneByteForm'

echo "==> all checks passed"
