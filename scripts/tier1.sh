#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, then a ThreadSanitizer pass over the
# concurrency-sensitive tests (the campaign loop's worker threads, driven
# directly and through the shell's run commands), ASan/UBSan passes and the
# benches.
#
# Usage: scripts/tier1.sh [build-dir]     (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== tier-1: standard build (-Werror) + ctest =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGOOFI_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== tier-1: campaign benchmark harness tests (perfbench/tests) =="
# Builds perfbench/ into .bench_build/ and runs one small session per
# benchmark workload against a cold serial reference, so API or result drift
# in the targets and drivers fails here rather than in the benchmark run.
python3 -m unittest discover -s perfbench/tests

echo "== tier-1: clang-tidy over src/ (see .clang-tidy) =="
if command -v clang-tidy >/dev/null 2>&1; then
  # The standard build exports compile_commands.json (CMakeLists.txt sets
  # CMAKE_EXPORT_COMPILE_COMMANDS); run the tuned check set over every
  # source file in src/.
  find src -name '*.cpp' -print0 \
    | xargs -0 -n 8 -P "$JOBS" clang-tidy -p "$BUILD_DIR" --quiet
else
  echo "clang-tidy not installed; skipping lint stanza (gcc -Werror still ran)"
fi

echo "== tier-1: ThreadSanitizer pass (parallel runner on std::jthread workers + worker and committer exceptions + worker spot checks (SpotCheckTest) + shell run commands on runner threads + checkpoints + convergence + equivalence + archive commits + COW golden sharing + static pruning + reference-trace memo and in-place trace walk) =="
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGOOFI_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" --target parallel_runner_test tool_test checkpoint_test convergence_test equivalence_test archive_test memory_cow_test static_analysis_test propagation_test
"$TSAN_DIR"/tests/parallel_runner_test
"$TSAN_DIR"/tests/tool_test
"$TSAN_DIR"/tests/checkpoint_test
"$TSAN_DIR"/tests/convergence_test
"$TSAN_DIR"/tests/equivalence_test
"$TSAN_DIR"/tests/archive_test --gtest_filter='ArchiveRunnerTest.*'
"$TSAN_DIR"/tests/memory_cow_test --gtest_filter='MemoryCowRunnerTest.*'
"$TSAN_DIR"/tests/static_analysis_test --gtest_filter='RunStaticTest.*'
"$TSAN_DIR"/tests/propagation_test

echo "== tier-1: ASan pass (superblock fast-path differential fuzzer) =="
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGOOFI_SANITIZE=address
cmake --build "$ASAN_DIR" -j "$JOBS" --target cpu_fastpath_test convergence_test sql_index_test equivalence_test archive_test memory_cow_test static_analysis_test core_types_test propagation_test analysis_test scan_test testcard_test sql_test campaign_store_test util_test db_test env_test
"$ASAN_DIR"/tests/cpu_fastpath_test

echo "== tier-1: ASan pass (COW paged memory differential fuzzer) =="
"$ASAN_DIR"/tests/memory_cow_test

echo "== tier-1: ASan pass (state-hash / canonical-memory fuzzers) =="
"$ASAN_DIR"/tests/convergence_test --gtest_filter='*Fuzz*'

echo "== tier-1: ASan pass (equivalence-classing spot-check fuzzer) =="
"$ASAN_DIR"/tests/equivalence_test --gtest_filter='*Fuzz*'

echo "== tier-1: ASan pass (static analyzer differential + run-static identity) =="
"$ASAN_DIR"/tests/static_analysis_test

echo "== tier-1: ASan pass (indexed-vs-scan SQL differential suite + smallest-probe choice (SmallestProbeMatchesScanAsPostingListsShift) + stored rows handed out in place (ForEachMatch)) =="
"$ASAN_DIR"/tests/sql_index_test

echo "== tier-1: ASan pass (archive codec/snapshot/WAL-recovery suite + serial kill/tear + hostile counts) =="
"$ASAN_DIR"/tests/archive_test

echo "== tier-1: ASan pass (SQL expression depth bound + missing/foreign GOOFI tables + stored rows read in place: column resolution, borrowed operands, store-query probes) =="
"$ASAN_DIR"/tests/sql_test
"$ASAN_DIR"/tests/campaign_store_test

echo "== tier-1: ASan pass (analysis reads stored rows in place: stateVector and fault-list view fuzzers + in-place vs copy-based analysis and propagation) =="
"$ASAN_DIR"/tests/core_types_test --gtest_filter='*Fuzz*'
"$ASAN_DIR"/tests/propagation_test
"$ASAN_DIR"/tests/analysis_test

echo "== tier-1: ASan pass (word-parallel scan shifts vs. per-bit Clock) =="
"$ASAN_DIR"/tests/scan_test
"$ASAN_DIR"/tests/testcard_test

echo "== tier-1: ASan pass (carry-less CRC-32 vs. table kernel + insert path, batch rollback + inline ASCII case folding) =="
"$ASAN_DIR"/tests/util_test
"$ASAN_DIR"/tests/db_test

echo "== tier-1: ASan pass (in-place environment exchange into caller-owned buffers) =="
"$ASAN_DIR"/tests/env_test

echo "== tier-1: UBSan pass (superblock fast-path differential fuzzer) =="
UBSAN_DIR="${BUILD_DIR}-ubsan"
cmake -B "$UBSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGOOFI_SANITIZE=undefined
cmake --build "$UBSAN_DIR" -j "$JOBS" --target cpu_fastpath_test util_test scan_test testcard_test sql_test sql_index_test archive_test analysis_test propagation_test core_types_test
"$UBSAN_DIR"/tests/cpu_fastpath_test

echo "== tier-1: UBSan pass (shift-and-mask bit fields + word-parallel scan shifts) =="
"$UBSAN_DIR"/tests/util_test
"$UBSAN_DIR"/tests/scan_test
"$UBSAN_DIR"/tests/testcard_test

echo "== tier-1: UBSan pass (SQL expression depth bound + hostile snapshot/WAL counts + reads through pointers into table storage) =="
"$UBSAN_DIR"/tests/sql_test
"$UBSAN_DIR"/tests/sql_index_test
"$UBSAN_DIR"/tests/archive_test --gtest_filter='*HugeCounts*:*TextFileIsRefused*:*NullOnlyRows*'

echo "== tier-1: UBSan pass (analysis reads stored rows in place: views into table storage) =="
"$UBSAN_DIR"/tests/core_types_test --gtest_filter='*Fuzz*'
"$UBSAN_DIR"/tests/propagation_test
"$UBSAN_DIR"/tests/analysis_test

echo "== tier-1: checkpoint fast-forward benchmark (BENCH_checkpoint.json) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_checkpoint_fastforward
"$BUILD_DIR"/bench/bench_checkpoint_fastforward --json "$BUILD_DIR"/BENCH_checkpoint.json

echo "== tier-1: simulator throughput benchmark (BENCH_cpu_throughput.json) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_cpu_throughput
"$BUILD_DIR"/bench/bench_cpu_throughput --json "$BUILD_DIR"/BENCH_cpu_throughput.json

echo "== tier-1: convergence pruning benchmark (BENCH_convergence_pruning.json) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_convergence_pruning
"$BUILD_DIR"/bench/bench_convergence_pruning --json "$BUILD_DIR"/BENCH_convergence_pruning.json

echo "== tier-1: indexed query engine benchmark (BENCH_database.json) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_database
"$BUILD_DIR"/bench/bench_database --json "$BUILD_DIR"/BENCH_database.json

echo "== tier-1: equivalence classing benchmark (BENCH_equivalence_dedup.json) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_equivalence_dedup
"$BUILD_DIR"/bench/bench_equivalence_dedup --json "$BUILD_DIR"/BENCH_equivalence_dedup.json

echo "== tier-1: campaign archive I/O benchmark (BENCH_archive_io.json) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_archive_io
"$BUILD_DIR"/bench/bench_archive_io --json "$BUILD_DIR"/BENCH_archive_io.json

echo "== tier-1: zero-copy experiment reset benchmark (BENCH_memory_reset.json) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_memory_reset
"$BUILD_DIR"/bench/bench_memory_reset --json "$BUILD_DIR"/BENCH_memory_reset.json

echo "== tier-1: static fault-space pruning benchmark (BENCH_static_prune.json) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_static_prune
"$BUILD_DIR"/bench/bench_static_prune --json "$BUILD_DIR"/BENCH_static_prune.json

echo "tier-1: OK"
