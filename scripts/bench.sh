#!/usr/bin/env bash
# Performance tracking: builds and runs the JSON-emitting benchmarks, leaves
# one BENCH_<name>.json per benchmark in the build directory, and aggregates
# them into BENCH_PR10.json at the repo root.
#
# Currently covered:
#   BENCH_checkpoint.json — experiments/sec cold vs warm (checkpoint
#   fast-forward, E13), swept over interval x injection distribution x
#   worker count, plus the cache memory footprint per interval.
#   BENCH_cpu_throughput.json — simulator MIPS, reference interpreter vs
#   predecoded superblock fast path (E14), per workload + geomean.
#   BENCH_convergence_pruning.json — experiments/sec unpruned vs warm-only
#   vs pruned (golden-trace convergence pruning, E15), swept over fault
#   location class x injection distribution x trace interval.
#   BENCH_database.json — indexed query engine vs full scans on a 100k-row
#   campaign archive (E16): equality/range/IS NULL probes, the analysis
#   join, prepared-vs-reparsed statements, insert index-maintenance cost.
#   BENCH_equivalence_dedup.json — experiments/sec plain vs warm vs pruned
#   vs equivalence-classed dedup (E17), swept over fault location class
#   (SCIFI regfile, runtime-SWIFI memory) x sampling density, plus class
#   and synthesized-experiment counts per cell.
#   BENCH_archive_io.json — campaign archive I/O (E18): binary columnar
#   snapshot save/load cost and size, per-batch WAL group commit vs
#   full-file rewrite, and snapshot+WAL recovery cost with a byte-identity
#   self-check.
#   BENCH_memory_reset.json — zero-copy experiment reset (E19): COW paged
#   memory reset/restore throughput vs the flat full-copy reference,
#   setup-dominated campaign experiments/sec, and per-worker resident bytes
#   with the golden workload image interned once per campaign.
#   BENCH_static_prune.json — static fault-space pruning (E20): run-static
#   (no-effect classes from CFG + dataflow analysis alone, no golden pre-run)
#   vs cold and vs timeline-driven run-dedup, on a dense never-accessed
#   register cell and a sparse never-read memory cell, plus prune rates and
#   the timeline-vs-static preparation cost.
#
# Usage: scripts/bench.sh [build-dir]     (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Only pin the build type on a fresh directory: re-specifying it on an
# existing one with a different type forces a full rebuild.
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target bench_checkpoint_fastforward bench_cpu_throughput \
             bench_convergence_pruning bench_database bench_equivalence_dedup \
             bench_archive_io bench_memory_reset bench_static_prune

"$BUILD_DIR"/bench/bench_checkpoint_fastforward \
    --json "$BUILD_DIR"/BENCH_checkpoint.json

"$BUILD_DIR"/bench/bench_cpu_throughput \
    --json "$BUILD_DIR"/BENCH_cpu_throughput.json

"$BUILD_DIR"/bench/bench_convergence_pruning \
    --json "$BUILD_DIR"/BENCH_convergence_pruning.json

"$BUILD_DIR"/bench/bench_database \
    --json "$BUILD_DIR"/BENCH_database.json

"$BUILD_DIR"/bench/bench_equivalence_dedup \
    --json "$BUILD_DIR"/BENCH_equivalence_dedup.json

"$BUILD_DIR"/bench/bench_archive_io \
    --json "$BUILD_DIR"/BENCH_archive_io.json

"$BUILD_DIR"/bench/bench_memory_reset \
    --json "$BUILD_DIR"/BENCH_memory_reset.json

"$BUILD_DIR"/bench/bench_static_prune \
    --json "$BUILD_DIR"/BENCH_static_prune.json

# One aggregate file at the repo root: nested objects keyed by benchmark.
# Each per-bench file is a single flat JSON object on one line.
{
  printf '{\n'
  printf '  "checkpoint": %s,\n' "$(cat "$BUILD_DIR"/BENCH_checkpoint.json)"
  printf '  "cpu_throughput": %s,\n' "$(cat "$BUILD_DIR"/BENCH_cpu_throughput.json)"
  printf '  "convergence_pruning": %s,\n' "$(cat "$BUILD_DIR"/BENCH_convergence_pruning.json)"
  printf '  "database": %s,\n' "$(cat "$BUILD_DIR"/BENCH_database.json)"
  printf '  "equivalence_dedup": %s,\n' "$(cat "$BUILD_DIR"/BENCH_equivalence_dedup.json)"
  printf '  "archive_io": %s,\n' "$(cat "$BUILD_DIR"/BENCH_archive_io.json)"
  printf '  "memory_reset": %s,\n' "$(cat "$BUILD_DIR"/BENCH_memory_reset.json)"
  printf '  "static_prune": %s\n' "$(cat "$BUILD_DIR"/BENCH_static_prune.json)"
  printf '}\n'
} > BENCH_PR10.json

echo "bench: OK (BENCH_PR10.json; per-bench JSON in $BUILD_DIR/)"
