// Golden-trace convergence pruning (PR 4).
//
// Rationale: every post-injection suffix is deterministic. Once a faulty
// target's complete execution-visible state equals the golden (fault-free)
// run's state *at the same retired-instruction count*, the remainder of the
// experiment is bit-for-bit identical to the golden remainder — the fault
// was overwritten or masked, and simulating further cannot produce a
// different outcome. A run therefore records a cheap incremental
// state hash (plus the exact hashed byte stream as a collision guard) at
// every checkpoint boundary of the golden run, together with the golden
// final readouts; experiments compare their own hash at those boundaries and
// terminate early on a verified match, synthesizing the remaining database
// rows from the recorded golden data so the database stays byte-identical to
// a full run.
//
// A cross-experiment memoization table (ConvergenceMemo) layers on top: two
// experiments whose *faulty* states collide at the same instret share one
// simulated suffix, even when neither converges with golden.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace goofi::core {

/// One golden-run observation point: the state digest at an exact
/// retired-instruction count (always a multiple of the trace interval).
/// `blob` is the exact byte stream the hash digested (see cpu::StateHasher):
/// comparing blobs is full-state equality over precisely the hashed scope,
/// so a 64-bit hash collision can never cause a false convergence.
struct GoldenBoundary {
  uint64_t instret = 0;
  uint64_t hash = 0;
  std::vector<uint8_t> blob;
};

/// True iff the candidate state matches the boundary exactly — hash first
/// (cheap reject), then the full-state blob (collision guard).
inline bool ConvergenceMatch(const GoldenBoundary& boundary, uint64_t hash,
                             const std::vector<uint8_t>& blob) {
  return boundary.hash == hash && boundary.blob == blob;
}

/// Everything recorded about the golden run for convergence pruning:
/// per-boundary state digests, the golden final LoggedState (the outcome an
/// experiment converging at any boundary would reach), and — for detail-mode
/// campaigns — the golden per-instruction readout rows. Built once per run
/// (core/parallel_runner.cpp), then shared read-only.
class GoldenTrace {
 public:
  void set_interval(uint64_t interval) { interval_ = interval; }
  uint64_t interval() const { return interval_; }

  /// Campaign this trace was built for; targets refuse to prune with a trace
  /// from another campaign (RerunDetailed re-binds campaigns under the same
  /// target object).
  void set_campaign_name(std::string name) { campaign_name_ = std::move(name); }
  const std::string& campaign_name() const { return campaign_name_; }

  /// Boundaries must be added in strictly increasing instret order.
  void AddBoundary(GoldenBoundary boundary);
  const std::vector<GoldenBoundary>& boundaries() const { return boundaries_; }

  /// Exact-instret lookup (binary search); nullptr when the golden run never
  /// reached a boundary at `instret`.
  const GoldenBoundary* FindBoundary(uint64_t instret) const;

  /// Golden final outcome, captured by running the full experiment epilogue
  /// (ReadMemory + observation ReadScanChain + CollectState) once after the
  /// golden run terminates.
  void SetFinalState(LoggedState state) {
    final_state_ = std::move(state);
    has_final_state_ = true;
  }
  bool has_final_state() const { return has_final_state_; }
  const LoggedState& final_state() const { return final_state_; }

  /// Golden detail-mode rows (one per executed instruction, whole run).
  /// Only recorded for detail-mode campaigns. `detail_complete` is false
  /// when the golden detail log hit the row cap before termination — pruned
  /// synthesis would then diverge from an unpruned run, so targets must not
  /// prune detail experiments against an incomplete trace.
  std::vector<LoggedState>* mutable_detail_rows() { return &detail_rows_; }
  const std::vector<LoggedState>& detail_rows() const { return detail_rows_; }
  void set_detail_complete(bool complete) { detail_complete_ = complete; }
  bool detail_complete() const { return detail_complete_; }

  /// Approximate heap footprint, for accounting next to the checkpoint cache.
  size_t MemoryBytes() const;

 private:
  uint64_t interval_ = 0;
  std::string campaign_name_;
  std::vector<GoldenBoundary> boundaries_;
  LoggedState final_state_;
  bool has_final_state_ = false;
  std::vector<LoggedState> detail_rows_;
  bool detail_complete_ = true;
};

/// Cross-experiment suffix memoization: hash-at-first-divergent-boundary →
/// recorded final outcome. When an experiment fails to converge with golden
/// at a boundary, its (instret, digest) there keys the *faulty* suffix; any
/// later experiment reaching an identical faulty state at the same instret
/// must produce the identical final LoggedState and can stop immediately.
///
/// Thread-safe: shared across ParallelCampaignRunner workers. Inserts are
/// single-writer per entry (first experiment to finish wins); lookups verify
/// the full-state blob, so a hash collision degrades to a miss, never to a
/// wrong outcome.
class ConvergenceMemo {
 public:
  /// Bounds the table so adversarial campaigns cannot grow it unboundedly.
  static constexpr size_t kMaxEntries = 4096;

  /// Returns true and fills `out` on a verified hit.
  bool Lookup(uint64_t instret, uint64_t hash,
              const std::vector<uint8_t>& blob, LoggedState* out) const;

  /// Returns true if the entry was stored (false when full or already
  /// present — both benign).
  bool Insert(uint64_t instret, uint64_t hash, std::vector<uint8_t> blob,
              LoggedState final_state);

  size_t size() const;

 private:
  struct Entry {
    std::vector<uint8_t> blob;
    LoggedState final_state;
  };

  mutable std::mutex mutex_;
  std::map<std::pair<uint64_t, uint64_t>, Entry> entries_;
};

/// Pruning observability, surfaced through the shell `stats` command.
/// Deliberately outside FaultInjectionAlgorithms::Stats (which pruned and
/// unpruned runs must compare equal on), like warm_starts(): how often
/// pruning fired is order- and configuration-dependent, the logged results
/// are not.
struct ConvergenceStats {
  int64_t boundary_checks = 0;    ///< hash comparisons performed
  int64_t pruned_golden = 0;      ///< experiments ended by golden convergence
  int64_t pruned_memo = 0;        ///< experiments ended by a memo hit
  int64_t collision_rejects = 0;  ///< hash matched but full state differed
  int64_t memo_inserts = 0;       ///< suffix outcomes recorded in the memo

  int64_t pruned_total() const { return pruned_golden + pruned_memo; }

  ConvergenceStats& operator+=(const ConvergenceStats& other) {
    boundary_checks += other.boundary_checks;
    pruned_golden += other.pruned_golden;
    pruned_memo += other.pruned_memo;
    collision_rejects += other.collision_rejects;
    memo_inserts += other.memo_inserts;
    return *this;
  }
};

}  // namespace goofi::core
