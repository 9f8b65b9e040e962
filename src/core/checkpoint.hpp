// Golden-run checkpoint store for warm-starting experiments.
//
// Cold-starting every experiment re-simulates the same pre-injection prefix
// once per experiment (GOOFI §3.2's stop–inject–resume loop only diverges at
// the breakpoint). The standard fix in simulator-based FI tools — FAIL*'s
// golden-run reuse, MEFISTO's simulator save/restore — is to snapshot the
// fault-free target every K retired instructions during campaign
// preparation and start each experiment from the nearest checkpoint before
// its injection point.
//
// A CheckpointCache is built once per run, on the run's first target
// (core/parallel_runner.cpp), and is immutable afterwards, so workers share
// it read-only with no synchronization. Payloads are opaque here: each
// target stores whatever it needs (CPU + card + environment + bookkeeping)
// behind CheckpointPayload and downcasts on restore.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace goofi::core {

/// Target-specific snapshot contents. Concrete payload types live in the
/// target's .cpp: the same code that builds a payload restores it.
struct CheckpointPayload {
  virtual ~CheckpointPayload() = default;

  /// Approximate heap footprint, for store accounting (page deltas keep
  /// this far below a full memory image).
  virtual size_t MemoryBytes() const = 0;
};

/// One golden-run snapshot: the fault-free target state after exactly
/// `instret` retired instructions.
struct Checkpoint {
  uint64_t instret = 0;
  std::shared_ptr<const CheckpointPayload> payload;
};

/// Ordered collection of golden-run checkpoints at (roughly) every
/// `interval` retired instructions. Built once, then read-only — safe to
/// share across ParallelCampaignRunner workers.
class CheckpointCache {
 public:
  explicit CheckpointCache(uint64_t interval) : interval_(interval) {}

  uint64_t interval() const { return interval_; }

  /// Appends a checkpoint. Instret values must be non-decreasing (the
  /// builder walks the golden run forward).
  void Add(Checkpoint checkpoint);

  /// The checkpoint with the greatest instret strictly below `inject_instr`,
  /// or nullptr if none qualifies. Strictly below: every run loop arms a
  /// breakpoint *ahead* of the restored position, and the debug unit only
  /// evaluates triggers after stepping — restoring exactly at the injection
  /// instant would fire one instruction late.
  const Checkpoint* FindBefore(uint64_t inject_instr) const;

  bool empty() const { return checkpoints_.empty(); }
  size_t size() const { return checkpoints_.size(); }

  /// Instret of the last (furthest) checkpoint; 0 when empty.
  uint64_t last_instret() const {
    return checkpoints_.empty() ? 0 : checkpoints_.back().instret;
  }

  /// Total payload footprint across all checkpoints.
  size_t MemoryBytes() const;

 private:
  uint64_t interval_;
  std::vector<Checkpoint> checkpoints_;
};

}  // namespace goofi::core
