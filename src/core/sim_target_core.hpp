// SimTargetCore: the engine every simulated target shares.
//
// The paper's genericity claim (§2.2) is that a new target system only
// implements the abstract building blocks. For simulated targets most of
// those blocks are the same code whatever the machine: workload and
// environment resolution, loop-iteration servicing, the I/O words, memory
// faults, the warm-start baseline and checkpoints, the golden run, and the
// convergence-boundary engine. SimTargetCore implements them once; a target
// supplies a small set of hooks:
//
//   - machine operations: PowerUp, Download, MarkMemoryBaseline,
//     RunWorkload (reset to the entry point), ReadWords/WriteWords,
//     SaveMachine/RestoreMachine and HashMachine;
//   - its experiment run loops, RunToBreakpoint and RunToTermination, which
//     call AtBoundary whenever BoundaryDue;
//   - the observed state it logs (ObserveState);
//   - optionally a scan-chain fault space and extra pruning gates.
//
// Both golden passes are the target's own run loops with a boundary action:
// the checkpoint pass runs RunToBreakpoint and captures a checkpoint at every
// boundary, the trace pass runs RunToTermination and captures a state digest.
// A warm or pruned experiment therefore meets exactly the states a cold one
// passes through, by construction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "cpu/cpu.hpp"
#include "env/environment.hpp"
#include "env/workloads.hpp"
#include "isa/assembler.hpp"
#include "util/crc32.hpp"

namespace goofi::core {

/// Checkpoint payload of a simulated target: the host-side state the golden
/// run accumulates. Each target derives from it to add its machine snapshot
/// (SaveMachine builds the derived payload, RestoreMachine consumes it).
struct SimCheckpointPayload : CheckpointPayload {
  int iterations = 0;
  uint32_t crc_state = 0;
  std::vector<double> env_state;
};

class SimTargetCore : public FrameworkTarget {
 public:
  /// Checkpoint fast-forward and convergence pruning: BuildGoldenRun
  /// snapshots the machine plus the environment simulator, iteration count
  /// and actuator CRC, and records the GoldenTrace when asked for one.
  bool SupportsCheckpoints() const override { return true; }
  util::Status BuildGoldenRun(uint64_t interval, CheckpointCache* cache,
                              GoldenTrace* trace) override;
  util::Status PrepareGoldenBaseline() override { return EnsureWarmBaseline(); }

  /// COW memory observability: the simulated CPU's main memory.
  const cpu::Memory* TargetMemory() const override {
    return &TargetCpu().memory();
  }

 protected:
  explicit SimTargetCore(CampaignStore* store) : FrameworkTarget(store) {}

  // --- building blocks implemented once ------------------------------------

  util::Status InitTestCard() override;
  util::Status LoadWorkload() override;
  /// "the workload and initial input data is downloaded to the system"
  /// (§3.3): the plant's first sensor words.
  util::Status WriteMemory() override;
  util::Status WaitForBreakpoint() override;
  util::Status WaitForTermination() override;
  util::Status ReadMemory() override;
  util::Status MutateImage() override;
  util::Status InjectMemoryFault() override;
  util::Result<std::vector<FaultCandidate>> EnumerateFaultSpace(
      const FaultLocationSelector& selector) override;
  util::Result<LoggedState> CollectState() override;
  util::Status RestoreCheckpoint(const Checkpoint& checkpoint) override;

  // --- machine hooks ---------------------------------------------------------
  // RunWorkload (reset the CPU to the workload's entry point) stays the
  // target's Fig. 2 block.

  /// Powers the machine up, as InitTestCard's hardware half.
  virtual util::Status PowerUp() = 0;
  /// Downloads the workload image.
  virtual util::Status Download(const isa::AssembledProgram& program) = 0;
  /// Declares the current memory contents the delta/hash baseline.
  virtual util::Status MarkMemoryBaseline() = 0;
  /// Host word access to target memory, bypassing CPU protection. ReadWords
  /// fills the caller's buffer (resized to `count`; unspecified on error).
  virtual util::Status ReadWords(uint32_t address, uint32_t count,
                                 std::vector<uint32_t>* out) = 0;
  virtual util::Status WriteWords(uint32_t address,
                                  const std::vector<uint32_t>& words) = 0;
  /// A new checkpoint payload holding the machine snapshot; the core fills
  /// in the host-side fields.
  virtual util::Result<std::shared_ptr<SimCheckpointPayload>> SaveMachine() = 0;
  virtual util::Status RestoreMachine(const SimCheckpointPayload& payload) = 0;
  /// Digests all machine state that can shape the rest of the run.
  virtual util::Status HashMachine(cpu::StateHasher* hasher) = 0;
  /// Whether HashMachine works; without it there is no pruning.
  virtual bool SupportsStateHash() const { return true; }
  virtual const cpu::Cpu& TargetCpu() const = 0;

  // --- run-loop hooks --------------------------------------------------------
  // Both loops service iteration boundaries (ServiceIteration), stop on
  // Terminated(), and call AtBoundary whenever BoundaryDue, returning when it
  // says to stop.

  /// Runs to the current faults' injection breakpoint, or to termination
  /// when there are none.
  virtual util::Status RunToBreakpoint() = 0;
  /// Runs the post-injection phase to termination.
  virtual util::Status RunToTermination() = 0;

  // --- observation and target-specific gates -------------------------------

  /// Adds the target's observed state (its scan images) to `state`.
  virtual void ObserveState(LoggedState* state) = 0;
  /// The fault space of a non-memory selector; the default has none.
  virtual util::Result<std::vector<FaultCandidate>> EnumerateScanSpace(
      const FaultLocationSelector& selector);
  /// Target-specific conditions for pruning the experiment entering
  /// WaitForTermination, on top of the common ones.
  virtual bool TargetAllowsPruning() const { return true; }
  /// Whether the state at the current boundary may be compared at all.
  virtual bool BoundaryComparable() const { return true; }
  /// Resets target-specific per-experiment state (cold start and restore).
  virtual void ResetTargetRunState() {}

  // --- shared engine ---------------------------------------------------------

  /// Assembles the campaign's workload if not already cached and resolves
  /// its I/O layout (environment words, loop boundary, result location).
  util::Status EnsureWorkload();

  /// Reads the actuator words, advances the environment, writes the sensor
  /// words, through buffers the core keeps across iterations.
  util::Status ServiceIteration();

  /// True when a termination condition has been reached.
  bool Terminated() const;

  /// Establishes the memory delta baseline for the prepared workload (the
  /// deterministic cold prologue: InitTestCard/LoadWorkload/WriteMemory +
  /// MarkMemoryBaseline). Each worker runs this once per workload, so a
  /// shared cache's deltas restore against an identical baseline — and so
  /// canonical memory hashing has a baseline to digest against.
  util::Status EnsureWarmBaseline();

  /// A fault's effect on the bit it targets: a stuck-at forces its value,
  /// every other model flips it.
  static bool FaultyBit(const FaultInstance& fault, bool bit) {
    return fault.kind == FaultModelKind::kPermanentStuckAt ? fault.stuck_value
                                                           : !bit;
  }

  /// Applies one memory-space fault to its word.
  util::Status ApplyMemoryFault(const FaultInstance& fault);

  /// Whether the run loop has reached the next boundary.
  bool BoundaryDue() const {
    return prune_active_ && !converged_ &&
           TargetCpu().instructions_retired() >= prune_next_check_;
  }

  /// Boundary action: capture a checkpoint or a digest (golden passes), or
  /// compare against the golden trace and the memo (experiments). Advances
  /// prune_next_check_ to the next interval multiple and may clear
  /// prune_active_. Returns true when the run must stop here: the experiment
  /// converged, or the checkpoint pass covered the injection window.
  util::Result<bool> AtBoundary();

  // Cached workload: image, plant and loop boundary.
  isa::AssembledProgram program_;
  std::unique_ptr<env::EnvironmentSimulator> environment_;
  uint32_t loop_end_addr_ = 0;

  // Per-experiment bookkeeping.
  int iterations_ = 0;
  bool timed_out_ = false;
  bool injection_done_ = false;
  bool terminated_before_injection_ = false;
  uint32_t activations_done_ = 0;

  // Boundary engine state for the current run phase: prune_active_ turns the
  // boundary stops on; converged_ means the rest of the run is synthesized
  // from the golden trace or the memo (ReadMemory/ReadScanChain/CollectState
  // short-circuit).
  bool prune_active_ = false;
  bool converged_ = false;
  uint64_t prune_next_check_ = 0;

 private:
  /// Per-experiment bookkeeping as InitTestCard leaves it.
  void ResetRunState();

  /// Resets to a fresh baseline and the entry point with boundary stops
  /// every `interval` from instret 0: the prologue of both golden passes.
  util::Status StartGoldenPass(uint64_t interval);

  /// Adds the current state to capture_cache_.
  util::Status CaptureCheckpoint();

  /// Digests the machine plus the host-side per-experiment accumulators
  /// (actuator CRC, iteration count, plant state).
  util::Status HashTargetNow(cpu::StateHasher* hasher);

  /// Whether the experiment entering WaitForTermination qualifies for
  /// convergence pruning against the installed golden trace.
  bool CanPruneExperiment() const;

  env::WorkloadSpec workload_;
  bool workload_ready_ = false;
  uint32_t input_addr_ = 0;
  uint32_t output_addr_ = 0;
  uint32_t result_addr_ = 0;
  util::Crc32 actuator_crc_;
  std::vector<uint32_t> outputs_;
  /// ServiceIteration's exchange buffers: actuator words read from the
  /// target, sensor words written back.
  std::vector<uint32_t> actuator_words_;
  std::vector<uint32_t> sensor_words_;
  LoggedState synth_state_;

  // Golden pass in progress: the product its boundaries capture into.
  CheckpointCache* capture_cache_ = nullptr;
  GoldenTrace* capture_trace_ = nullptr;
  uint64_t golden_interval_ = 0;

  // First post-injection boundary whose state diverged from golden: the
  // cross-experiment memo candidate, inserted with the experiment's final
  // LoggedState in CollectState.
  bool memo_pending_ = false;
  uint64_t memo_instret_ = 0;
  uint64_t memo_hash_ = 0;
  std::vector<uint8_t> memo_blob_;

  /// Plant-state buffer reused across boundary hashes.
  std::vector<double> env_state_scratch_;

  /// Workload the memory baseline was established for; empty = none yet.
  std::string warm_ready_workload_;

  /// Workload whose downloaded image was declared the shared golden set
  /// (once per workload, at first LoadWorkload); empty = none yet.
  std::string golden_image_workload_;
};

}  // namespace goofi::core
