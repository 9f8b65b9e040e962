// FaultInjectionAlgorithms — the middle layer of the GOOFI architecture
// (paper Fig. 1/2).
//
// The class defines the fault-injection algorithms as concrete campaign
// drivers (FaultInjectorScifi, FaultInjectorSwifiPreRuntime,
// FaultInjectorSwifiRuntime) composed from abstract building-block methods
// that each TargetSystemInterface must implement. This is the paper's Fig. 2
// verbatim, with C++ naming:
//
//   paper (Java)           here
//   ---------------------  -------------------------
//   initTestCard()         InitTestCard()
//   loadWorkload()         LoadWorkload()
//   writeMemory()          WriteMemory()
//   runWorkload()          RunWorkload()
//   waitForBreakpoint()    WaitForBreakpoint()
//   readScanChain()        ReadScanChain()
//   injectFault()          InjectFault()
//   writeScanChain()       WriteScanChain()
//   waitForTermination()   WaitForTermination()
//   readMemory()           ReadMemory()
//   faultInjectorSCIFI()   FaultInjectorScifi()
//   faultInjectorSWIFI()   FaultInjectorSwifiPreRuntime()
//
// Runtime SWIFI (a §4 planned extension) adds two blocks — MutateImage()
// and InjectMemoryFault() — following §2.1: "The previously undefined
// abstract methods needed for defining the new fault injection technique are
// added to the Framework class."
#pragma once

#include <functional>
#include <memory>

#include "core/campaign_store.hpp"
#include "core/checkpoint.hpp"
#include "core/convergence.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace goofi::cpu {
class Memory;
}

namespace goofi::core {

/// One enumerable fault location on the target (before an injection time is
/// chosen). Scan candidates carry chain/bit/cell; memory candidates carry
/// address/bit.
struct FaultCandidate {
  bool scan = true;
  std::string chain;
  uint32_t chain_bit = 0;
  std::string cell_name;
  uint32_t address = 0;
  uint32_t bit = 0;
};

/// Progress callback (the progress window of paper Fig. 7). Return false to
/// end the campaign early; block inside the callback to pause it. In a
/// parallel run (core::ParallelCampaignRunner) callbacks arrive on the
/// committer thread, still strictly in experiment order.
class ProgressMonitor {
 public:
  virtual ~ProgressMonitor() = default;
  virtual bool OnExperiment(int done, int total, const LoggedState& last) = 0;
};

class FaultInjectionAlgorithms {
 public:
  explicit FaultInjectionAlgorithms(CampaignStore* store) : store_(store) {}
  virtual ~FaultInjectionAlgorithms() = default;

  void SetProgressMonitor(ProgressMonitor* monitor) { monitor_ = monitor; }

  /// Optional pre-injection optimizer (a §4 planned extension): given the
  /// candidate and the chosen injection time, return false to skip the
  /// combination because the location does not hold live data there. See
  /// core/preinjection.
  using LivenessFilter =
      std::function<bool(const FaultCandidate&, uint64_t inject_instr)>;
  void SetLivenessFilter(LivenessFilter filter) {
    liveness_filter_ = std::move(filter);
  }

  // --- campaign drivers (concrete, Fig. 2) --------------------------------
  //
  // Each runs the campaign the way ParallelCampaignRunner does, on this
  // target alone and inline (core/parallel_runner): it prepares the
  // target, builds the golden-run products this target's settings ask for,
  // then runs the reference run and every experiment not yet logged, each
  // committed as one PutExperiments before the progress monitor sees it.

  /// Scan-chain implemented fault injection. Rejects a campaign whose stored
  /// technique is another, as do the two SWIFI drivers.
  util::Status FaultInjectorScifi(const std::string& campaign_name);

  /// Pre-runtime software-implemented fault injection: the program/data
  /// image is mutated before execution starts (§1).
  util::Status FaultInjectorSwifiPreRuntime(const std::string& campaign_name);

  /// Runtime SWIFI: stop at a breakpoint and corrupt memory (extension).
  util::Status FaultInjectorSwifiRuntime(const std::string& campaign_name);

  /// Runs the campaign with its stored technique.
  util::Status RunCampaign(const std::string& campaign_name);

  /// Re-runs a logged experiment with the same faults in detail mode,
  /// logging one row per instruction with parentExperiment set to
  /// `experiment_name` (the E1/E2 scenario of §2.3).
  util::Status RerunDetailed(const std::string& experiment_name);

  /// Statistics for the current/last campaign.
  struct Stats {
    int experiments_run = 0;
    int injections_skipped_dead = 0;  ///< skipped by the liveness filter
    int experiments_resumed = 0;      ///< already in the database; skipped

    bool operator==(const Stats&) const = default;
  };
  const Stats& stats() const { return stats_; }

  // --- experiment-level API (used by the campaign loop) ----------------------
  //
  // The campaign loop (core/parallel_runner) prepares its targets once and
  // pulls uncommitted experiment records off them, so commits are ordered
  // and batched centrally.

  /// Binds this target to `campaign` and enumerates its fault space. Resets
  /// stats() and drops any installed golden-run products; builds none. Does
  /// not touch the store.
  util::Status PrepareCampaign(const CampaignData& campaign);

  /// Runs experiment `index` of the prepared campaign — or the fault-free
  /// reference run when `index` < 0 — and returns its database row(s)
  /// (main row first, then any detail rows) WITHOUT committing them. Fault
  /// generation derives the per-experiment RNG stream from (campaign seed,
  /// index), so results are independent of call order across targets.
  util::Result<std::vector<CampaignStore::ExperimentRow>> ExecuteExperiment(
      int index);

  /// Draws experiment `index`'s fault list without running it: the same RNG
  /// stream, liveness-filter retries and skip accounting as
  /// ExecuteExperiment, so a later ExecutePlanned with the returned list is
  /// byte-identical to ExecuteExperiment(index). Lets the equivalence
  /// classer see every fault list up front (core/equivalence).
  util::Result<std::vector<FaultInstance>> PlanFaults(int index);

  /// Runs experiment `index` with a fault list previously returned by
  /// PlanFaults (on this or any other target prepared for the same
  /// campaign), skipping generation.
  util::Result<std::vector<CampaignStore::ExperimentRow>> ExecutePlanned(
      int index, std::vector<FaultInstance> faults);

  /// The experiment_data column for a fault list — shared by BuildRecords
  /// and equivalence-class row synthesis so synthesized rows are
  /// byte-identical to executed ones.
  static std::string ExperimentData(Technique technique,
                                    const std::vector<FaultInstance>& faults);

  /// Detail-mode row cap per experiment (§3.3 logging "as frequently as the
  /// target system allows" has to stop somewhere). Shared by the targets'
  /// detail loops and by equivalence-class suffix synthesis, which must
  /// refuse to synthesize from a capped representative.
  static constexpr size_t kMaxDetailRows = 20000;

  // --- checkpoint fast-forward ---------------------------------------------
  //
  // Before its reference run, a run (RunCampaign here, or the
  // ParallelCampaignRunner) has one target that SupportsCheckpoints run the
  // fault-free workload once, snapshotting full target state every
  // `checkpoint_interval` retired instructions. Each experiment then warm-
  // starts from the nearest checkpoint strictly before its inject_instr
  // instead of re-simulating from reset. The warm path is bit-for-bit
  // equivalent: a warm campaign's database is byte-identical to a cold one.

  static constexpr uint64_t kDefaultCheckpointInterval = 4096;

  /// Retired instructions between RunCampaign's golden-run snapshots; 0
  /// disables checkpointing (and convergence pruning) entirely.
  void SetCheckpointInterval(uint64_t interval) {
    checkpoint_interval_ = interval;
  }

  /// Forces RunCampaign's warm start even for campaigns whose faults may
  /// inject before the first checkpoint interval. By default warm start
  /// engages only for SCIFI and runtime SWIFI campaigns with
  /// inject_min_instr >= checkpoint_interval (all faults inject after the
  /// first snapshot, so building the cache is guaranteed to pay off).
  void SetForceWarmStart(bool force) { force_warm_start_ = force; }

  /// Installs a prebuilt cache (shared read-only across parallel workers).
  /// PrepareCampaign resets any installed cache, so install after preparing.
  void SetCheckpointCache(std::shared_ptr<const CheckpointCache> cache) {
    checkpoint_cache_ = std::move(cache);
  }

  /// Experiments that started from a checkpoint instead of from reset.
  /// Deliberately outside Stats: warm and cold runs must compare equal.
  int warm_starts() const { return warm_starts_; }

  /// The target's simulated main memory, for copy-on-write residency and
  /// write-barrier counters (aggregated by the parallel runner, reported by
  /// the shell `stats` command). Null for targets without simulated memory.
  virtual const cpu::Memory* TargetMemory() const { return nullptr; }

  /// Whether this target implements BuildGoldenRun/RestoreCheckpoint.
  virtual bool SupportsCheckpoints() const { return false; }

  /// Golden-run builder: runs the prepared campaign's fault-free workload
  /// once, filling whichever products are non-null — `cache` with
  /// full-state snapshots at instruction 0 and every `interval` retired
  /// instructions up to the injection window, and `trace` with a
  /// convergence-pruning record (per-boundary state digests at every
  /// multiple of `interval` until termination, the golden final LoggedState,
  /// and — for detail-mode campaigns — the golden per-instruction rows).
  /// Requires PrepareCampaign.
  virtual util::Status BuildGoldenRun(uint64_t interval, CheckpointCache* cache,
                                      GoldenTrace* trace) {
    (void)interval;
    (void)cache;
    (void)trace;
    return util::FailedPrecondition(
        "this target does not support checkpointing");
  }

  // --- convergence pruning -------------------------------------------------
  //
  // With pruning enabled, the run additionally records a GoldenTrace during
  // the golden run. Experiments then compare their full-state digest
  // against the golden digest at every checkpoint boundary after injection;
  // on a (blob-verified) match the run terminates immediately and its
  // remaining rows are synthesized from the recorded golden data — the
  // database stays byte-identical to a full run. See core/convergence.hpp.

  /// Master switch; off by default. Read by RunCampaign, and by the
  /// target-level run loops alongside an installed trace.
  void SetConvergencePruning(bool enabled) { convergence_pruning_ = enabled; }

  /// Installs a prebuilt golden trace (shared read-only across parallel
  /// workers). PrepareCampaign resets any installed trace, so install after
  /// preparing. Installing a trace implies pruning for matching campaigns.
  void SetGoldenTrace(std::shared_ptr<const GoldenTrace> trace) {
    golden_trace_ = std::move(trace);
  }

  /// Installs a cross-experiment suffix memo (shared mutable, thread-safe).
  /// A run installs one beside its golden trace. PrepareCampaign resets it.
  void SetConvergenceMemo(std::shared_ptr<ConvergenceMemo> memo) {
    convergence_memo_ = std::move(memo);
  }

  /// Ensures the worker-local prerequisites for hashing against an installed
  /// golden trace (memory baseline etc.) without rebuilding the trace. A run
  /// calls this on each of its targets after SetGoldenTrace.
  virtual util::Status PrepareGoldenBaseline() { return util::Status::Ok(); }

  /// Pruning observability. Like warm_starts(), deliberately outside Stats:
  /// pruned and unpruned runs must compare equal on Stats.
  const ConvergenceStats& prune_stats() const { return prune_stats_; }

 protected:
  /// Restores the target to `checkpoint`'s state, replacing
  /// InitTestCard..RunWorkload + fast-forwarding execution to the
  /// checkpoint's instruction; WaitForBreakpoint follows as on a cold run.
  virtual util::Status RestoreCheckpoint(const Checkpoint& checkpoint) {
    (void)checkpoint;
    return util::FailedPrecondition(
        "this target does not support checkpointing");
  }

  // --- abstract building blocks (implemented per target system) ----------

  virtual util::Status InitTestCard() = 0;
  virtual util::Status LoadWorkload() = 0;
  /// Downloads the workload's initial input data into target memory.
  virtual util::Status WriteMemory() = 0;
  /// Resets the target to the workload's entry point, ready to run.
  virtual util::Status RunWorkload() = 0;
  /// Blocks until the injection breakpoint fires (servicing environment
  /// exchanges on the way).
  virtual util::Status WaitForBreakpoint() = 0;
  /// Captures the chains that the current faults touch.
  virtual util::Status ReadScanChain() = 0;
  /// Applies the current faults to the captured images.
  virtual util::Status InjectFault() = 0;
  /// Writes the fault-injected images back.
  virtual util::Status WriteScanChain() = 0;
  /// Resumes until a termination condition (§3.2): detection, workload end,
  /// timeout or the iteration budget.
  virtual util::Status WaitForTermination() = 0;
  /// Reads the workload's output locations from target memory.
  virtual util::Status ReadMemory() = 0;

  // SWIFI building blocks:
  /// Pre-runtime: corrupts the downloaded image before RunWorkload.
  virtual util::Status MutateImage() = 0;
  /// Runtime: corrupts memory while stopped at the breakpoint.
  virtual util::Status InjectMemoryFault() = 0;

  /// Enumerates the fault space for one location selector.
  virtual util::Result<std::vector<FaultCandidate>> EnumerateFaultSpace(
      const FaultLocationSelector& selector) = 0;

  /// Assembles the logged system state of the just-finished experiment.
  virtual util::Result<LoggedState> CollectState() = 0;

  // --- context shared between driver and blocks ---------------------------

  CampaignStore* store_;
  ProgressMonitor* monitor_ = nullptr;
  LivenessFilter liveness_filter_;
  CampaignData campaign_;
  std::vector<FaultInstance> faults_;  ///< faults of the current experiment
  util::Rng rng_;
  Stats stats_;

  /// Filled by WaitForTermination in detail mode: one entry per executed
  /// instruction after injection.
  std::vector<LoggedState> detail_log_;

  // Convergence-pruning context, consumed by the target-level run loops.
  std::shared_ptr<const GoldenTrace> golden_trace_;
  std::shared_ptr<ConvergenceMemo> convergence_memo_;
  ConvergenceStats prune_stats_;
  bool convergence_pruning_ = false;

 private:
  /// The per-experiment block sequence for one technique.
  using ExperimentBody = util::Status (FaultInjectionAlgorithms::*)();

  util::Status ScifiExperiment();
  util::Status SwifiPreRuntimeExperiment();
  util::Status SwifiRuntimeExperiment();

  /// Warm-start bodies: the same block sequences with the cold prefix
  /// (InitTestCard..RunWorkload, pre-breakpoint execution) replaced by
  /// RestoreCheckpoint. Pre-runtime SWIFI has no warm form — it corrupts the
  /// image before execution, so there is no shared fault-free prefix.
  util::Status ScifiExperimentFrom(const Checkpoint& checkpoint);
  util::Status SwifiRuntimeExperimentFrom(const Checkpoint& checkpoint);

  /// Dispatches one experiment body, taking the warm-start path when a
  /// usable checkpoint exists for the current faults.
  util::Status RunBody(ExperimentBody body);

  static ExperimentBody BodyForTechnique(Technique technique);

  /// A Fig. 2 driver: RunCampaign for a campaign of `technique` only.
  util::Status RunCampaignOf(Technique technique,
                             const std::string& campaign_name);

  /// Draws `faults_` for experiment `index` from the campaign's fault space.
  util::Status GenerateFaults(const std::vector<FaultCandidate>& space,
                              int index);

  /// Assembles the database rows of the just-finished experiment: the main
  /// row plus one row per detail-mode entry. Clears the detail log.
  util::Result<std::vector<CampaignStore::ExperimentRow>> BuildRecords(
      const std::string& experiment_name, const std::string& parent);

  std::vector<FaultCandidate> fault_space_;

  uint64_t checkpoint_interval_ = kDefaultCheckpointInterval;
  bool force_warm_start_ = false;
  std::shared_ptr<const CheckpointCache> checkpoint_cache_;
  int warm_starts_ = 0;
};

}  // namespace goofi::core
