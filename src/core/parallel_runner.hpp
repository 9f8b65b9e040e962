// The one campaign loop, and ParallelCampaignRunner on top of it.
//
// Every campaign run goes through one dispatch-and-commit loop
// (parallel_runner.cpp). FaultInjectionAlgorithms::RunCampaign (and the
// Fig. 2 FaultInjector* methods on top of it) runs it inline on its own
// target; ParallelCampaignRunner::Run runs it on targets built by a factory.
// Either way the run itself prepares its targets, decides and builds the
// golden-run products once (on the first target) and shares them read-only
// across all of them. The loop partitions the pending experiments into
// units, executes one representative per unit and commits every
// experiment's rows strictly in experiment order, so any run leaves the
// database byte-identical to a cold serial run of the same campaign. A plain
// run is the trivial partition: each experiment is its own unit, executed
// with ExecuteExperiment and no planning ahead. Equivalence classing
// supplies real classes, whose representatives run with ExecutePlanned and
// whose other members are synthesized at commit.
//
// Why sharding is safe: every experiment derives its RNG stream from
// (campaign seed, experiment index) alone (core/algorithms.cpp), and every
// experiment body starts by re-initializing the test card and re-downloading
// the workload, so experiments are independent of execution order and of the
// target instance they run on. The loop exploits exactly that:
//
//   - one target (every serial driver, and a runner whose worker count
//     resolves to 1): no thread starts. The calling thread executes each
//     unit when its first experiment comes up, commits every experiment as
//     its own CampaignStore::PutExperiments (one WAL group commit) before the
//     ProgressMonitor sees it, and keeps no rows after their commit, so a
//     killed run leaves whole experiments only;
//   - N targets: one std::jthread per target pulls units off a shared
//     atomic cursor, then takes the equivalence spot checks; the calling
//     thread commits their results strictly in experiment order in ~64-row
//     batches, and invokes the ProgressMonitor in order — monitors need no
//     thread-safety;
//   - resume (Fig. 7 restart): experiments already logged are skipped
//     before dispatch;
//   - early stop (monitor returns false) cancels outstanding units; the
//     speculative results of later experiments are discarded, so the
//     database again matches a serially-stopped run;
//   - an experiment that fails — an error status, or a std::exception thrown
//     by its target — ends the run with that error after the experiments
//     before it are committed, inline and threaded alike.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/algorithms.hpp"
#include "core/equivalence.hpp"
#include "cpu/cpu.hpp"

namespace goofi::core {

class ParallelCampaignRunner {
 public:
  /// Builds one worker's private target stack. Called on the committer
  /// thread; the produced target is driven by exactly one thread.
  using TargetFactory =
      std::function<std::unique_ptr<FaultInjectionAlgorithms>()>;

  /// `num_workers` <= 0 selects DefaultWorkers(). The worker count is
  /// additionally capped by the number of pending experiments; a count of 1
  /// runs inline, without threads.
  ParallelCampaignRunner(CampaignStore* store, TargetFactory factory,
                         int num_workers = 0);

  /// The machine's hardware thread count, or 4 when it is unknown.
  static int DefaultWorkers();

  /// Progress callbacks arrive on the committer thread, strictly in
  /// experiment order (the Fig. 7 progress window semantics, including
  /// ending the campaign early by returning false).
  void SetProgressMonitor(ProgressMonitor* monitor) { monitor_ = monitor; }

  /// Applied to every worker target. The filter is shared across threads and
  /// must therefore be safe to call concurrently (LivenessAnalyzer filters
  /// are: they only read the immutable trace).
  void SetLivenessFilter(FaultInjectionAlgorithms::LivenessFilter filter) {
    liveness_filter_ = std::move(filter);
  }

  /// Checkpoint fast-forward: when the target supports it and warm start
  /// pays off (see FaultInjectionAlgorithms::SetCheckpointInterval), the run
  /// builds one golden-run CheckpointCache on its first target and shares it
  /// read-only across all workers, so each experiment warm-starts from the
  /// nearest snapshot before its injection time. 0 disables.
  void SetCheckpointInterval(uint64_t interval) {
    checkpoint_interval_ = interval;
  }

  /// Engages warm-start even when some faults may inject before the first
  /// checkpoint (see FaultInjectionAlgorithms::SetForceWarmStart).
  void SetForceWarmStart(bool force) { force_warm_start_ = force; }

  /// Experiments of the most recent Run that started from a checkpoint,
  /// summed over all workers. Outside stats() so warm and cold runs compare
  /// equal.
  int warm_starts() const { return warm_starts_; }

  /// Golden-trace convergence pruning: when enabled (and the target supports
  /// checkpoints), the run records one GoldenTrace on its first target and
  /// shares it read-only across all workers, together with a shared
  /// cross-experiment ConvergenceMemo. Experiments whose
  /// post-injection state rejoins the golden trajectory terminate at the
  /// matching boundary with their remaining rows synthesized — byte-identical
  /// to a full run.
  void SetConvergencePruning(bool enabled) { convergence_pruning_ = enabled; }

  /// Convergence counters of the most recent Run, summed over all workers
  /// (like warm_starts(), outside stats() so pruned and unpruned runs
  /// compare equal).
  const ConvergenceStats& prune_stats() const { return prune_stats_; }

  /// Fault-list equivalence classing (core/equivalence): when enabled, the
  /// committer thread plans every pending experiment's fault list up front,
  /// partitions the experiments into provably-equivalent classes, executes
  /// one representative per class and synthesizes the remaining members'
  /// rows at commit time. Commit order is unchanged, so the database stays
  /// byte-identical to the undeduplicated run. Eligibility mirrors pruning:
  /// transient single-flip experiments only; everything else stays a
  /// singleton class and runs normally.
  void SetEquivalenceClassing(bool enabled) { equivalence_classing_ = enabled; }

  /// Access timeline for window-based classes, shared read-only across the
  /// run. Optional: without it only past-end and pre-runtime-SWIFI classes
  /// form.
  void SetEquivalenceTimeline(
      std::shared_ptr<const LivenessAnalyzer> timeline) {
    equivalence_timeline_ = std::move(timeline);
  }

  /// Static workload analysis (core/static_analysis) for the no-effect
  /// classes — flips into statically never-accessed registers or never-read
  /// memory words. Optional and independent of the timeline: `run-static`
  /// passes only this, skipping the golden pre-run entirely. Shared
  /// read-only across the run.
  void SetStaticAnalysis(std::shared_ptr<const StaticAnalysis> analysis) {
    equivalence_static_ = std::move(analysis);
  }

  /// Spot-check sampling: every n-th multi-member class re-executes one
  /// synthesized member and verifies StateHasher blob equality of the full
  /// row set — the collision/logic backstop. The re-executions run on the
  /// worker targets once the classes are dispatched (on the one target after
  /// the commit loop when the run is inline); the committer compares them in
  /// class order after the last commit. A mismatch fails the Run. 0
  /// disables.
  void SetSpotCheckEvery(int every) { spot_check_every_ = every; }

  /// Dedup counters of the most recent Run (outside stats(), like
  /// warm_starts(): deduped and plain runs must compare equal on Stats).
  const EquivalenceStats& dedup_stats() const { return dedup_stats_; }

  /// Copy-on-write memory residency/counters of the most recent Run,
  /// aggregated over all worker targets at the end of the run. Each distinct
  /// golden image is counted once — with factory-installed registries all
  /// workers of a campaign share one physical workload image.
  const cpu::MemoryUsageAggregator::Totals& memory_usage() const {
    return memory_usage_;
  }

  /// Runs `campaign_name` to completion (technique dispatched from the
  /// stored campaign, as in RunCampaign). On an experiment's error,
  /// experiments committed so far stay in the database — exactly what a
  /// failed serial run leaves behind — and the first error is returned.
  util::Status Run(const std::string& campaign_name);

  /// Aggregated over all workers, counting only committed experiments, so a
  /// run's Stats equal the serial driver's.
  const FaultInjectionAlgorithms::Stats& stats() const { return stats_; }

  /// Workers the most recent Run actually used (1: it ran inline); 0 before
  /// any Run.
  int workers_used() const { return workers_used_; }

 private:
  CampaignStore* store_;
  TargetFactory factory_;
  int num_workers_;
  int workers_used_ = 0;
  uint64_t checkpoint_interval_ =
      FaultInjectionAlgorithms::kDefaultCheckpointInterval;
  bool force_warm_start_ = false;
  int warm_starts_ = 0;
  bool convergence_pruning_ = false;
  ConvergenceStats prune_stats_;
  bool equivalence_classing_ = false;
  std::shared_ptr<const LivenessAnalyzer> equivalence_timeline_;
  std::shared_ptr<const StaticAnalysis> equivalence_static_;
  int spot_check_every_ = 4;
  EquivalenceStats dedup_stats_;
  cpu::MemoryUsageAggregator::Totals memory_usage_;
  ProgressMonitor* monitor_ = nullptr;
  FaultInjectionAlgorithms::LivenessFilter liveness_filter_;
  FaultInjectionAlgorithms::Stats stats_;
};

/// Factory for self-contained simulated Thor RD stacks: each call builds an
/// independent SimTestCard (TRD32 CPU + scan logic) owned by its
/// ThorRdTarget.
ParallelCampaignRunner::TargetFactory MakeSimThorFactory(
    CampaignStore* store, const cpu::CpuConfig& config = cpu::CpuConfig());

/// Factory for the scan-less SWIFI simulator target (core/swifi_target).
ParallelCampaignRunner::TargetFactory MakeSwifiSimFactory(
    CampaignStore* store, const cpu::CpuConfig& config = cpu::CpuConfig());

}  // namespace goofi::core
