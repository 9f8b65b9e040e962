// The GOOFI command shell: the tool's user-facing layer.
//
// The original GOOFI drives everything from a Swing GUI (paper Figs. 5-7:
// target configuration, campaign definition, progress window). This module
// is the equivalent front end as a scriptable command interpreter — every
// GUI workflow maps to a command:
//
//   Fig. 5 (configure target)   ->  `target describe`, `list chains`
//   Fig. 6 (define campaign)    ->  `campaign set`, `campaign show/merge`
//   Fig. 7 (progress window)    ->  every run command reports to the
//                                   shell's ProgressMonitor
//   §3.4  (analysis scripts)    ->  `analyze`, `sql`, `propagation`
//
// Commands are line-oriented; see `help` for the full list. The shell is
// deliberately free of I/O: Execute() returns the output text, so the same
// code drives the interactive binary, scripts and the test suite.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/algorithms.hpp"
#include "core/campaign_store.hpp"
#include "core/parallel_runner.hpp"
#include "core/preinjection.hpp"
#include "core/static_analysis.hpp"
#include "db/archive.hpp"
#include "db/database.hpp"
#include "testcard/testcard.hpp"

namespace goofi::tool {

class Shell {
 public:
  /// `db` and `store` must outlive the shell.
  Shell(db::Database* db, core::CampaignStore* store);

  /// Registers a target system under `name`. `card` (for `list chains` and
  /// `target describe`) may be null for targets without scan-chain access
  /// and must otherwise outlive the shell. `factory` (required) builds the
  /// target stacks every run command and `rerun-detail` execute on (see
  /// core::MakeSimThorFactory). `analyzer_config` is the CPU configuration
  /// `run-dedup` rebuilds fault-free access timelines with; it must match the
  /// configuration the factory's targets simulate.
  void AddTarget(const std::string& name, const testcard::TestCard* card,
                 core::ParallelCampaignRunner::TargetFactory factory,
                 cpu::CpuConfig analyzer_config = {});

  /// The progress window of Fig. 7: every run command reports each committed
  /// experiment to `monitor`, in experiment order, and ends early when it
  /// returns false. Null (the default) reports nowhere.
  void SetProgressMonitor(core::ProgressMonitor* monitor) {
    monitor_ = monitor;
  }

  /// Executes one command line; returns its printable output.
  util::Result<std::string> Execute(const std::string& line);

  /// Executes a whole script (one command per line; '#' comments and blank
  /// lines skipped). Stops at the first failing command and returns its
  /// error; `transcript` accumulates "goofi> cmd" + output for all commands
  /// run so far.
  util::Status ExecuteScript(const std::string& script, std::string* transcript);

 private:
  struct Target {
    const testcard::TestCard* card = nullptr;
    core::ParallelCampaignRunner::TargetFactory factory;
    cpu::CpuConfig config;  ///< analyzer configuration for run-dedup
  };

  util::Result<std::string> CmdHelp() const;
  util::Result<std::string> CmdList(const std::vector<std::string>& args) const;
  util::Result<std::string> CmdTarget(const std::vector<std::string>& args);
  util::Result<std::string> CmdCampaign(const std::vector<std::string>& args);
  /// The run commands, one preset each: `run` (the Fig. 2 campaign loop),
  /// `run-warm`, `run-pruned`, `run-dedup` and `run-static`. Each runs the
  /// campaign through a ParallelCampaignRunner on the target's factory-built
  /// stacks with the preset's reducers; every one leaves the database
  /// byte-identical to a cold serial run.
  struct RunPreset;
  static const RunPreset kRunPresets[];
  util::Result<std::string> CmdRunPreset(const RunPreset& preset,
                                         const std::vector<std::string>& args);
  /// `stats`: counters of the most recent run command alone, distinguishing
  /// experiments never injected (liveness-dead) from experiments injected but
  /// converged (pruned).
  util::Result<std::string> CmdStats() const;
  /// `analyze <campaign|workload>`: for a campaign, the §3.4 classification
  /// report; for a workload name, the static-analysis report (per-block
  /// liveness, unreachable-code and write-never-read lint, prune-eligibility
  /// counts). Campaigns win name collisions.
  util::Result<std::string> CmdAnalyze(const std::vector<std::string>& args) const;
  /// `report <campaign> <path>`: writes the analyze output to a file — the
  /// paper's "where to store the results" menu (§3.4).
  util::Result<std::string> CmdReport(const std::vector<std::string>& args) const;
  util::Result<std::string> CmdRerunDetail(const std::vector<std::string>& args);
  util::Result<std::string> CmdPropagation(
      const std::vector<std::string>& args) const;
  util::Result<std::string> CmdSql(const std::string& rest);
  /// `explain <select>`: prints the chosen access path per table (index
  /// probes vs scans) without executing the query.
  util::Result<std::string> CmdExplain(const std::string& rest);
  util::Result<std::string> CmdSave(const std::vector<std::string>& args) const;
  util::Result<std::string> CmdLoad(const std::vector<std::string>& args);
  /// `archive open|checkpoint|status|close`: durable write-ahead-logged
  /// persistence. While an archive is open every committed experiment batch
  /// appends a group-committed WAL record, so a killed run resumes from the
  /// last commit instead of the last explicit `save`.
  util::Result<std::string> CmdArchive(const std::vector<std::string>& args);

  /// Applies one key=value assignment to a campaign.
  util::Status ApplyCampaignField(core::CampaignData* campaign,
                                  const std::string& key,
                                  const std::string& value) const;

  util::Result<Target> FindTargetFor(const std::string& campaign_name) const;

  /// Snapshot of the most recent run command, reported by `stats`.
  struct LastRun {
    bool valid = false;
    std::string campaign;
    std::string mode;  ///< the command that produced it
    core::FaultInjectionAlgorithms::Stats stats;
    int warm_starts = 0;
    core::ConvergenceStats prune;
    core::EquivalenceStats dedup;
    /// COW memory residency/counters over the run's targets (every worker,
    /// golden images deduped).
    cpu::MemoryUsageAggregator::Totals memory;
  };

  db::Database* db_;
  core::CampaignStore* store_;
  std::map<std::string, Target> targets_;
  /// Open campaign archive, if any (`archive open`). Owns the WAL attachment;
  /// destroyed (committing pending records) when the shell goes away or the
  /// archive is closed / replaced by `load`.
  std::unique_ptr<db::Archive> archive_;
  LastRun last_run_;
  core::ProgressMonitor* monitor_ = nullptr;
  /// Fault-free access timelines, memoized across run commands for the same
  /// (workload, configuration) within a shell session.
  core::LivenessCache liveness_cache_;
  /// Static workload analyses, memoized per workload name (`analyze` and
  /// `run-static`). Mutable: `analyze` is logically const but may populate
  /// the cache.
  mutable core::StaticAnalysisCache static_cache_;
};

}  // namespace goofi::tool
