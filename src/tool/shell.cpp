#include "tool/shell.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/analysis.hpp"
#include "core/propagation.hpp"
#include "core/thor_target.hpp"
#include "db/sql_executor.hpp"
#include "db/wal.hpp"
#include "env/workloads.hpp"
#include "util/strings.hpp"

namespace goofi::tool {

namespace {

const char* const kHelpText =
    "GOOFI shell commands:\n"
    "  help                                   this text\n"
    "  list targets|campaigns|workloads       enumerate known objects\n"
    "  list experiments <campaign>            logged experiment rows\n"
    "  list chains <target>                   scan-chain layout of a target\n"
    "  target describe <target>               store TargetSystemData (Fig. 5)\n"
    "  campaign set <name> key=value...       create/update a campaign (Fig. 6)\n"
    "    keys: target workload technique model experiments faults\n"
    "          window=min:max locations=a,b timeout iterations seed\n"
    "          logmode=normal|detail observe=a,b burst=len:spacing\n"
    "  campaign show <name>                   print stored campaign data\n"
    "  campaign merge <new> <src>...          merge campaigns (3.2)\n"
    "  run <campaign> [workers]               fault-injection phase (Fig. 2)\n"
    "  run-warm <campaign> [workers] [interval]  checkpoint fast-forward run\n"
    "  run-pruned <campaign> [workers] [interval]  run-warm + convergence pruning\n"
    "  run-dedup <campaign> [workers]         run-pruned + equivalence classing\n"
    "  run-static <campaign> [workers]        run-pruned + static no-effect classes\n"
    "  stats                                  counters of the last run only\n"
    "  analyze <campaign>                     classification report (3.4)\n"
    "  analyze <workload>                     static CFG/liveness/prune report\n"
    "  report <campaign> <path>               write the report to a file\n"
    "  rerun-detail <experiment>              detail-mode re-run (2.3)\n"
    "  propagation <experiment>               error-propagation analysis (3.3)\n"
    "  sql <statement>                        raw SQL against the database\n"
    "  explain <select>                       show the query plan for a SELECT\n"
    "  save <path> | load <path>              database persistence\n"
    "  archive open <path>                    WAL-backed durable persistence\n"
    "  archive checkpoint                     fold the WAL into a snapshot\n"
    "  archive status | close                 recovery counters / detach\n"
    "  echo <text>                            print text (for scripts)\n";

}  // namespace

Shell::Shell(db::Database* db, core::CampaignStore* store)
    : db_(db), store_(store) {}

void Shell::AddTarget(const std::string& name, const testcard::TestCard* card,
                      core::ParallelCampaignRunner::TargetFactory factory,
                      cpu::CpuConfig analyzer_config) {
  targets_[name] = Target{card, std::move(factory), analyzer_config};
}

util::Result<std::string> Shell::CmdHelp() const { return std::string(kHelpText); }

util::Result<std::string> Shell::CmdList(
    const std::vector<std::string>& args) const {
  if (args.empty()) return util::InvalidArgument("list what? (see help)");
  std::ostringstream out;
  if (args[0] == "targets") {
    for (const auto& [name, target] : targets_) {
      out << name << (target.card != nullptr ? " (scan-capable)" : "") << "\n";
    }
    return out.str();
  }
  if (args[0] == "campaigns") {
    auto names = store_->CampaignNames();
    if (!names.ok()) return names.status();
    for (const std::string& name : names.value()) out << name << "\n";
    return out.str();
  }
  if (args[0] == "workloads") {
    for (const std::string& name : env::WorkloadNames()) {
      const auto spec = env::GetWorkload(name);
      out << util::Format("%-22s %s\n", name.c_str(),
                          spec.ok() ? spec.value().description.c_str() : "");
    }
    return out.str();
  }
  if (args[0] == "experiments") {
    if (args.size() < 2) return util::InvalidArgument("list experiments <campaign>");
    auto rows = store_->TopLevelRowsOf(args[1]);
    if (!rows.ok()) return rows.status();
    for (const auto& row : rows.value()) {
      out << util::Format("%-24s %s%s%s\n", row.experiment_name.c_str(),
                          row.state.detected ? "detected:" : "",
                          row.state.detected ? row.state.edm.c_str() : "",
                          row.state.halted ? "completed" : "");
    }
    // Detail rows are counted, not fetched or parsed.
    auto detail = store_->statement_cache().Execute(
        *db_,
        "SELECT COUNT(*) FROM LoggedSystemState "
        "WHERE campaignName = ? AND parentExperiment IS NOT NULL",
        {db::Value::Text(args[1])});
    if (!detail.ok()) return detail.status();
    const int64_t count = detail.value().rows.at(0).at(0).as_int();
    if (count > 0) {
      out << util::Format("(+ %lld detail rows)\n", static_cast<long long>(count));
    }
    return out.str();
  }
  if (args[0] == "chains") {
    if (args.size() < 2) return util::InvalidArgument("list chains <target>");
    const auto it = targets_.find(args[1]);
    if (it == targets_.end()) return util::NotFound("no target " + args[1]);
    if (it->second.card == nullptr) {
      return util::FailedPrecondition("target " + args[1] + " has no scan logic");
    }
    for (const auto& chain : it->second.card->chains().chains()) {
      out << util::Format("%-18s %5u bits, %3zu cells\n", chain.name().c_str(),
                          chain.length_bits(), chain.cells().size());
    }
    return out.str();
  }
  return util::InvalidArgument("unknown list kind: " + args[0]);
}

util::Result<std::string> Shell::CmdTarget(const std::vector<std::string>& args) {
  if (args.size() != 2 || args[0] != "describe") {
    return util::InvalidArgument("usage: target describe <target>");
  }
  const auto it = targets_.find(args[1]);
  if (it == targets_.end()) return util::NotFound("no target " + args[1]);
  if (it->second.card == nullptr) {
    core::TargetSystemData data;
    data.name = args[1];
    data.description = "target without scan logic";
    GOOFI_RETURN_IF_ERROR(store_->PutTargetSystem(data));
  } else {
    GOOFI_RETURN_IF_ERROR(store_->PutTargetSystem(
        core::ThorRdTarget::DescribeTarget(*it->second.card, args[1])));
  }
  return "stored TargetSystemData for " + args[1] + "\n";
}

util::Status Shell::ApplyCampaignField(core::CampaignData* campaign,
                                       const std::string& key,
                                       const std::string& value) const {
  auto as_int = [&]() -> util::Result<int64_t> {
    const auto v = util::ParseInt(value);
    if (!v) return util::ParseError(key + " expects a number, got " + value);
    return *v;
  };
  if (key == "target") {
    campaign->target_name = value;
  } else if (key == "workload") {
    campaign->workload = value;
  } else if (key == "technique") {
    auto technique = core::TechniqueFromName(value);
    if (!technique.ok()) return technique.status();
    campaign->technique = technique.value();
  } else if (key == "model") {
    auto model = core::FaultModelFromName(value);
    if (!model.ok()) return model.status();
    campaign->fault_model = model.value();
  } else if (key == "experiments") {
    auto v = as_int();
    if (!v.ok()) return v.status();
    campaign->num_experiments = static_cast<int>(v.value());
  } else if (key == "faults") {
    auto v = as_int();
    if (!v.ok()) return v.status();
    campaign->faults_per_experiment = static_cast<int>(v.value());
  } else if (key == "window") {
    const auto parts = util::Split(value, ':');
    const auto lo = util::ParseInt(parts[0]);
    const auto hi = parts.size() > 1 ? util::ParseInt(parts[1]) : lo;
    if (parts.size() != 2 || !lo || !hi) {
      return util::ParseError("window expects min:max");
    }
    campaign->inject_min_instr = static_cast<uint64_t>(*lo);
    campaign->inject_max_instr = static_cast<uint64_t>(*hi);
  } else if (key == "locations") {
    campaign->locations.clear();
    for (const std::string& token : util::Split(value, ',')) {
      auto selector = core::FaultLocationSelector::Parse(token);
      if (!selector.ok()) return selector.status();
      campaign->locations.push_back(std::move(selector).value());
    }
  } else if (key == "timeout") {
    auto v = as_int();
    if (!v.ok()) return v.status();
    campaign->timeout_cycles = static_cast<uint64_t>(v.value());
  } else if (key == "iterations") {
    auto v = as_int();
    if (!v.ok()) return v.status();
    campaign->max_iterations = static_cast<int>(v.value());
  } else if (key == "seed") {
    auto v = as_int();
    if (!v.ok()) return v.status();
    campaign->seed = static_cast<uint64_t>(v.value());
  } else if (key == "logmode") {
    if (value == "normal") {
      campaign->log_mode = core::LogMode::kNormal;
    } else if (value == "detail") {
      campaign->log_mode = core::LogMode::kDetail;
    } else {
      return util::ParseError("logmode expects normal|detail");
    }
  } else if (key == "observe") {
    campaign->observe_chains = util::Split(value, ',');
  } else if (key == "burst") {
    const auto parts = util::Split(value, ':');
    const auto len = util::ParseInt(parts[0]);
    const auto spacing = parts.size() > 1 ? util::ParseInt(parts[1])
                                          : std::optional<int64_t>();
    if (parts.size() != 2 || !len || !spacing) {
      return util::ParseError("burst expects len:spacing");
    }
    campaign->burst_length = static_cast<uint32_t>(*len);
    campaign->burst_spacing = static_cast<uint64_t>(*spacing);
  } else {
    return util::InvalidArgument("unknown campaign key: " + key);
  }
  return util::Status::Ok();
}

util::Result<std::string> Shell::CmdCampaign(
    const std::vector<std::string>& args) {
  if (args.empty()) return util::InvalidArgument("campaign set|show|merge ...");
  if (args[0] == "set") {
    if (args.size() < 2) return util::InvalidArgument("campaign set <name> k=v...");
    const std::string& name = args[1];
    core::CampaignData campaign;
    auto existing = store_->GetCampaign(name);
    if (existing.ok()) {
      campaign = std::move(existing).value();
    } else {
      campaign.name = name;
      if (targets_.size() == 1) campaign.target_name = targets_.begin()->first;
    }
    for (size_t i = 2; i < args.size(); ++i) {
      const size_t eq = args[i].find('=');
      if (eq == std::string::npos) {
        return util::InvalidArgument("expected key=value, got " + args[i]);
      }
      GOOFI_RETURN_IF_ERROR(ApplyCampaignField(&campaign, args[i].substr(0, eq),
                                               args[i].substr(eq + 1)));
    }
    GOOFI_RETURN_IF_ERROR(store_->PutCampaign(campaign));
    return "stored campaign " + name + "\n";
  }
  if (args[0] == "show") {
    if (args.size() != 2) return util::InvalidArgument("campaign show <name>");
    auto campaign = store_->GetCampaign(args[1]);
    if (!campaign.ok()) return campaign.status();
    const core::CampaignData& c = campaign.value();
    std::ostringstream out;
    out << "campaign " << c.name << "\n";
    out << "  target:      " << c.target_name << "\n";
    out << "  technique:   " << core::TechniqueName(c.technique) << "\n";
    out << "  fault model: " << core::FaultModelName(c.fault_model) << " x"
        << c.faults_per_experiment << "\n";
    out << "  workload:    " << c.workload << "\n";
    out << "  experiments: " << c.num_experiments << "\n";
    out << "  window:      [" << c.inject_min_instr << ", " << c.inject_max_instr
        << "] instructions\n";
    out << "  locations:   ";
    for (size_t i = 0; i < c.locations.size(); ++i) {
      if (i > 0) out << ", ";
      out << c.locations[i].ToString();
    }
    out << "\n";
    out << "  timeout:     " << c.timeout_cycles << " cycles, max "
        << c.max_iterations << " iterations\n";
    out << "  log mode:    " << core::LogModeName(c.log_mode) << "\n";
    out << "  seed:        " << c.seed << "\n";
    return out.str();
  }
  if (args[0] == "merge") {
    if (args.size() < 3) {
      return util::InvalidArgument("campaign merge <new> <src>...");
    }
    const std::vector<std::string> sources(args.begin() + 2, args.end());
    GOOFI_RETURN_IF_ERROR(store_->MergeCampaigns(sources, args[1]));
    return "merged " + std::to_string(sources.size()) + " campaigns into " +
           args[1] + "\n";
  }
  return util::InvalidArgument("unknown campaign subcommand: " + args[0]);
}

util::Result<Shell::Target> Shell::FindTargetFor(
    const std::string& campaign_name) const {
  auto campaign = store_->GetCampaign(campaign_name);
  if (!campaign.ok()) return campaign.status();
  const auto it = targets_.find(campaign.value().target_name);
  if (it == targets_.end()) {
    return util::NotFound("campaign references unregistered target " +
                          campaign.value().target_name);
  }
  return it->second;
}

/// One run command: `<command> <campaign> [workers]` (default 1: inline),
/// plus `[interval]` where `interval` is set. The summary line reports the
/// counters of the reducers the preset engages.
struct Shell::RunPreset {
  enum Classes { kNone, kTimeline, kStatic };
  const char* command;
  bool warm;        ///< force warm start from golden-run checkpoints
  bool interval;    ///< takes [interval] and reports warm starts
  bool pruned;      ///< golden-trace convergence pruning
  Classes classes;  ///< equivalence classing and its class source
};

const Shell::RunPreset Shell::kRunPresets[] = {
    // The Fig. 2 campaign loop; warm start only where it is sure to pay off.
    {"run", false, false, false, RunPreset::kNone},
    // One golden run builds the snapshot cache; each experiment warm-starts
    // from the nearest checkpoint before its injection time.
    {"run-warm", true, true, false, RunPreset::kNone},
    // run-warm plus convergence pruning: experiments whose state rejoins the
    // golden trajectory at a boundary stop there, the rest synthesized.
    {"run-pruned", true, true, true, RunPreset::kNone},
    // run-pruned plus equivalence classing over a fault-free access
    // timeline: flips in one access window execute once.
    {"run-dedup", true, false, true, RunPreset::kTimeline},
    // run-pruned plus the static no-effect classes alone: flips into
    // statically never-accessed registers or never-read words; no pre-run.
    {"run-static", true, false, true, RunPreset::kStatic},
};

util::Result<std::string> Shell::CmdRunPreset(
    const RunPreset& preset, const std::vector<std::string>& args) {
  if (args.empty() || args.size() > (preset.interval ? 3u : 2u)) {
    return util::InvalidArgument(std::string(preset.command) +
                                 " <campaign> [workers]" +
                                 (preset.interval ? " [interval]" : ""));
  }
  int workers = 1;
  if (args.size() >= 2) {
    const auto parsed = util::ParseInt(args[1]);
    if (!parsed || *parsed < 1) {
      return util::InvalidArgument("workers must be a positive number");
    }
    workers = static_cast<int>(*parsed);
  }
  uint64_t interval = core::FaultInjectionAlgorithms::kDefaultCheckpointInterval;
  if (args.size() == 3) {
    const auto parsed = util::ParseInt(args[2]);
    if (!parsed || *parsed < 1) {
      return util::InvalidArgument("interval must be a positive number");
    }
    interval = static_cast<uint64_t>(*parsed);
  }
  auto target = FindTargetFor(args[0]);
  if (!target.ok()) return target.status();
  core::ParallelCampaignRunner runner(store_, target.value().factory, workers);
  runner.SetProgressMonitor(monitor_);
  runner.SetCheckpointInterval(interval);
  runner.SetForceWarmStart(preset.warm);
  runner.SetConvergencePruning(preset.pruned);
  if (preset.classes != RunPreset::kNone) {
    auto campaign = store_->GetCampaign(args[0]);
    if (!campaign.ok()) return campaign.status();
    runner.SetEquivalenceClassing(true);
    if (preset.classes == RunPreset::kTimeline) {
      // A fault-free run of the campaign's workload on the target's
      // configuration, memoized across campaigns, bound by the campaign's
      // own termination conditions so it covers the whole golden run.
      auto timeline = liveness_cache_.Get(
          campaign.value().workload, target.value().config,
          std::max<uint64_t>(200000, campaign.value().timeout_cycles),
          campaign.value().max_iterations);
      if (!timeline.ok()) return timeline.status();
      runner.SetEquivalenceTimeline(timeline.value());
    } else {
      // Built from the program text alone.
      auto analysis = static_cache_.Get(campaign.value().workload);
      if (!analysis.ok()) return analysis.status();
      runner.SetStaticAnalysis(analysis.value());
    }
  }
  GOOFI_RETURN_IF_ERROR(runner.Run(args[0]));
  const core::FaultInjectionAlgorithms::Stats& stats = runner.stats();
  last_run_ = LastRun{true, args[0], preset.command, stats,
                      runner.warm_starts(), runner.prune_stats(),
                      runner.dedup_stats(), runner.memory_usage()};

  std::vector<std::string> counters;
  const core::EquivalenceStats& dedup = runner.dedup_stats();
  if (preset.classes != RunPreset::kNone) {
    counters.push_back(util::Format(
        "%lld classes", static_cast<long long>(dedup.classes_formed)));
    counters.push_back(util::Format(
        "%lld synthesized", static_cast<long long>(dedup.experiments_synthesized)));
  }
  if (preset.classes == RunPreset::kStatic) {
    counters.push_back(util::Format(
        "%lld static no-effect", static_cast<long long>(dedup.static_synthesized)));
  }
  if (preset.interval) {
    counters.push_back(util::Format("%d warm starts", runner.warm_starts()));
  }
  if (preset.pruned) {
    counters.push_back(util::Format(
        "%lld pruned", static_cast<long long>(runner.prune_stats().pruned_total())));
  }
  if (preset.interval) {
    counters.push_back(util::Format("interval %llu",
                                    static_cast<unsigned long long>(interval)));
  }
  const std::string detail =
      counters.empty() ? "" : " (" + util::Join(counters, ", ") + ")";
  return util::Format("campaign %s: %d experiments run on %d workers%s, %d "
                      "resumed\n",
                      args[0].c_str(), stats.experiments_run,
                      runner.workers_used(), detail.c_str(),
                      stats.experiments_resumed);
}

util::Result<std::string> Shell::CmdStats() const {
  if (!last_run_.valid && archive_ == nullptr) {
    return util::FailedPrecondition("no run command has executed yet");
  }
  std::ostringstream out;
  if (archive_ != nullptr) {
    const db::ArchiveStats s = archive_->stats();
    out << "archive: " << archive_->path() << "\n";
    out << util::Format("  epoch:                    %llu\n",
                        static_cast<unsigned long long>(s.epoch));
    out << util::Format("  wal records replayed:     %llu\n",
                        static_cast<unsigned long long>(s.wal_records_replayed));
    out << util::Format("  wal records appended:     %llu\n",
                        static_cast<unsigned long long>(s.wal_records_appended));
    out << util::Format("  wal group commits:        %llu\n",
                        static_cast<unsigned long long>(s.wal_commits));
    out << util::Format("  wal bytes:                %llu\n",
                        static_cast<unsigned long long>(s.wal_bytes));
    out << util::Format("  checkpoints folded:       %llu\n",
                        static_cast<unsigned long long>(s.checkpoints_folded));
    if (s.recovered_torn_tail) {
      out << util::Format("  torn tail truncated:      %llu bytes\n",
                          static_cast<unsigned long long>(s.wal_bytes_truncated));
    }
    if (s.stale_wal_discarded) out << "  stale wal discarded\n";
  }
  if (!last_run_.valid) return out.str();
  out << "last run: " << last_run_.campaign << " (" << last_run_.mode << ")\n";
  out << util::Format("  experiments run:          %d\n",
                      last_run_.stats.experiments_run);
  out << util::Format("  experiments resumed:      %d\n",
                      last_run_.stats.experiments_resumed);
  // The two distinct "experiment finished early" populations: faults the
  // liveness analyzer proved dead (never injected at all) versus faults that
  // were injected but whose state rejoined the golden trajectory.
  out << util::Format("  never injected (dead):    %d\n",
                      last_run_.stats.injections_skipped_dead);
  out << util::Format(
      "  injected but converged:   %lld (golden %lld, memo %lld)\n",
      static_cast<long long>(last_run_.prune.pruned_total()),
      static_cast<long long>(last_run_.prune.pruned_golden),
      static_cast<long long>(last_run_.prune.pruned_memo));
  out << util::Format("  warm starts:              %d\n",
                      last_run_.warm_starts);
  out << util::Format("  boundary checks:          %lld\n",
                      static_cast<long long>(last_run_.prune.boundary_checks));
  out << util::Format(
      "  collision rejects:        %lld\n",
      static_cast<long long>(last_run_.prune.collision_rejects));
  out << util::Format("  memo inserts:             %lld\n",
                      static_cast<long long>(last_run_.prune.memo_inserts));
  out << util::Format("  equivalence classes:      %lld\n",
                      static_cast<long long>(last_run_.dedup.classes_formed));
  out << util::Format(
      "  experiments synthesized:  %lld (%lld static no-effect)\n",
      static_cast<long long>(last_run_.dedup.experiments_synthesized),
      static_cast<long long>(last_run_.dedup.static_synthesized));
  out << util::Format(
      "  spot checks:              %lld run, %lld passed\n",
      static_cast<long long>(last_run_.dedup.spot_checks_run),
      static_cast<long long>(last_run_.dedup.spot_checks_passed));
  // Copy-on-write memory: how the run's targets shared the workload image
  // (golden pages by pointer, one physical image for all workers) and how
  // much was privately materialized by the write barrier.
  const cpu::MemoryUsageAggregator::Totals& memory = last_run_.memory;
  if (memory.targets > 0) {
    out << util::Format("memory (COW paging, %d target%s):\n", memory.targets,
                        memory.targets == 1 ? "" : "s");
    out << util::Format(
        "  shared pages:             %llu golden, %llu zero\n",
        static_cast<unsigned long long>(memory.golden_pages),
        static_cast<unsigned long long>(memory.zero_pages));
    out << util::Format("  private pages:            %llu (+%llu pooled)\n",
                        static_cast<unsigned long long>(memory.private_pages),
                        static_cast<unsigned long long>(memory.pool_pages));
    out << util::Format(
        "  cow page copies:          %llu (%llu golden adoptions)\n",
        static_cast<unsigned long long>(memory.cow_faults),
        static_cast<unsigned long long>(memory.golden_adoptions));
    out << util::Format(
        "  resident bytes/target:    %llu\n",
        static_cast<unsigned long long>(
            memory.resident_bytes /
            static_cast<uint64_t>(memory.targets)));
    out << util::Format(
        "  golden images:            %d shared (%llu bytes total)\n",
        memory.golden_images,
        static_cast<unsigned long long>(memory.golden_image_bytes));
  }
  return out.str();
}

util::Result<std::string> Shell::CmdAnalyze(
    const std::vector<std::string>& args) const {
  if (args.size() != 1) {
    return util::InvalidArgument("analyze <campaign|workload>");
  }
  auto report = core::AnalyzeCampaign(*store_, args[0]);
  if (!report.ok()) {
    // Not a campaign — a workload name gets the static-analysis report
    // (per-block liveness, lint, prune-eligibility counts).
    if (env::GetWorkload(args[0]).ok()) {
      auto analysis = static_cache_.Get(args[0]);
      if (!analysis.ok()) return analysis.status();
      return analysis.value()->Report();
    }
    return report.status();
  }
  std::string out = report.value().ToString();
  auto by_group = core::AnalyzeByLocationGroup(*store_, args[0]);
  if (by_group.ok() && by_group.value().size() > 1) {
    out += "by fault-location group:\n";
    for (const auto& [group, sub] : by_group.value()) {
      out += util::Format(
          "  %-14s detected %3d  escaped %3d  latent %3d  overwritten %3d\n",
          group.c_str(), sub.Count(core::Outcome::kDetected),
          sub.Count(core::Outcome::kEscaped), sub.Count(core::Outcome::kLatent),
          sub.Count(core::Outcome::kOverwritten));
    }
  }
  return out;
}

util::Result<std::string> Shell::CmdReport(
    const std::vector<std::string>& args) const {
  if (args.size() != 2) return util::InvalidArgument("report <campaign> <path>");
  auto text = CmdAnalyze({args[0]});
  if (!text.ok()) return text.status();
  std::FILE* file = std::fopen(args[1].c_str(), "w");
  if (file == nullptr) return util::IoError("cannot open " + args[1]);
  std::fputs(text.value().c_str(), file);
  std::fclose(file);
  return "wrote analysis of " + args[0] + " to " + args[1] + "\n";
}

util::Result<std::string> Shell::CmdRerunDetail(
    const std::vector<std::string>& args) {
  if (args.size() != 1) return util::InvalidArgument("rerun-detail <experiment>");
  auto row = store_->GetExperiment(args[0]);
  if (!row.ok()) return row.status();
  auto target = FindTargetFor(row.value().campaign_name);
  if (!target.ok()) return target.status();
  std::unique_ptr<core::FaultInjectionAlgorithms> algorithms =
      target.value().factory();
  if (algorithms == nullptr) {
    return util::Internal("target factory returned null");
  }
  GOOFI_RETURN_IF_ERROR(algorithms->RerunDetailed(args[0]));
  return "detail re-run logged as " + args[0] + "/detail\n";
}

util::Result<std::string> Shell::CmdPropagation(
    const std::vector<std::string>& args) const {
  if (args.size() != 1) return util::InvalidArgument("propagation <experiment>");
  auto report = core::AnalyzeErrorPropagation(*store_, args[0]);
  if (!report.ok()) return report.status();
  return report.value().ToString();
}

util::Result<std::string> Shell::CmdSql(const std::string& rest) {
  // Routed through the store's prepared-statement cache: scripted analysis
  // loops repeat the same statements, so they parse and plan only once.
  auto result = store_->statement_cache().Execute(*db_, rest);
  if (!result.ok()) return result.status();
  if (result.value().columns.empty()) {
    return util::Format("ok, %zu rows affected\n", result.value().affected);
  }
  return result.value().ToString();
}

util::Result<std::string> Shell::CmdExplain(const std::string& rest) {
  return db::ExplainSql(*db_, rest);
}

util::Result<std::string> Shell::CmdSave(
    const std::vector<std::string>& args) const {
  if (args.size() != 1) return util::InvalidArgument("save <path>");
  GOOFI_RETURN_IF_ERROR(db_->Save(args[0]));
  return "saved database to " + args[0] + "\n";
}

util::Result<std::string> Shell::CmdLoad(const std::vector<std::string>& args) {
  if (args.size() != 1) return util::InvalidArgument("load <path>");
  // Load and vet the file in a database of its own, so an unreadable file or
  // one whose GOOFI tables differ from Fig. 4 leaves the session as it was.
  // An archive's commits since its last fold live in <path>.wal: replay them
  // as Archive::Open recovers them (a torn tail is dropped, a WAL of another
  // epoch ignored), writing neither file.
  db::Database loaded;
  uint64_t epoch = 0;
  GOOFI_RETURN_IF_ERROR(loaded.Load(args[0], &epoch));
  db::Wal wal;
  auto replayed = wal.Replay(args[0] + ".wal", epoch, &loaded);
  if (!replayed.ok()) return replayed.status();
  GOOFI_RETURN_IF_ERROR(core::CampaignStore::CheckSchema(loaded));
  std::string note;
  if (archive_ != nullptr) {
    // Load replaces the database wholesale, which would leave the archive
    // observing a database it never snapshotted. Commit and close it first.
    store_->AttachArchive(nullptr);
    GOOFI_RETURN_IF_ERROR(archive_->Close());
    archive_.reset();
    note = " (open archive closed)";
  }
  db_->ReplaceWith(std::move(loaded));
  // Re-creates any table or secondary index the file lacks.
  GOOFI_RETURN_IF_ERROR(store_->EnsureSchema());
  return "loaded database from " + args[0] + note + "\n";
}

util::Result<std::string> Shell::CmdArchive(const std::vector<std::string>& args) {
  if (args.empty()) {
    return util::InvalidArgument("archive open|checkpoint|status|close");
  }
  if (args[0] == "open") {
    if (args.size() != 2) return util::InvalidArgument("archive open <path>");
    if (archive_ != nullptr) {
      store_->AttachArchive(nullptr);
      GOOFI_RETURN_IF_ERROR(archive_->Close());
      archive_.reset();
    }
    // An archive whose GOOFI tables differ from Fig. 4 is refused before it
    // replaces the database or gains a WAL.
    auto opened = db::Archive::Open(db_, args[1], {},
                                    &core::CampaignStore::CheckSchema);
    if (!opened.ok()) return opened.status();
    archive_ = std::move(opened).value();
    // Re-create any table or secondary index the archive lacks; with the
    // archive already observing, the definitions land in the WAL too.
    const auto ensured = store_->EnsureSchema();
    if (!ensured.ok()) {
      store_->AttachArchive(nullptr);
      (void)archive_->Close();
      archive_.reset();
      return ensured;
    }
    store_->AttachArchive(archive_.get());
    const db::ArchiveStats s = archive_->stats();
    std::string out = util::Format(
        "opened archive %s (epoch %llu, %llu WAL records replayed)\n",
        args[1].c_str(), static_cast<unsigned long long>(s.epoch),
        static_cast<unsigned long long>(s.wal_records_replayed));
    if (s.recovered_torn_tail) {
      out += util::Format("truncated torn WAL tail (%llu bytes)\n",
                          static_cast<unsigned long long>(s.wal_bytes_truncated));
    }
    if (s.stale_wal_discarded) out += "discarded stale WAL\n";
    return out;
  }
  if (archive_ == nullptr) {
    return util::FailedPrecondition("no archive open (archive open <path>)");
  }
  if (args[0] == "checkpoint") {
    GOOFI_RETURN_IF_ERROR(archive_->Checkpoint());
    const db::ArchiveStats s = archive_->stats();
    return util::Format(
        "checkpointed archive (epoch %llu, snapshot %llu bytes)\n",
        static_cast<unsigned long long>(s.epoch),
        static_cast<unsigned long long>(s.snapshot_bytes));
  }
  if (args[0] == "status") {
    // `stats` prints the archive block whenever one is open; reuse it.
    return CmdStats();
  }
  if (args[0] == "close") {
    store_->AttachArchive(nullptr);
    GOOFI_RETURN_IF_ERROR(archive_->Close());
    const std::string path = archive_->path();
    archive_.reset();
    return "closed archive " + path + "\n";
  }
  return util::InvalidArgument("unknown archive subcommand: " + args[0]);
}

util::Result<std::string> Shell::Execute(const std::string& line) {
  const std::string_view trimmed = util::Trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return std::string();
  const std::vector<std::string> words = util::SplitWhitespace(trimmed);
  const std::string& command = words[0];
  const std::vector<std::string> args(words.begin() + 1, words.end());

  if (command == "help") return CmdHelp();
  if (command == "list") return CmdList(args);
  if (command == "target") return CmdTarget(args);
  if (command == "campaign") return CmdCampaign(args);
  for (const RunPreset& preset : kRunPresets) {
    if (command == preset.command) return CmdRunPreset(preset, args);
  }
  if (command == "stats") return CmdStats();
  if (command == "analyze") return CmdAnalyze(args);
  if (command == "report") return CmdReport(args);
  if (command == "rerun-detail") return CmdRerunDetail(args);
  if (command == "propagation") return CmdPropagation(args);
  if (command == "sql") {
    const size_t pos = line.find("sql");
    return CmdSql(line.substr(pos + 3));
  }
  if (command == "explain") {
    const size_t pos = line.find("explain");
    return CmdExplain(line.substr(pos + 7));
  }
  if (command == "save") return CmdSave(args);
  if (command == "load") return CmdLoad(args);
  if (command == "archive") return CmdArchive(args);
  if (command == "echo") {
    return util::Join(args, " ") + "\n";
  }
  return util::InvalidArgument("unknown command: " + command + " (try help)");
}

util::Status Shell::ExecuteScript(const std::string& script,
                                  std::string* transcript) {
  for (const std::string& line : util::Split(script, '\n')) {
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (transcript != nullptr) {
      *transcript += "goofi> " + std::string(trimmed) + "\n";
    }
    auto result = Execute(line);
    if (!result.ok()) {
      if (transcript != nullptr) {
        *transcript += "error: " + result.status().ToString() + "\n";
      }
      return result.status();
    }
    if (transcript != nullptr) *transcript += result.value();
  }
  return util::Status::Ok();
}

}  // namespace goofi::tool
