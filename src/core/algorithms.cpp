#include "core/algorithms.hpp"

#include "util/strings.hpp"

namespace goofi::core {

// ---------------------------------------------------------------------------
// Per-technique experiment bodies: the block sequences of paper Fig. 2.
// ---------------------------------------------------------------------------

util::Status FaultInjectionAlgorithms::ScifiExperiment() {
  GOOFI_RETURN_IF_ERROR(InitTestCard());
  GOOFI_RETURN_IF_ERROR(LoadWorkload());
  GOOFI_RETURN_IF_ERROR(WriteMemory());
  GOOFI_RETURN_IF_ERROR(RunWorkload());
  if (!faults_.empty()) {
    GOOFI_RETURN_IF_ERROR(WaitForBreakpoint());
    GOOFI_RETURN_IF_ERROR(ReadScanChain());
    GOOFI_RETURN_IF_ERROR(InjectFault());
    GOOFI_RETURN_IF_ERROR(WriteScanChain());
  }
  GOOFI_RETURN_IF_ERROR(WaitForTermination());
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  return util::Status::Ok();
}

util::Status FaultInjectionAlgorithms::SwifiPreRuntimeExperiment() {
  GOOFI_RETURN_IF_ERROR(InitTestCard());
  GOOFI_RETURN_IF_ERROR(LoadWorkload());
  if (!faults_.empty()) {
    GOOFI_RETURN_IF_ERROR(MutateImage());
  }
  GOOFI_RETURN_IF_ERROR(WriteMemory());
  GOOFI_RETURN_IF_ERROR(RunWorkload());
  GOOFI_RETURN_IF_ERROR(WaitForTermination());
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  return util::Status::Ok();
}

util::Status FaultInjectionAlgorithms::SwifiRuntimeExperiment() {
  GOOFI_RETURN_IF_ERROR(InitTestCard());
  GOOFI_RETURN_IF_ERROR(LoadWorkload());
  GOOFI_RETURN_IF_ERROR(WriteMemory());
  GOOFI_RETURN_IF_ERROR(RunWorkload());
  if (!faults_.empty()) {
    GOOFI_RETURN_IF_ERROR(WaitForBreakpoint());
    GOOFI_RETURN_IF_ERROR(InjectMemoryFault());
  }
  GOOFI_RETURN_IF_ERROR(WaitForTermination());
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  return util::Status::Ok();
}

// Warm-start bodies: RestoreCheckpoint stands in for the cold prefix
// (InitTestCard/LoadWorkload/WriteMemory/RunWorkload plus the fault-free
// execution up to the checkpoint); every block from the breakpoint on is the
// cold sequence verbatim, so the logged state is bit-for-bit identical.

util::Status FaultInjectionAlgorithms::ScifiExperimentFrom(
    const Checkpoint& checkpoint) {
  GOOFI_RETURN_IF_ERROR(RestoreCheckpoint(checkpoint));
  GOOFI_RETURN_IF_ERROR(WaitForBreakpoint());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  GOOFI_RETURN_IF_ERROR(InjectFault());
  GOOFI_RETURN_IF_ERROR(WriteScanChain());
  GOOFI_RETURN_IF_ERROR(WaitForTermination());
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  return util::Status::Ok();
}

util::Status FaultInjectionAlgorithms::SwifiRuntimeExperimentFrom(
    const Checkpoint& checkpoint) {
  GOOFI_RETURN_IF_ERROR(RestoreCheckpoint(checkpoint));
  GOOFI_RETURN_IF_ERROR(WaitForBreakpoint());
  GOOFI_RETURN_IF_ERROR(InjectMemoryFault());
  GOOFI_RETURN_IF_ERROR(WaitForTermination());
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  return util::Status::Ok();
}

util::Status FaultInjectionAlgorithms::RunBody(ExperimentBody body) {
  // Warm-start applies only to injecting experiments of the stop-inject-
  // resume techniques; the reference run and pre-runtime SWIFI stay cold.
  if (checkpoint_cache_ != nullptr && !faults_.empty() &&
      SupportsCheckpoints() &&
      (campaign_.technique == Technique::kScifi ||
       campaign_.technique == Technique::kSwifiRuntime)) {
    const Checkpoint* checkpoint =
        checkpoint_cache_->FindBefore(faults_.front().inject_instr);
    if (checkpoint != nullptr) {
      ++warm_starts_;
      return campaign_.technique == Technique::kScifi
                 ? ScifiExperimentFrom(*checkpoint)
                 : SwifiRuntimeExperimentFrom(*checkpoint);
    }
  }
  return (this->*body)();
}

// ---------------------------------------------------------------------------
// Campaign driver.
// ---------------------------------------------------------------------------

util::Status FaultInjectionAlgorithms::GenerateFaults(
    const std::vector<FaultCandidate>& space, int index) {
  faults_.clear();
  if (space.empty()) {
    return util::FailedPrecondition("campaign has an empty fault space");
  }
  // Derive a per-experiment stream so experiments are independent of each
  // other and reproducible from (campaign seed, index).
  util::Rng rng(campaign_.seed * 0x9E3779B97F4A7C15ULL +
                static_cast<uint64_t>(index));

  const int wanted = std::max(1, campaign_.faults_per_experiment);
  // Retry sampling when the liveness filter rejects a draw; bounded so a
  // filter that rejects everything cannot hang the campaign.
  const int max_attempts = 200 * wanted;
  int attempts = 0;
  while (static_cast<int>(faults_.size()) < wanted && attempts < max_attempts) {
    ++attempts;
    const FaultCandidate& candidate =
        space[rng.NextBelow(space.size())];
    const uint64_t inject_instr = static_cast<uint64_t>(rng.NextInRange(
        static_cast<int64_t>(campaign_.inject_min_instr),
        static_cast<int64_t>(
            std::max(campaign_.inject_min_instr, campaign_.inject_max_instr))));
    if (liveness_filter_ && !liveness_filter_(candidate, inject_instr)) {
      ++stats_.injections_skipped_dead;
      continue;
    }
    // Distinct locations within one experiment.
    bool duplicate = false;
    for (const FaultInstance& have : faults_) {
      if (have.chain == candidate.chain && have.chain_bit == candidate.chain_bit &&
          have.address == candidate.address && have.bit == candidate.bit) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;

    FaultInstance fault;
    fault.kind = campaign_.fault_model;
    fault.chain = candidate.scan ? candidate.chain : "";
    fault.chain_bit = candidate.chain_bit;
    fault.cell_name = candidate.cell_name;
    fault.address = candidate.address;
    fault.bit = candidate.bit;
    fault.inject_instr = inject_instr;
    fault.stuck_value = rng.NextBool();
    faults_.push_back(std::move(fault));
  }
  if (static_cast<int>(faults_.size()) < wanted) {
    return util::FailedPrecondition(
        "liveness filter rejected the entire fault space");
  }
  // All faults of a multi-fault experiment are injected at one breakpoint
  // (the paper's multiple-bit-flip model): align times to the earliest.
  uint64_t t = faults_.front().inject_instr;
  for (const FaultInstance& fault : faults_) t = std::min(t, fault.inject_instr);
  for (FaultInstance& fault : faults_) fault.inject_instr = t;
  return util::Status::Ok();
}

util::Result<std::vector<CampaignStore::ExperimentRow>>
FaultInjectionAlgorithms::BuildRecords(const std::string& experiment_name,
                                       const std::string& parent) {
  auto state = CollectState();
  if (!state.ok()) return state.status();

  const std::string experiment_data =
      ExperimentData(campaign_.technique, faults_);

  std::vector<CampaignStore::ExperimentRow> rows;
  rows.reserve(1 + detail_log_.size());
  rows.push_back({experiment_name, parent, campaign_.name, experiment_data,
                  std::move(state).value()});
  // Detail rows, one per instruction, each pointing at the main experiment.
  for (size_t i = 0; i < detail_log_.size(); ++i) {
    rows.push_back({util::Format("%s/d%06zu", experiment_name.c_str(), i),
                    experiment_name, campaign_.name, "detail_step",
                    detail_log_[i]});
  }
  detail_log_.clear();
  return rows;
}

std::string FaultInjectionAlgorithms::ExperimentData(
    Technique technique, const std::vector<FaultInstance>& faults) {
  std::vector<std::string> fault_texts;
  fault_texts.reserve(faults.size());
  for (const FaultInstance& fault : faults) {
    fault_texts.push_back(fault.Serialize());
  }
  return "technique=" + std::string(TechniqueName(technique)) +
         ";faults=" + util::Join(fault_texts, "|");
}

util::Status FaultInjectionAlgorithms::PrepareCampaign(
    const CampaignData& campaign) {
  campaign_ = campaign;
  stats_ = Stats{};
  checkpoint_cache_.reset();
  warm_starts_ = 0;
  golden_trace_.reset();
  convergence_memo_.reset();
  prune_stats_ = ConvergenceStats{};

  // Enumerate the fault space once per campaign.
  fault_space_.clear();
  for (const FaultLocationSelector& selector : campaign_.locations) {
    auto part = EnumerateFaultSpace(selector);
    if (!part.ok()) return part.status();
    fault_space_.insert(fault_space_.end(), part.value().begin(),
                        part.value().end());
  }
  return util::Status::Ok();
}

util::Result<std::vector<CampaignStore::ExperimentRow>>
FaultInjectionAlgorithms::ExecuteExperiment(int index) {
  const ExperimentBody body = BodyForTechnique(campaign_.technique);
  detail_log_.clear();
  std::string name;
  if (index < 0) {
    faults_.clear();
    name = CampaignStore::ReferenceName(campaign_.name);
  } else {
    GOOFI_RETURN_IF_ERROR(GenerateFaults(fault_space_, index));
    name = CampaignStore::ExperimentName(campaign_.name, index);
  }
  GOOFI_RETURN_IF_ERROR(RunBody(body));
  return BuildRecords(name, "");
}

util::Result<std::vector<FaultInstance>> FaultInjectionAlgorithms::PlanFaults(
    int index) {
  if (index < 0) {
    return util::InvalidArgument("reference runs have no fault list to plan");
  }
  GOOFI_RETURN_IF_ERROR(GenerateFaults(fault_space_, index));
  return faults_;
}

util::Result<std::vector<CampaignStore::ExperimentRow>>
FaultInjectionAlgorithms::ExecutePlanned(int index,
                                         std::vector<FaultInstance> faults) {
  if (index < 0) {
    return util::InvalidArgument("ExecutePlanned needs an experiment index");
  }
  const ExperimentBody body = BodyForTechnique(campaign_.technique);
  detail_log_.clear();
  faults_ = std::move(faults);
  GOOFI_RETURN_IF_ERROR(RunBody(body));
  return BuildRecords(CampaignStore::ExperimentName(campaign_.name, index),
                      "");
}

FaultInjectionAlgorithms::ExperimentBody
FaultInjectionAlgorithms::BodyForTechnique(Technique technique) {
  switch (technique) {
    case Technique::kScifi:
      return &FaultInjectionAlgorithms::ScifiExperiment;
    case Technique::kSwifiPreRuntime:
      return &FaultInjectionAlgorithms::SwifiPreRuntimeExperiment;
    case Technique::kSwifiRuntime:
      return &FaultInjectionAlgorithms::SwifiRuntimeExperiment;
  }
  return &FaultInjectionAlgorithms::ScifiExperiment;
}

// RunCampaign lives in core/parallel_runner.cpp, beside the one campaign loop
// and the run preparation it shares with ParallelCampaignRunner.

util::Status FaultInjectionAlgorithms::RunCampaignOf(
    Technique technique, const std::string& campaign_name) {
  auto campaign = store_->GetCampaign(campaign_name);
  if (!campaign.ok()) return campaign.status();
  if (campaign.value().technique != technique) {
    return util::InvalidArgument(
        "campaign " + campaign_name + " uses technique " +
        TechniqueName(campaign.value().technique) + ", not " +
        TechniqueName(technique));
  }
  return RunCampaign(campaign_name);
}

util::Status FaultInjectionAlgorithms::FaultInjectorScifi(
    const std::string& campaign_name) {
  return RunCampaignOf(Technique::kScifi, campaign_name);
}

util::Status FaultInjectionAlgorithms::FaultInjectorSwifiPreRuntime(
    const std::string& campaign_name) {
  return RunCampaignOf(Technique::kSwifiPreRuntime, campaign_name);
}

util::Status FaultInjectionAlgorithms::FaultInjectorSwifiRuntime(
    const std::string& campaign_name) {
  return RunCampaignOf(Technique::kSwifiRuntime, campaign_name);
}

util::Status FaultInjectionAlgorithms::RerunDetailed(
    const std::string& experiment_name) {
  auto row = store_->GetExperiment(experiment_name);
  if (!row.ok()) return row.status();
  auto campaign = store_->GetCampaign(row.value().campaign_name);
  if (!campaign.ok()) return campaign.status();
  campaign_ = std::move(campaign).value();
  campaign_.log_mode = LogMode::kDetail;

  // Reconstruct the experiment's exact faults from experimentData.
  faults_.clear();
  for (const std::string& field : util::Split(row.value().experiment_data, ';')) {
    if (!util::StartsWith(field, "faults=")) continue;
    const std::string list = field.substr(7);
    if (list.empty()) continue;
    for (const std::string& text : util::Split(list, '|')) {
      auto fault = FaultInstance::Parse(text);
      if (!fault.ok()) return fault.status();
      faults_.push_back(std::move(fault).value());
    }
  }

  detail_log_.clear();
  GOOFI_RETURN_IF_ERROR((this->*BodyForTechnique(campaign_.technique))());
  // Log the re-run with parentExperiment = the original experiment (§2.3),
  // its main row and detail rows as one all-or-nothing batch: one WAL group
  // commit, so a killed sequence of re-runs leaves whole re-runs only.
  auto rows = BuildRecords(experiment_name + "/detail", experiment_name);
  if (!rows.ok()) return rows.status();
  return store_->PutExperiments(rows.value());
}

}  // namespace goofi::core
