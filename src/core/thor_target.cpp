#include "core/thor_target.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace goofi::core {

namespace {

/// Checkpoint payload for the Thor RD stack: the full test-card snapshot
/// next to the host-side state. Built and consumed in this translation unit
/// only.
struct ThorPayload final : SimCheckpointPayload {
  testcard::CardSnapshot card;

  size_t MemoryBytes() const override {
    return sizeof(ThorPayload) + card.MemoryBytes() +
           env_state.size() * sizeof(double);
  }
};

}  // namespace

ThorRdTarget::ThorRdTarget(CampaignStore* store, testcard::TestCard* card)
    : SimTargetCore(store), card_(card) {}

TargetSystemData ThorRdTarget::DescribeTarget(const testcard::TestCard& card,
                                              const std::string& name) {
  TargetSystemData data;
  data.name = name;
  data.description = "Simulated Thor RD (TRD32) with IEEE 1149.1 scan logic";
  std::string lines;
  for (const scan::ScanChain& chain : card.chains().chains()) {
    for (const scan::ScanCell& cell : chain.cells()) {
      lines += util::Format("%s %s %u %d\n", chain.name().c_str(),
                            cell.name.c_str(), cell.bits, cell.read_only ? 1 : 0);
    }
  }
  data.chain_data = std::move(lines);
  return data;
}

void ThorRdTarget::ResetTargetRunState() {
  next_activation_ = 0;
  inject_images_.clear();
  observe_images_.clear();
  reactivation_armed_ = false;
}

void ThorRdTarget::ArmTriggers(bool with_injection_breakpoint,
                               bool with_reactivation) {
  card_->ClearTriggers();
  iteration_trigger_ = breakpoint_trigger_ = reactivation_trigger_ = -1;
  prune_trigger_ = -1;
  reactivation_armed_ = with_reactivation;
  if (environment_ != nullptr) {
    scan::Trigger trigger;
    trigger.kind = scan::TriggerKind::kPcBreakpoint;
    trigger.address = loop_end_addr_;
    trigger.occurrence = 1;
    iteration_trigger_ = card_->AddTrigger(trigger);
  }
  if (with_injection_breakpoint && !faults_.empty()) {
    scan::Trigger trigger;
    trigger.kind = scan::TriggerKind::kInstrCount;
    trigger.count = faults_.front().inject_instr;
    breakpoint_trigger_ = card_->AddTrigger(trigger);
  }
  if (with_reactivation) {
    scan::Trigger trigger;
    trigger.kind = scan::TriggerKind::kInstrCount;
    trigger.count = next_activation_;
    reactivation_trigger_ = card_->AddTrigger(trigger);
  }
  // Boundary stop. Added LAST: DebugUnit reports the first fired trigger
  // index, so when a boundary coincides with an iteration breakpoint or a
  // reactivation, RunLoop services those first and the boundary action runs
  // at the loop top afterwards — the same post-servicing program point in
  // every run.
  if (prune_active_ && !converged_) {
    scan::Trigger trigger;
    trigger.kind = scan::TriggerKind::kInstrCount;
    trigger.count = prune_next_check_;
    prune_trigger_ = card_->AddTrigger(trigger);
  }
}

util::Status ThorRdTarget::ReactivateFaults() {
  // Group scan faults per chain: one read-modify-write per chain.
  std::map<std::string, util::BitVec> images;
  for (const FaultInstance& fault : faults_) {
    if (!fault.IsScanFault()) continue;
    if (!images.contains(fault.chain)) {
      auto image = card_->ReadScanChain(fault.chain, /*restore=*/false);
      if (!image.ok()) return image.status();
      images.emplace(fault.chain, std::move(image).value());
    }
    util::BitVec& image = images.at(fault.chain);
    image.Set(fault.chain_bit, FaultyBit(fault, image.Get(fault.chain_bit)));
  }
  for (const auto& [chain, image] : images) {
    GOOFI_RETURN_IF_ERROR(card_->WriteScanChain(chain, image));
  }
  // Memory-space faults (runtime SWIFI with non-transient models).
  for (const FaultInstance& fault : faults_) {
    if (!fault.IsScanFault()) GOOFI_RETURN_IF_ERROR(ApplyMemoryFault(fault));
  }
  ++activations_done_;
  return util::Status::Ok();
}

util::Status ThorRdTarget::RunLoop(bool stop_at_breakpoint) {
  for (;;) {
    if (Terminated()) return util::Status::Ok();
    // Boundary: this check runs at the loop top, i.e. after any iteration
    // servicing or fault reactivation that stopped the run at the same
    // retirement count. The re-arm is unconditional: it drops the fired
    // (level-comparing) boundary trigger and installs one for the next
    // boundary while preserving the iteration and reactivation triggers.
    if (BoundaryDue()) {
      const util::Result<bool> stop = AtBoundary();
      if (!stop.ok() || stop.value()) return stop.status();
      ArmTriggers(/*with_injection_breakpoint=*/false, reactivation_armed_);
    }
    const scan::DebugRunResult result = card_->Run(campaign_.timeout_cycles);
    if (result.outcome != cpu::StepOutcome::kOk) {
      return util::Status::Ok();  // halted or detected
    }
    if (result.timed_out) {
      timed_out_ = true;
      return util::Status::Ok();
    }
    if (result.fired_trigger == iteration_trigger_ && iteration_trigger_ >= 0) {
      GOOFI_RETURN_IF_ERROR(ServiceIteration());
      if (iterations_ >= campaign_.max_iterations) return util::Status::Ok();
      // The debug unit reports only the first armed trigger, so an injection
      // breakpoint reached on this same step is hidden behind the iteration
      // trigger. Stop here, after the servicing, as SwifiSimTarget does;
      // resuming would inject one retirement late.
      if (stop_at_breakpoint && breakpoint_trigger_ >= 0 &&
          card_->cpu().instructions_retired() >= faults_.front().inject_instr) {
        return util::Status::Ok();
      }
      continue;
    }
    if (stop_at_breakpoint && result.fired_trigger == breakpoint_trigger_ &&
        breakpoint_trigger_ >= 0) {
      return util::Status::Ok();
    }
    if (result.fired_trigger == reactivation_trigger_ &&
        reactivation_trigger_ >= 0) {
      const bool more =
          campaign_.fault_model == FaultModelKind::kPermanentStuckAt ||
          activations_done_ < campaign_.burst_length;
      if (more) {
        GOOFI_RETURN_IF_ERROR(ReactivateFaults());
      }
      next_activation_ = card_->cpu().instructions_retired() +
                         std::max<uint64_t>(1, campaign_.burst_spacing);
      const bool keep_reactivating =
          campaign_.fault_model == FaultModelKind::kPermanentStuckAt ||
          activations_done_ < campaign_.burst_length;
      ArmTriggers(false, keep_reactivating);
      continue;
    }
    // The boundary trigger fired: no other trigger fired on this step (it is
    // armed last). Report the timeout the debug unit would have reported
    // without it, so a boundary stop never moves the end of a timed-out run;
    // otherwise resume.
    if (campaign_.timeout_cycles != 0 &&
        card_->cpu().cycles() >= campaign_.timeout_cycles) {
      timed_out_ = true;
      return util::Status::Ok();
    }
  }
}

util::Status ThorRdTarget::RunLoopDetail() {
  // Detail mode (§3.3): "the system state is logged as frequently as the
  // target system allows, typically after the execution of each machine
  // instruction".
  while (!Terminated() && detail_log_.size() < kMaxDetailRows) {
    // Boundary, post-step and post-servicing like RunLoop's loop-top check
    // (row instret values are post-step, so the state here is the state
    // after retiring exactly prune_next_check_ instructions). No triggers to
    // re-arm on this path: single-stepping checks every retirement, so the
    // boundary hits exactly.
    if (BoundaryDue()) {
      const util::Result<bool> stop = AtBoundary();
      if (!stop.ok() || stop.value()) return stop.status();
    }
    const uint32_t exec_pc = card_->cpu().pc();
    const cpu::StepOutcome outcome = card_->SingleStep();
    if (environment_ != nullptr && exec_pc == loop_end_addr_) {
      GOOFI_RETURN_IF_ERROR(ServiceIteration());
    }
    if (card_->cpu().cycles() >= campaign_.timeout_cycles) timed_out_ = true;

    LoggedState snapshot;
    snapshot.cycles = card_->cpu().cycles();
    snapshot.instret = card_->cpu().instructions_retired();
    snapshot.iterations = iterations_;
    snapshot.halted = outcome == cpu::StepOutcome::kHalted;
    snapshot.detected = outcome == cpu::StepOutcome::kDetected;
    if (snapshot.detected) {
      snapshot.edm = cpu::EdmTypeName(card_->cpu().edm_event().type);
      snapshot.edm_code = card_->cpu().edm_event().code;
    }
    // Log the same chains the campaign observes at termination, so detail
    // traces expose fault propagation in every selected location class.
    // The capture buffer is reused across instructions: this loop runs per
    // retired instruction, so a fresh BitVec per read would dominate the
    // detail-mode allocation profile.
    for (const std::string& chain : campaign_.observe_chains) {
      GOOFI_RETURN_IF_ERROR(
          card_->ReadScanChainInto(chain, /*restore=*/true, &detail_capture_));
      snapshot.scan_images[chain] = detail_capture_.ToString();
    }
    detail_log_.push_back(std::move(snapshot));

    if (outcome != cpu::StepOutcome::kOk) break;
  }
  return util::Status::Ok();
}

util::Result<std::shared_ptr<SimCheckpointPayload>>
ThorRdTarget::SaveMachine() {
  auto card = card_->SaveSnapshot();
  if (!card.ok()) return card.status();
  auto payload = std::make_shared<ThorPayload>();
  payload->card = std::move(card).value();
  return std::shared_ptr<SimCheckpointPayload>(std::move(payload));
}

util::Status ThorRdTarget::RestoreMachine(const SimCheckpointPayload& payload) {
  const auto* thor = dynamic_cast<const ThorPayload*>(&payload);
  if (thor == nullptr) {
    return util::Internal("checkpoint payload is not a Thor RD snapshot");
  }
  return card_->RestoreSnapshot(thor->card);
}

util::Status ThorRdTarget::RunToBreakpoint() {
  // Armed here, after a cold reset or a checkpoint restore alike. The PC
  // breakpoint fires on every execution of the loop boundary regardless of
  // its occurrence counter (occurrence 1), and instruction-count triggers
  // are level comparators, so fresh counters after a restore behave
  // identically to counters carried from instruction 0.
  ArmTriggers(/*with_injection_breakpoint=*/true, /*with_reactivation=*/false);
  return RunLoop(/*stop_at_breakpoint=*/true);
}

util::Status ThorRdTarget::RunToTermination() {
  const bool reactivate =
      injection_done_ &&
      campaign_.fault_model != FaultModelKind::kTransientBitFlip;
  if (reactivate) {
    next_activation_ = card_->cpu().instructions_retired() +
                       std::max<uint64_t>(1, campaign_.burst_spacing);
  }
  ArmTriggers(false, reactivate);
  if (campaign_.log_mode == LogMode::kDetail) {
    return RunLoopDetail();
  }
  return RunLoop(/*stop_at_breakpoint=*/false);
}

bool ThorRdTarget::TargetAllowsPruning() const {
  // Permanent faults re-activate forever: the target can never rejoin the
  // golden trajectory while the stuck-at keeps being re-applied.
  if (campaign_.fault_model == FaultModelKind::kPermanentStuckAt) return false;
  // Detail mode additionally needs the golden suffix rows to synthesize.
  return campaign_.log_mode != LogMode::kDetail ||
         (golden_trace_->detail_complete() &&
          !golden_trace_->detail_rows().empty());
}

bool ThorRdTarget::BoundaryComparable() const {
  // An intermittent burst still in flight keeps future behavior dependent on
  // host-side reactivation state the hash does not cover; compare only once
  // the burst has fully fired.
  return campaign_.fault_model != FaultModelKind::kIntermittentBitFlip ||
         activations_done_ >= campaign_.burst_length;
}

util::Status ThorRdTarget::ReadScanChain() {
  // A converged run takes its observation images from the synthesized state.
  if (converged_) return util::Status::Ok();
  const bool injection_read = !faults_.empty() && !injection_done_ &&
                              !terminated_before_injection_ &&
                              campaign_.technique == Technique::kScifi;
  if (injection_read) {
    inject_images_.clear();
    for (const FaultInstance& fault : faults_) {
      if (!fault.IsScanFault() || inject_images_.contains(fault.chain)) continue;
      auto image = card_->ReadScanChain(fault.chain, /*restore=*/false);
      if (!image.ok()) return image.status();
      inject_images_.emplace(fault.chain, std::move(image).value());
    }
    return util::Status::Ok();
  }
  // Observation read at experiment end (§3.3: the logged system state
  // includes all observable locations selected in the set-up phase).
  observe_images_.clear();
  for (const std::string& chain : campaign_.observe_chains) {
    auto image = card_->ReadScanChain(chain, /*restore=*/true);
    if (!image.ok()) return image.status();
    observe_images_[chain] = image.value().ToString();
  }
  return util::Status::Ok();
}

util::Status ThorRdTarget::InjectFault() {
  if (terminated_before_injection_) return util::Status::Ok();
  for (const FaultInstance& fault : faults_) {
    if (!fault.IsScanFault()) continue;
    auto it = inject_images_.find(fault.chain);
    if (it == inject_images_.end()) {
      return util::Internal("InjectFault before ReadScanChain for chain " +
                            fault.chain);
    }
    util::BitVec& image = it->second;
    image.Set(fault.chain_bit, FaultyBit(fault, image.Get(fault.chain_bit)));
  }
  return util::Status::Ok();
}

util::Status ThorRdTarget::WriteScanChain() {
  if (terminated_before_injection_) return util::Status::Ok();
  for (const auto& [chain, image] : inject_images_) {
    GOOFI_RETURN_IF_ERROR(card_->WriteScanChain(chain, image));
  }
  if (!faults_.empty()) {
    injection_done_ = true;
    ++activations_done_;
  }
  return util::Status::Ok();
}

util::Result<std::vector<FaultCandidate>> ThorRdTarget::EnumerateScanSpace(
    const FaultLocationSelector& selector) {
  const scan::ScanChain* chain = card_->chains().Find(selector.chain);
  if (chain == nullptr) {
    return util::NotFound("no scan chain or memory space named " +
                          selector.chain);
  }
  std::vector<FaultCandidate> out;
  for (const scan::ScanCell& cell : chain->cells()) {
    if (cell.read_only) continue;
    if (!selector.cell_prefix.empty() &&
        !util::StartsWith(cell.name, selector.cell_prefix)) {
      continue;
    }
    for (uint32_t bit = 0; bit < cell.bits; ++bit) {
      FaultCandidate candidate;
      candidate.scan = true;
      candidate.chain = selector.chain;
      candidate.chain_bit = cell.offset + bit;
      candidate.cell_name = cell.name;
      out.push_back(std::move(candidate));
    }
  }
  if (out.empty()) {
    return util::InvalidArgument("selector " + selector.ToString() +
                                 " matches no injectable bits");
  }
  return out;
}

}  // namespace goofi::core
