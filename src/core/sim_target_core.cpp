#include "core/sim_target_core.hpp"

#include <algorithm>

#include "cpu/state_hash.hpp"
#include "util/strings.hpp"

namespace goofi::core {

util::Status SimTargetCore::EnsureWorkload() {
  if (workload_ready_ && workload_.name == campaign_.workload) {
    return util::Status::Ok();
  }
  auto spec = env::GetWorkload(campaign_.workload);
  if (!spec.ok()) return spec.status();
  workload_ = std::move(spec).value();
  auto program = isa::Assemble(workload_.source);
  if (!program.ok()) return program.status();
  program_ = std::move(program).value();

  environment_.reset();
  input_addr_ = output_addr_ = loop_end_addr_ = result_addr_ = 0;
  if (workload_.infinite_loop) {
    auto plant = env::MakeEnvironment(workload_.environment);
    if (!plant.ok()) return plant.status();
    environment_ = std::move(plant).value();
    auto io = program_.Symbol(workload_.input_symbol);
    if (!io.ok()) return io.status();
    input_addr_ = io.value();
    output_addr_ = input_addr_ + workload_.input_words * 4;
    auto loop_end = program_.Symbol(workload_.iteration_symbol);
    if (!loop_end.ok()) return loop_end.status();
    loop_end_addr_ = loop_end.value();
  } else if (!workload_.result_symbol.empty()) {
    auto result = program_.Symbol(workload_.result_symbol);
    if (!result.ok()) return result.status();
    result_addr_ = result.value();
  }
  workload_ready_ = true;
  return util::Status::Ok();
}

void SimTargetCore::ResetRunState() {
  iterations_ = 0;
  timed_out_ = false;
  injection_done_ = false;
  terminated_before_injection_ = false;
  activations_done_ = 0;
  actuator_crc_.Reset();
  outputs_.clear();
  prune_active_ = false;
  converged_ = false;
  prune_next_check_ = 0;
  memo_pending_ = false;
  memo_blob_.clear();
  ResetTargetRunState();
}

util::Status SimTargetCore::InitTestCard() {
  GOOFI_RETURN_IF_ERROR(PowerUp());
  ResetRunState();
  return util::Status::Ok();
}

util::Status SimTargetCore::LoadWorkload() {
  GOOFI_RETURN_IF_ERROR(EnsureWorkload());
  GOOFI_RETURN_IF_ERROR(Download(program_));
  if (environment_) environment_->Reset();
  if (golden_image_workload_ != campaign_.workload) {
    // Declare the downloaded image as the shared golden page set, once per
    // workload: every later download of the same image repoints at it
    // (golden adoption) instead of copying, and sibling workers intern the
    // identical image through the factory's registry. Purely a
    // memory-sharing declaration — results are unaffected, and warm paths
    // re-baseline after WriteMemory (EnsureWarmBaseline) as before.
    // Pre-runtime image mutations land as private pages on top.
    GOOFI_RETURN_IF_ERROR(MarkMemoryBaseline());
    golden_image_workload_ = campaign_.workload;
  }
  return util::Status::Ok();
}

util::Status SimTargetCore::WriteMemory() {
  if (environment_ == nullptr) return util::Status::Ok();
  return WriteWords(input_addr_, environment_->Sense());
}

bool SimTargetCore::Terminated() const {
  const cpu::Cpu& cpu = TargetCpu();
  return cpu.halted() || cpu.detected() || timed_out_ ||
         (environment_ != nullptr && iterations_ >= campaign_.max_iterations);
}

util::Status SimTargetCore::ServiceIteration() {
  GOOFI_RETURN_IF_ERROR(
      ReadWords(output_addr_, workload_.output_words, &actuator_words_));
  for (uint32_t word : actuator_words_) actuator_crc_.UpdateWord(word);
  environment_->Exchange(actuator_words_, &sensor_words_);
  GOOFI_RETURN_IF_ERROR(WriteWords(input_addr_, sensor_words_));
  ++iterations_;
  return util::Status::Ok();
}

util::Status SimTargetCore::EnsureWarmBaseline() {
  if (warm_ready_workload_ == campaign_.workload) return util::Status::Ok();
  // The deterministic cold prologue every experiment shares. Running it once
  // per worker makes each worker's baseline image identical to the one the
  // cache's deltas were captured against.
  GOOFI_RETURN_IF_ERROR(InitTestCard());
  GOOFI_RETURN_IF_ERROR(LoadWorkload());
  GOOFI_RETURN_IF_ERROR(WriteMemory());
  GOOFI_RETURN_IF_ERROR(MarkMemoryBaseline());
  warm_ready_workload_ = campaign_.workload;
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// Golden run.
// ---------------------------------------------------------------------------

util::Status SimTargetCore::StartGoldenPass(uint64_t interval) {
  faults_.clear();
  warm_ready_workload_.clear();
  GOOFI_RETURN_IF_ERROR(EnsureWarmBaseline());
  detail_log_.clear();
  golden_interval_ = interval;
  prune_active_ = true;
  prune_next_check_ = 0;  // first capture at instret 0, then every interval
  // RunWorkload resets to the entry point without re-downloading memory.
  return RunWorkload();
}

util::Status SimTargetCore::BuildGoldenRun(uint64_t interval,
                                           CheckpointCache* cache,
                                           GoldenTrace* trace) {
  if (interval == 0 || (cache == nullptr && trace == nullptr)) {
    return util::InvalidArgument("checkpoint interval must be positive");
  }
  if (cache != nullptr) {
    // The pre-injection loop of every experiment, fault-free, capturing a
    // checkpoint at each boundary until the injection window is covered.
    GOOFI_RETURN_IF_ERROR(StartGoldenPass(interval));
    capture_cache_ = cache;
    const util::Status run = RunToBreakpoint();
    capture_cache_ = nullptr;
    prune_active_ = false;
    GOOFI_RETURN_IF_ERROR(run);
  }
  if (trace == nullptr) return util::Status::Ok();
  trace->set_interval(interval);
  trace->set_campaign_name(campaign_.name);
  // Without state hashing the trace has no final state, which
  // CanPruneExperiment treats as "pruning unavailable".
  if (!SupportsStateHash()) return util::Status::Ok();
  // The post-injection loop (detail mode included), fault-free, capturing a
  // digest at each boundary: boundary program points, the branch-order
  // corner cases around iteration servicing, and the final outcome (timeouts
  // included) are exactly what a converging faulty run reaches.
  GOOFI_RETURN_IF_ERROR(StartGoldenPass(interval));
  capture_trace_ = trace;
  const util::Status run = RunToTermination();
  capture_trace_ = nullptr;
  prune_active_ = false;
  GOOFI_RETURN_IF_ERROR(run);
  // The standard experiment epilogue, so the golden final state is row-
  // identical to what a full fault-free experiment would log.
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  auto state = CollectState();
  if (!state.ok()) return state.status();
  trace->SetFinalState(std::move(state).value());
  if (campaign_.log_mode == LogMode::kDetail) {
    // A golden run truncated by the row cap has no usable suffix: a faulty
    // run converging late would need rows the trace never recorded.
    trace->set_detail_complete(
        !(detail_log_.size() >= kMaxDetailRows && !Terminated()));
    *trace->mutable_detail_rows() = std::move(detail_log_);
    detail_log_.clear();
  }
  return util::Status::Ok();
}

util::Status SimTargetCore::CaptureCheckpoint() {
  auto payload = SaveMachine();
  if (!payload.ok()) return payload.status();
  SimCheckpointPayload& host = *payload.value();
  host.iterations = iterations_;
  host.crc_state = actuator_crc_.raw_state();
  if (environment_ != nullptr) host.env_state = environment_->SaveState();
  Checkpoint checkpoint;
  checkpoint.instret = TargetCpu().instructions_retired();
  checkpoint.payload = std::move(payload).value();
  capture_cache_->Add(std::move(checkpoint));
  return util::Status::Ok();
}

util::Status SimTargetCore::RestoreCheckpoint(const Checkpoint& checkpoint) {
  const auto* payload =
      dynamic_cast<const SimCheckpointPayload*>(checkpoint.payload.get());
  if (payload == nullptr) {
    return util::Internal(
        "checkpoint payload is not a simulated-target snapshot");
  }
  GOOFI_RETURN_IF_ERROR(EnsureWarmBaseline());
  GOOFI_RETURN_IF_ERROR(RestoreMachine(*payload));
  // Per-experiment bookkeeping exactly as a cold run carries it to this
  // instruction: injection still ahead, no timeout, accumulated iteration
  // count / CRC / plant state from the fault-free prefix.
  ResetRunState();
  iterations_ = payload->iterations;
  actuator_crc_.set_raw_state(payload->crc_state);
  if (environment_ != nullptr) environment_->RestoreState(payload->env_state);
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// Boundary engine.
// ---------------------------------------------------------------------------

util::Status SimTargetCore::HashTargetNow(cpu::StateHasher* hasher) {
  GOOFI_RETURN_IF_ERROR(HashMachine(hasher));
  // Host-side per-experiment accumulators that shape the remaining run and
  // the logged outcome: actuator-CRC state, iteration count, plant state.
  hasher->U32(actuator_crc_.raw_state());
  hasher->I32(iterations_);
  if (environment_ != nullptr) {
    environment_->SaveStateInto(&env_state_scratch_);
    hasher->U64(env_state_scratch_.size());
    for (double value : env_state_scratch_) hasher->Double(value);
  }
  return util::Status::Ok();
}

bool SimTargetCore::CanPruneExperiment() const {
  if (!convergence_pruning_ || golden_trace_ == nullptr) return false;
  const GoldenTrace& trace = *golden_trace_;
  if (trace.interval() == 0 || !trace.has_final_state()) return false;
  if (trace.campaign_name() != campaign_.name) return false;
  if (faults_.empty() || !injection_done_ || terminated_before_injection_) {
    return false;
  }
  if (!SupportsStateHash()) return false;
  // Canonical memory hashing digests against the workload's baseline; no
  // baseline for this workload means no comparable hash.
  if (warm_ready_workload_ != campaign_.workload) return false;
  return TargetAllowsPruning();
}

util::Result<bool> SimTargetCore::AtBoundary() {
  const uint64_t instret = TargetCpu().instructions_retired();
  if (capture_cache_ != nullptr || capture_trace_ != nullptr) {
    prune_next_check_ = (instret / golden_interval_ + 1) * golden_interval_;
    if (capture_cache_ != nullptr) {
      GOOFI_RETURN_IF_ERROR(CaptureCheckpoint());
      // No experiment can use a checkpoint at or past inject_max_instr
      // (FindBefore is strict), so the pass ends there.
      return prune_next_check_ >= campaign_.inject_max_instr;
    }
    // Record the digest and its capture blob, the collision guard.
    cpu::StateHasher hasher(/*capture=*/true);
    GOOFI_RETURN_IF_ERROR(HashTargetNow(&hasher));
    GoldenBoundary boundary;
    boundary.instret = instret;
    boundary.hash = hasher.hash();
    boundary.blob = hasher.TakeBlob();
    capture_trace_->AddBoundary(std::move(boundary));
    return false;
  }
  const uint64_t interval = golden_trace_->interval();
  const uint64_t next = (instret / interval + 1) * interval;
  if (instret != prune_next_check_) {
    // Overshot the boundary (boundary stops are exact, so this should not
    // happen); skip rather than compare at a non-boundary point.
    prune_next_check_ = next;
    return false;
  }
  prune_next_check_ = next;
  if (!BoundaryComparable()) return false;
  const GoldenBoundary* golden = golden_trace_->FindBoundary(instret);
  if (golden == nullptr) {
    // The golden run terminated before this point; no later boundary can
    // match either.
    prune_active_ = false;
    return false;
  }
  ++prune_stats_.boundary_checks;
  cpu::StateHasher hasher(/*capture=*/true);
  GOOFI_RETURN_IF_ERROR(HashTargetNow(&hasher));
  if (hasher.hash() == golden->hash) {
    if (hasher.blob() == golden->blob) {
      if (campaign_.log_mode == LogMode::kDetail) {
        // Synthesize the remaining detail rows from the golden suffix
        // (rows past this boundary; row instret values increase strictly).
        const std::vector<LoggedState>& rows = golden_trace_->detail_rows();
        const auto suffix_begin = std::upper_bound(
            rows.begin(), rows.end(), instret,
            [](uint64_t value, const LoggedState& row) {
              return value < row.instret;
            });
        const size_t suffix = static_cast<size_t>(rows.end() - suffix_begin);
        if (detail_log_.size() + suffix > kMaxDetailRows) {
          // A full run would hit the row cap mid-suffix and stop with that
          // row's state; synthesizing that is not worth the complexity, and
          // the overflow persists at every later boundary — give up.
          prune_active_ = false;
          return false;
        }
        detail_log_.insert(detail_log_.end(), suffix_begin, rows.end());
      }
      synth_state_ = golden_trace_->final_state();
      converged_ = true;
      ++prune_stats_.pruned_golden;
      return true;
    }
    ++prune_stats_.collision_rejects;
  }
  // Divergent state: try the cross-experiment memo (normal mode only —
  // detail rows are not memoized), and remember the first such boundary as
  // this experiment's memo candidate.
  if (campaign_.log_mode != LogMode::kNormal) return false;
  if (convergence_memo_ != nullptr &&
      convergence_memo_->Lookup(instret, hasher.hash(), hasher.blob(),
                                &synth_state_)) {
    converged_ = true;
    ++prune_stats_.pruned_memo;
    return true;
  }
  if (!memo_pending_) {
    memo_pending_ = true;
    memo_instret_ = instret;
    memo_hash_ = hasher.hash();
    memo_blob_ = hasher.TakeBlob();
  }
  return false;
}

// ---------------------------------------------------------------------------
// Experiment blocks.
// ---------------------------------------------------------------------------

util::Status SimTargetCore::WaitForBreakpoint() {
  GOOFI_RETURN_IF_ERROR(RunToBreakpoint());
  terminated_before_injection_ = Terminated();
  return util::Status::Ok();
}

util::Status SimTargetCore::WaitForTermination() {
  converged_ = false;
  memo_pending_ = false;
  prune_active_ = CanPruneExperiment();
  if (prune_active_) {
    // First boundary strictly after the injection point: a faulty run can
    // only have rejoined the golden trajectory after the fault landed.
    const uint64_t interval = golden_trace_->interval();
    prune_next_check_ =
        (TargetCpu().instructions_retired() / interval + 1) * interval;
  }
  return RunToTermination();
}

util::Status SimTargetCore::ReadMemory() {
  // A converged run takes its outputs from the synthesized state.
  if (converged_) return util::Status::Ok();
  if (environment_ != nullptr) {
    // Control workloads: the trace of actuator commands is the output.
    outputs_ = {actuator_crc_.Value()};
    return util::Status::Ok();
  }
  if (workload_.result_words == 0) {
    outputs_.clear();
    return util::Status::Ok();
  }
  return ReadWords(result_addr_, workload_.result_words, &outputs_);
}

util::Status SimTargetCore::ApplyMemoryFault(const FaultInstance& fault) {
  std::vector<uint32_t> word;
  GOOFI_RETURN_IF_ERROR(ReadWords(fault.address, 1, &word));
  const uint32_t mask = 1u << fault.bit;
  const uint32_t value = word[0];
  return WriteWords(fault.address, {FaultyBit(fault, (value & mask) != 0)
                                        ? value | mask
                                        : value & ~mask});
}

util::Status SimTargetCore::MutateImage() {
  // Pre-runtime SWIFI corrupts the downloaded program/data image before the
  // workload starts executing (§1); runtime SWIFI the live memory.
  for (const FaultInstance& fault : faults_) {
    if (fault.IsScanFault()) {
      return util::InvalidArgument(
          "SWIFI campaign selected a scan-chain location; use memory.text / "
          "memory.data selectors");
    }
    GOOFI_RETURN_IF_ERROR(ApplyMemoryFault(fault));
  }
  injection_done_ = true;
  ++activations_done_;
  return util::Status::Ok();
}

util::Status SimTargetCore::InjectMemoryFault() {
  if (terminated_before_injection_) return util::Status::Ok();
  return MutateImage();
}

util::Result<std::vector<FaultCandidate>> SimTargetCore::EnumerateScanSpace(
    const FaultLocationSelector& selector) {
  return util::InvalidArgument(
      "target has no scan chains; use memory.text / memory.data, got " +
      selector.chain);
}

util::Result<std::vector<FaultCandidate>> SimTargetCore::EnumerateFaultSpace(
    const FaultLocationSelector& selector) {
  GOOFI_RETURN_IF_ERROR(EnsureWorkload());
  if (selector.chain != "memory.text" && selector.chain != "memory.data") {
    return EnumerateScanSpace(selector);
  }
  uint32_t begin = program_.base_address;
  uint32_t end = program_.base_address + program_.size_bytes();
  const auto etext = program_.symbols.find("_etext");
  if (etext != program_.symbols.end()) {
    if (selector.chain == "memory.text") {
      end = etext->second;
    } else {
      begin = etext->second;
    }
  } else if (selector.chain == "memory.data") {
    return util::InvalidArgument(
        "workload has no _etext marker; memory.data is empty");
  }
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  if (end > begin) ranges.emplace_back(begin, end);
  // Control workloads keep their working data in the environment I/O buffer
  // rather than the image; that buffer is part of the "data area" the
  // paper's pre-runtime SWIFI targets.
  if (selector.chain == "memory.data" && workload_.infinite_loop) {
    const uint32_t io_end =
        input_addr_ + (workload_.input_words + workload_.output_words) * 4;
    ranges.emplace_back(input_addr_, io_end);
  }
  if (ranges.empty()) {
    return util::InvalidArgument("selector matches no words: " +
                                 selector.ToString());
  }
  std::vector<FaultCandidate> out;
  for (const auto& [range_begin, range_end] : ranges) {
    for (uint32_t address = range_begin; address < range_end; address += 4) {
      for (uint32_t bit = 0; bit < 32; ++bit) {
        FaultCandidate candidate;
        candidate.scan = false;
        candidate.address = address;
        candidate.bit = bit;
        candidate.cell_name =
            util::Format("%s@0x%08x", selector.chain.c_str(), address);
        out.push_back(std::move(candidate));
      }
    }
  }
  return out;
}

util::Result<LoggedState> SimTargetCore::CollectState() {
  LoggedState state;
  if (converged_) {
    state = synth_state_;
  } else {
    const cpu::Cpu& cpu = TargetCpu();
    state.detected = cpu.detected();
    state.halted = cpu.halted() && !cpu.detected();
    if (state.detected) {
      state.edm = cpu::EdmTypeName(cpu.edm_event().type);
      state.edm_code = cpu.edm_event().code;
    }
    state.timed_out = timed_out_;
    state.env_failed = environment_ != nullptr && environment_->Failed();
    state.cycles = cpu.cycles();
    state.instret = cpu.instructions_retired();
    state.iterations = iterations_;
    state.outputs = outputs_;
    ObserveState(&state);
  }
  // The experiment's final state is the deterministic outcome of the first
  // divergent boundary state recorded in AtBoundary — memoize it, whether
  // this run later converged (via golden or memo) or simulated to the end.
  if (memo_pending_) {
    if (convergence_memo_ != nullptr &&
        convergence_memo_->Insert(memo_instret_, memo_hash_,
                                  std::move(memo_blob_), state)) {
      ++prune_stats_.memo_inserts;
    }
    memo_pending_ = false;
    memo_blob_.clear();
  }
  return state;
}

}  // namespace goofi::core
