#include "core/swifi_target.hpp"

#include <algorithm>

namespace goofi::core {

namespace {

/// Checkpoint payload for the simulator-only SWIFI target: the CPU snapshot
/// (registers, caches, memory delta) next to the host-side state. Built and
/// consumed in this translation unit only.
struct SwifiPayload final : SimCheckpointPayload {
  cpu::CpuSnapshot cpu;

  size_t MemoryBytes() const override {
    return sizeof(SwifiPayload) + cpu.MemoryBytes() +
           env_state.size() * sizeof(double);
  }
};

}  // namespace

SwifiSimTarget::SwifiSimTarget(CampaignStore* store,
                               const cpu::CpuConfig& config)
    : SimTargetCore(store), cpu_(std::make_unique<cpu::Cpu>(config)) {}

TargetSystemData SwifiSimTarget::Describe(const std::string& name) {
  TargetSystemData data;
  data.name = name;
  data.description =
      "TRD32 simulator without scan logic (pre-runtime and runtime SWIFI only)";
  data.chain_data = "memory.text - - -\nmemory.data - - -\n";
  return data;
}

util::Status SwifiSimTarget::Download(const isa::AssembledProgram& program) {
  return cpu_->LoadProgram(program.base_address, program.words,
                           program.text_bytes());
}

util::Status SwifiSimTarget::ReadWords(uint32_t address, uint32_t count,
                                       std::vector<uint32_t>* out) {
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    auto word = cpu_->memory().HostRead(address + i * 4);
    if (!word.ok()) return word.status();
    (*out)[i] = word.value();
  }
  return util::Status::Ok();
}

util::Status SwifiSimTarget::WriteWords(uint32_t address,
                                        const std::vector<uint32_t>& words) {
  for (size_t i = 0; i < words.size(); ++i) {
    GOOFI_RETURN_IF_ERROR(
        cpu_->HostWriteWord(address + static_cast<uint32_t>(i) * 4, words[i]));
  }
  return util::Status::Ok();
}

util::Result<std::shared_ptr<SimCheckpointPayload>>
SwifiSimTarget::SaveMachine() {
  auto payload = std::make_shared<SwifiPayload>();
  payload->cpu = cpu_->SaveSnapshot();
  return std::shared_ptr<SimCheckpointPayload>(std::move(payload));
}

util::Status SwifiSimTarget::RestoreMachine(
    const SimCheckpointPayload& payload) {
  const auto* swifi = dynamic_cast<const SwifiPayload*>(&payload);
  if (swifi == nullptr) {
    return util::Internal("checkpoint payload is not a SWIFI sim snapshot");
  }
  // No debug triggers to re-arm: RunUntil polls the retired-instruction
  // counter directly.
  cpu_->RestoreSnapshot(swifi->cpu);
  return util::Status::Ok();
}

util::Status SwifiSimTarget::RunUntil(uint64_t stop_instr) {
  if (!use_fast_run_) {
    while (!Terminated()) {
      if (stop_instr != 0 && cpu_->instructions_retired() >= stop_instr) {
        return util::Status::Ok();
      }
      // Boundary: checked at the loop top, i.e. after the step that reached
      // the boundary count and its iteration servicing.
      if (BoundaryDue()) {
        const util::Result<bool> stop = AtBoundary();
        if (!stop.ok() || stop.value()) return stop.status();
      }
      const uint32_t exec_pc = cpu_->pc();
      const cpu::StepOutcome outcome = cpu_->Step();
      if (environment_ != nullptr && exec_pc == loop_end_addr_) {
        GOOFI_RETURN_IF_ERROR(ServiceIteration());
      }
      if (cpu_->cycles() >= campaign_.timeout_cycles) {
        timed_out_ = true;
        return util::Status::Ok();
      }
      if (outcome != cpu::StepOutcome::kOk) return util::Status::Ok();
    }
    return util::Status::Ok();
  }

  // Fast path: same loop, with the per-step interior handled by the
  // superblock primitive. Every condition the reference loop checks per
  // step can only change at a primitive stop: halt/detection end the
  // primitive, the retired-instruction breakpoint is its instret budget,
  // the timeout its cycle budget (the reference compares cycles >= timeout
  // without a zero guard, so 0 means "stop after one step", not "off"),
  // and boundary-iteration servicing is a pc watch.
  cpu::RunFastRequest request;
  request.max_cycles = std::max<uint64_t>(campaign_.timeout_cycles, 1);
  if (environment_ != nullptr) {
    request.watch_pc_enabled = true;
    request.watch_pc = loop_end_addr_;
  }
  while (!Terminated()) {
    if (stop_instr != 0 && cpu_->instructions_retired() >= stop_instr) {
      return util::Status::Ok();
    }
    if (BoundaryDue()) {
      const util::Result<bool> stop = AtBoundary();
      if (!stop.ok() || stop.value()) return stop.status();
    }
    // The instret budget is the nearer of the caller's breakpoint and the
    // next boundary, so the primitive stops exactly where the reference loop
    // would act (0 = unbounded).
    uint64_t budget = stop_instr;
    if (prune_active_ && !converged_) {
      budget = budget == 0 ? prune_next_check_
                           : std::min(budget, prune_next_check_);
    }
    request.max_instret = budget;
    const cpu::RunFastResult fast = cpu_->RunFastEx(request);
    // The boundary iteration is serviced even when the step faulted — the
    // exchange happens before the outcome is inspected, as in the slow loop.
    if (environment_ != nullptr && fast.exec_pc == loop_end_addr_) {
      GOOFI_RETURN_IF_ERROR(ServiceIteration());
    }
    if (cpu_->cycles() >= campaign_.timeout_cycles) {
      timed_out_ = true;
      return util::Status::Ok();
    }
    if (fast.outcome != cpu::StepOutcome::kOk) return util::Status::Ok();
  }
  return util::Status::Ok();
}

void SwifiSimTarget::ObserveState(LoggedState* state) {
  // The simulator host observes the architectural state directly.
  util::BitVec image;
  image.Reserve((isa::kNumRegisters + 1) * 32);
  for (int reg = 0; reg < isa::kNumRegisters; ++reg) {
    image.AppendWord(cpu_->reg(reg), 32);
  }
  image.AppendWord(cpu_->pc(), 32);
  state->scan_images["sim.regfile"] = image.ToString();
}

}  // namespace goofi::core
