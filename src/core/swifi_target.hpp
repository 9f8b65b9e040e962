// SwifiSimTarget: a second target system, built from the Framework template.
//
// The paper's central genericity claim (§2.2) is that adapting GOOFI to a
// new target system means copying the Framework class and implementing
// "only the abstract methods used by the fault injection algorithms". This
// class demonstrates exactly that: a simulator-only target that supports the
// two SWIFI techniques but has *no scan-chain test logic*. It therefore:
//
//   - inherits SimTargetCore (itself a FrameworkTarget, paper Fig. 3), not
//     ThorRdTarget, and implements only the core's hooks: the machine
//     operations on a bare cpu::Cpu, an instret-polling run loop, and the
//     observed state;
//   - leaves the SCIFI-only injection blocks (InjectFault / WriteScanChain)
//     as Framework placeholders, so running a SCIFI campaign against it
//     fails with a precise "not implemented" diagnosis instead of undefined
//     behaviour.
//
// Because the simulator host can observe everything, the logged state vector
// is the full register file plus pc, serialized under the pseudo-chain name
// "sim.regfile".
#pragma once

#include <memory>

#include "core/sim_target_core.hpp"

namespace goofi::core {

class SwifiSimTarget : public SimTargetCore {
 public:
  SwifiSimTarget(CampaignStore* store,
                 const cpu::CpuConfig& config = cpu::CpuConfig());

  static constexpr const char* kTargetName = "trd32-sim-swifi";

  /// Configuration-phase record: no scan chains, only memory fault spaces.
  static TargetSystemData Describe(const std::string& name = kTargetName);

  const cpu::Cpu& cpu() const { return *cpu_; }

  /// Superblock fast path on/off (on by default). Off runs the reference
  /// Step() loop, for differential byte-identical-DB suites.
  bool use_fast_run() const { return use_fast_run_; }
  void set_use_fast_run(bool enabled) { use_fast_run_ = enabled; }

 protected:
  util::Status RunWorkload() override {
    cpu_->Reset(program_.entry);
    return util::Status::Ok();
  }
  /// The SWIFI algorithm bodies end with an observation ReadScanChain; this
  /// target has no chains — the simulator host snapshots state directly in
  /// CollectState — so the observation step is a no-op here.
  util::Status ReadScanChain() override { return util::Status::Ok(); }

  // SimTargetCore hooks.
  util::Status PowerUp() override {
    // No physical card: "init" means power-cycling the simulator instance.
    cpu_->PowerCycle();
    return util::Status::Ok();
  }
  util::Status Download(const isa::AssembledProgram& program) override;
  util::Status MarkMemoryBaseline() override {
    cpu_->MarkMemoryBaseline();
    return util::Status::Ok();
  }
  util::Status ReadWords(uint32_t address, uint32_t count,
                         std::vector<uint32_t>* out) override;
  util::Status WriteWords(uint32_t address,
                          const std::vector<uint32_t>& words) override;
  /// The CPU: registers, caches and memory delta.
  util::Result<std::shared_ptr<SimCheckpointPayload>> SaveMachine() override;
  util::Status RestoreMachine(const SimCheckpointPayload& payload) override;
  util::Status HashMachine(cpu::StateHasher* hasher) override {
    cpu_->HashExecutionState(hasher);
    return util::Status::Ok();
  }
  const cpu::Cpu& TargetCpu() const override { return *cpu_; }
  util::Status RunToBreakpoint() override {
    return RunUntil(faults_.empty() ? 0 : faults_.front().inject_instr);
  }
  util::Status RunToTermination() override { return RunUntil(0); }
  void ObserveState(LoggedState* state) override;

  // Note: InjectFault / WriteScanChain intentionally NOT overridden — this
  // target has no scan logic, so SCIFI campaigns fail at InjectFault with
  // the Framework's diagnostic (see class comment). It applies each fault
  // exactly once, so every fault model is prunable.

 private:
  /// Runs until `stop_instr` retired instructions (0 = no breakpoint),
  /// servicing environment exchanges and boundaries; sets timed_out_.
  util::Status RunUntil(uint64_t stop_instr);

  std::unique_ptr<cpu::Cpu> cpu_;
  bool use_fast_run_ = true;
};

}  // namespace goofi::core
