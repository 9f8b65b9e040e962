// ThorRdTarget: the TargetSystemInterface for the (simulated) Thor RD
// target system.
//
// In the paper's architecture, each supported target system contributes one
// TargetSystemInterface class that inherits FaultInjectionAlgorithms and
// implements its abstract methods (Fig. 1-3). The blocks every simulated
// target shares come from SimTargetCore; this class binds its hooks to the
// simulated test card: scan access goes through the IEEE 1149.1 TAP, debug
// events through the scan-logic breakpoint unit, and memory access through
// the host port. It adds the SCIFI injection surface, fault reactivation for
// non-transient models, and the per-instruction detail loop.
#pragma once

#include <map>

#include "core/sim_target_core.hpp"
#include "testcard/testcard.hpp"

namespace goofi::core {

class ThorRdTarget : public SimTargetCore {
 public:
  /// `card` must outlive the target.
  ThorRdTarget(CampaignStore* store, testcard::TestCard* card);

  /// Configuration-phase output (paper Fig. 5): the target description that
  /// is stored in the TargetSystemData table, listing every scan chain cell
  /// with its width and read-only flag.
  static TargetSystemData DescribeTarget(const testcard::TestCard& card,
                                         const std::string& name);

  /// The default name this target registers under.
  static constexpr const char* kTargetName = "thor-rd-sim";

 protected:
  util::Status RunWorkload() override { return card_->ResetTarget(); }
  util::Status ReadScanChain() override;
  util::Status InjectFault() override;
  util::Status WriteScanChain() override;

  // SimTargetCore hooks.
  util::Status PowerUp() override { return card_->Init(); }
  util::Status Download(const isa::AssembledProgram& program) override {
    return card_->LoadWorkload(program);
  }
  util::Status MarkMemoryBaseline() override {
    return card_->MarkMemoryBaseline();
  }
  util::Status ReadWords(uint32_t address, uint32_t count,
                         std::vector<uint32_t>* out) override {
    return card_->ReadMemoryInto(address, count, out);
  }
  util::Status WriteWords(uint32_t address,
                          const std::vector<uint32_t>& words) override {
    return card_->WriteMemory(address, words);
  }
  /// The full card state: CPU, caches, memory delta, TAP and debug unit.
  util::Result<std::shared_ptr<SimCheckpointPayload>> SaveMachine() override;
  util::Status RestoreMachine(const SimCheckpointPayload& payload) override;
  /// The card state: CPU plus the conditional link-noise RNG.
  util::Status HashMachine(cpu::StateHasher* hasher) override {
    return card_->HashTargetState(hasher);
  }
  bool SupportsStateHash() const override {
    return card_->SupportsStateHash();
  }
  const cpu::Cpu& TargetCpu() const override { return card_->cpu(); }
  util::Status RunToBreakpoint() override;
  util::Status RunToTermination() override;
  void ObserveState(LoggedState* state) override {
    state->scan_images = observe_images_;
  }
  util::Result<std::vector<FaultCandidate>> EnumerateScanSpace(
      const FaultLocationSelector& selector) override;
  bool TargetAllowsPruning() const override;
  bool BoundaryComparable() const override;
  void ResetTargetRunState() override;

 private:
  /// Arms the debug triggers appropriate for the current phase.
  void ArmTriggers(bool with_injection_breakpoint, bool with_reactivation);

  /// Re-applies non-transient faults during WaitForTermination.
  util::Status ReactivateFaults();

  /// Runs the target until an event, servicing iteration boundaries.
  /// Returns when the injection breakpoint fires (`stop_at_breakpoint`), a
  /// termination condition is reached, or a boundary stops the run.
  util::Status RunLoop(bool stop_at_breakpoint);

  /// Detail-mode variant: single-steps, logging state per instruction.
  util::Status RunLoopDetail();

  testcard::TestCard* card_;

  // Per-experiment bookkeeping.
  uint64_t next_activation_ = 0;
  std::map<std::string, util::BitVec> inject_images_;  ///< read-modify-write
  std::map<std::string, std::string> observe_images_;  ///< logged at the end

  int iteration_trigger_ = -1;
  int breakpoint_trigger_ = -1;
  int reactivation_trigger_ = -1;
  int prune_trigger_ = -1;

  /// The last ArmTriggers reactivation flag, so boundary re-arms keep it.
  bool reactivation_armed_ = false;

  /// Capture buffer reused across detail-mode scan-chain reads.
  util::BitVec detail_capture_;
};

}  // namespace goofi::core
