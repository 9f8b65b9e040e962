// IEEE 1149.1 (JTAG) test-access-port controller.
//
// The Thor RD's "advanced scan-chain logic, i.e. built-in test logic
// primarily intended for testing integrated circuits ... conforming to the
// IEEE standard for boundary scan" (paper §3.1) is modelled here: the
// canonical 16-state TAP FSM driven by TMS on each TCK, an instruction
// register, and a data-register stage selected by the current instruction.
// The test card (src/testcard) drives this controller the way a hardware
// probe would; higher GOOFI layers never touch TMS/TDI directly.
#pragma once

#include <cstdint>
#include <string>

#include "util/bitvec.hpp"

namespace goofi::scan {

/// The 16 standard TAP controller states.
enum class TapState : uint8_t {
  kTestLogicReset = 0,
  kRunTestIdle,
  kSelectDrScan,
  kCaptureDr,
  kShiftDr,
  kExit1Dr,
  kPauseDr,
  kExit2Dr,
  kUpdateDr,
  kSelectIrScan,
  kCaptureIr,
  kShiftIr,
  kExit1Ir,
  kPauseIr,
  kExit2Ir,
  kUpdateIr,
};

const char* TapStateName(TapState state);

/// Standard-ish instruction opcodes (4-bit IR).
enum class TapInstruction : uint8_t {
  kExtest = 0x0,   ///< boundary chain, drive pins
  kIdcode = 0x1,   ///< 32-bit device id
  kSample = 0x2,   ///< boundary chain, observe-only
  kIntest = 0x3,   ///< internal chain access
  kScanN = 0x4,    ///< select which internal chain SHIFT-DR addresses
  kBypass = 0xF,   ///< 1-bit bypass register
};

inline constexpr uint32_t kIrBits = 4;
inline constexpr uint32_t kIdcodeValue = 0x7D0A1D01;  ///< "Thor RD"-ish id

/// The TAP FSM plus instruction decode. The *data registers* themselves
/// (boundary/internal chains) are owned by ScanController, which implements
/// the capture/shift/update callbacks this class invokes.
class TapController {
 public:
  class DrHandler {
   public:
    virtual ~DrHandler() = default;
    /// Returns the length of the currently selected data register.
    virtual uint32_t DrLength(TapInstruction instruction) = 0;
    /// Loads the selected register's current value into the shift stage.
    virtual util::BitVec CaptureDr(TapInstruction instruction) = 0;
    /// Commits the shifted-in value to the selected register.
    virtual void UpdateDr(TapInstruction instruction, const util::BitVec& value) = 0;
  };

  explicit TapController(DrHandler* handler) : handler_(handler) {}

  TapState state() const { return state_; }
  TapInstruction instruction() const { return instruction_; }

  /// One TCK rising edge with the given TMS/TDI. Returns TDO (valid when the
  /// controller was in a Shift state during this clock).
  bool Clock(bool tms, bool tdi);

  /// Convenience: five TMS=1 clocks — guaranteed Test-Logic-Reset.
  void Reset();

  // --- host-side helper sequences (what a JTAG probe library provides) ----

  /// Navigates from Run-Test/Idle through IR scan to load `instruction`.
  void LoadInstruction(TapInstruction instruction);

  /// Navigates through DR scan, shifting `out` in while capturing the
  /// previous register contents; returns the captured (shifted-out) bits.
  /// Length is taken from the current instruction's register; TDI is 0 past
  /// the end of `out` (an empty `out` shifts zeros, and a noisy link can
  /// select a longer chain than the image the host sends). The first
  /// length-1 bits move as words rather than one Clock each; TDO, the
  /// register, the FSM and tck_count() end exactly as with per-bit clocking.
  util::BitVec ShiftData(const util::BitVec& out);

  /// Like ShiftData but writes the captured bits into `*captured` (resized
  /// to the register length). Lets hot per-instruction capture loops reuse
  /// one buffer instead of allocating a BitVec per shift.
  void ShiftDataInto(const util::BitVec& out, util::BitVec* captured);

  /// Number of TCK cycles issued since construction (scan-time accounting
  /// for the benches: scan cost is proportional to chain length).
  uint64_t tck_count() const { return tck_count_; }

  /// Controller state for checkpointing: FSM state, current instruction,
  /// both shift stages and the TCK counter.
  ///
  /// Deliberately *not* covered by the convergence hash
  /// (SimTestCard::HashTargetState): every scan operation begins with
  /// LoadInstruction, which accepts both legal parked states (kRunTestIdle /
  /// kTestLogicReset) and navigates deterministically from either, so a
  /// never-scanned golden TAP and a post-injection faulty TAP are
  /// operationally equivalent even though their Snapshots differ.
  struct Snapshot {
    TapState state = TapState::kTestLogicReset;
    TapInstruction instruction = TapInstruction::kIdcode;
    util::BitVec ir_shift;
    util::BitVec dr_shift;
    uint32_t shift_pos = 0;
    uint64_t tck_count = 0;
  };

  Snapshot SaveSnapshot() const {
    return {state_, instruction_, ir_shift_, dr_shift_, shift_pos_, tck_count_};
  }
  void RestoreSnapshot(const Snapshot& snapshot) {
    state_ = snapshot.state;
    instruction_ = snapshot.instruction;
    ir_shift_ = snapshot.ir_shift;
    dr_shift_ = snapshot.dr_shift;
    shift_pos_ = snapshot.shift_pos;
    tck_count_ = snapshot.tck_count;
  }

 private:
  void EnterState(TapState next);

  DrHandler* handler_;
  TapState state_ = TapState::kTestLogicReset;
  TapInstruction instruction_ = TapInstruction::kIdcode;

  util::BitVec ir_shift_;
  util::BitVec dr_shift_;
  uint32_t shift_pos_ = 0;
  uint64_t tck_count_ = 0;
};

}  // namespace goofi::scan
