#include "scan/tap.hpp"

#include <algorithm>
#include <cassert>

namespace goofi::scan {

const char* TapStateName(TapState state) {
  switch (state) {
    case TapState::kTestLogicReset:
      return "Test-Logic-Reset";
    case TapState::kRunTestIdle:
      return "Run-Test/Idle";
    case TapState::kSelectDrScan:
      return "Select-DR-Scan";
    case TapState::kCaptureDr:
      return "Capture-DR";
    case TapState::kShiftDr:
      return "Shift-DR";
    case TapState::kExit1Dr:
      return "Exit1-DR";
    case TapState::kPauseDr:
      return "Pause-DR";
    case TapState::kExit2Dr:
      return "Exit2-DR";
    case TapState::kUpdateDr:
      return "Update-DR";
    case TapState::kSelectIrScan:
      return "Select-IR-Scan";
    case TapState::kCaptureIr:
      return "Capture-IR";
    case TapState::kShiftIr:
      return "Shift-IR";
    case TapState::kExit1Ir:
      return "Exit1-IR";
    case TapState::kPauseIr:
      return "Pause-IR";
    case TapState::kExit2Ir:
      return "Exit2-IR";
    case TapState::kUpdateIr:
      return "Update-IR";
  }
  return "?";
}

namespace {
/// The standard TAP next-state function: kNext[state][tms].
constexpr TapState kNext[16][2] = {
    /*TestLogicReset*/ {TapState::kRunTestIdle, TapState::kTestLogicReset},
    /*RunTestIdle*/ {TapState::kRunTestIdle, TapState::kSelectDrScan},
    /*SelectDrScan*/ {TapState::kCaptureDr, TapState::kSelectIrScan},
    /*CaptureDr*/ {TapState::kShiftDr, TapState::kExit1Dr},
    /*ShiftDr*/ {TapState::kShiftDr, TapState::kExit1Dr},
    /*Exit1Dr*/ {TapState::kPauseDr, TapState::kUpdateDr},
    /*PauseDr*/ {TapState::kPauseDr, TapState::kExit2Dr},
    /*Exit2Dr*/ {TapState::kShiftDr, TapState::kUpdateDr},
    /*UpdateDr*/ {TapState::kRunTestIdle, TapState::kSelectDrScan},
    /*SelectIrScan*/ {TapState::kCaptureIr, TapState::kTestLogicReset},
    /*CaptureIr*/ {TapState::kShiftIr, TapState::kExit1Ir},
    /*ShiftIr*/ {TapState::kShiftIr, TapState::kExit1Ir},
    /*Exit1Ir*/ {TapState::kPauseIr, TapState::kUpdateIr},
    /*PauseIr*/ {TapState::kPauseIr, TapState::kExit2Ir},
    /*Exit2Ir*/ {TapState::kShiftIr, TapState::kUpdateIr},
    /*UpdateIr*/ {TapState::kRunTestIdle, TapState::kSelectDrScan},
};
}  // namespace

void TapController::EnterState(TapState next) {
  switch (next) {
    case TapState::kTestLogicReset:
      instruction_ = TapInstruction::kIdcode;
      break;
    case TapState::kCaptureIr:
      // Standard mandates capturing ...01 into the IR shift stage.
      ir_shift_ = util::BitVec(kIrBits);
      ir_shift_.Set(0, true);
      shift_pos_ = 0;
      break;
    case TapState::kCaptureDr:
      dr_shift_ = handler_->CaptureDr(instruction_);
      shift_pos_ = 0;
      break;
    case TapState::kUpdateIr: {
      instruction_ =
          static_cast<TapInstruction>(ir_shift_.ExtractWord(0, kIrBits));
      break;
    }
    case TapState::kUpdateDr:
      handler_->UpdateDr(instruction_, dr_shift_);
      break;
    default:
      break;
  }
  state_ = next;
}

bool TapController::Clock(bool tms, bool tdi) {
  ++tck_count_;
  bool tdo = false;
  // Shifting happens on the clock while *in* a Shift state; the shift stage
  // here uses a position pointer, which is exactly equivalent to a physical
  // shift register when a register is shifted for its full length (the only
  // access pattern the test card uses).
  if (state_ == TapState::kShiftDr) {
    if (shift_pos_ < dr_shift_.size()) {
      tdo = dr_shift_.Get(shift_pos_);
      dr_shift_.Set(shift_pos_, tdi);
      ++shift_pos_;
    }
  } else if (state_ == TapState::kShiftIr) {
    if (shift_pos_ < ir_shift_.size()) {
      tdo = ir_shift_.Get(shift_pos_);
      ir_shift_.Set(shift_pos_, tdi);
      ++shift_pos_;
    }
  }
  EnterState(kNext[static_cast<int>(state_)][tms ? 1 : 0]);
  return tdo;
}

void TapController::Reset() {
  for (int i = 0; i < 5; ++i) Clock(true, false);
  // Settle in Run-Test/Idle.
  Clock(false, false);
}

void TapController::LoadInstruction(TapInstruction instruction) {
  assert(state_ == TapState::kRunTestIdle || state_ == TapState::kTestLogicReset);
  if (state_ == TapState::kTestLogicReset) Clock(false, false);
  // Run-Test/Idle -> Select-DR -> Select-IR -> Capture-IR -> Shift-IR.
  Clock(true, false);
  Clock(true, false);
  Clock(false, false);
  Clock(false, false);
  const uint8_t bits = static_cast<uint8_t>(instruction);
  for (uint32_t i = 0; i < kIrBits; ++i) {
    // Last bit is shifted on the transition out of Shift-IR (TMS=1).
    const bool tms = (i == kIrBits - 1);
    Clock(tms, (bits >> i) & 1u);
  }
  // Exit1-IR -> Update-IR -> Run-Test/Idle.
  Clock(true, false);
  Clock(false, false);
}

util::BitVec TapController::ShiftData(const util::BitVec& out) {
  util::BitVec captured;
  ShiftDataInto(out, &captured);
  return captured;
}

void TapController::ShiftDataInto(const util::BitVec& out,
                                  util::BitVec* captured) {
  assert(state_ == TapState::kRunTestIdle);
  const uint32_t length = handler_->DrLength(instruction_);
  // Run-Test/Idle -> Select-DR -> Capture-DR -> Shift-DR.
  Clock(true, false);
  Clock(false, false);
  Clock(false, false);
  captured->ResizeZero(length);
  if (length > 0) {
    // Capture-DR left shift_pos_ at 0. The first length-1 clocks have TMS=0,
    // so the FSM stays in Shift-DR and clock i only swaps TDI bit i for TDO
    // bit i of the stage (zero past the stage's end). Move those bits as
    // words, and count every clock.
    assert(state_ == TapState::kShiftDr && shift_pos_ == 0);
    const uint32_t bulk = length - 1;
    const size_t live = std::min<size_t>(bulk, dr_shift_.size());
    for (size_t i = 0; i < live; i += 64) {
      const size_t bits = std::min<size_t>(64, live - i);
      const uint64_t tdi =
          i < out.size() ? out.ExtractWord(i, std::min(bits, out.size() - i))
                         : 0;
      captured->DepositWord(i, dr_shift_.ExtractWord(i, bits), bits);
      dr_shift_.DepositWord(i, tdi, bits);
    }
    shift_pos_ = static_cast<uint32_t>(live);
    tck_count_ += bulk;
    // The last bit is shifted on the transition out of Shift-DR (TMS=1).
    captured->Set(bulk, Clock(true, bulk < out.size() && out.Get(bulk)));
  }
  // Exit1-DR -> Update-DR -> Run-Test/Idle.
  Clock(true, false);
  Clock(false, false);
}

}  // namespace goofi::scan
