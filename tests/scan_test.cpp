// Tests for the IEEE 1149.1 TAP controller, scan chains and the debug unit.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "cpu/cpu.hpp"
#include "isa/assembler.hpp"
#include "scan/chain.hpp"
#include "scan/debug.hpp"
#include "scan/tap.hpp"
#include "util/rng.hpp"

namespace goofi::scan {
namespace {

// --- TAP FSM -------------------------------------------------------------

/// Minimal DR handler: one 8-bit register.
class FakeDr : public TapController::DrHandler {
 public:
  uint32_t DrLength(TapInstruction) override { return 8; }
  util::BitVec CaptureDr(TapInstruction) override {
    util::BitVec bits(8);
    bits.DepositWord(0, value, 8);
    return bits;
  }
  void UpdateDr(TapInstruction, const util::BitVec& image) override {
    value = static_cast<uint8_t>(image.ExtractWord(0, 8));
    ++updates;
  }
  uint8_t value = 0;
  int updates = 0;
};

TEST(TapTest, FiveTmsOnesAlwaysReachTestLogicReset) {
  FakeDr dr;
  TapController tap(&dr);
  // Wander into a few states first.
  tap.Clock(false, false);
  tap.Clock(true, false);
  tap.Clock(false, false);
  for (int i = 0; i < 5; ++i) tap.Clock(true, false);
  EXPECT_EQ(tap.state(), TapState::kTestLogicReset);
}

TEST(TapTest, ResetLandsInRunTestIdle) {
  FakeDr dr;
  TapController tap(&dr);
  tap.Reset();
  EXPECT_EQ(tap.state(), TapState::kRunTestIdle);
  EXPECT_EQ(tap.instruction(), TapInstruction::kIdcode);
}

TEST(TapTest, CanonicalDrScanPath) {
  FakeDr dr;
  TapController tap(&dr);
  tap.Reset();
  tap.Clock(true, false);
  EXPECT_EQ(tap.state(), TapState::kSelectDrScan);
  tap.Clock(false, false);
  EXPECT_EQ(tap.state(), TapState::kCaptureDr);
  tap.Clock(false, false);
  EXPECT_EQ(tap.state(), TapState::kShiftDr);
  tap.Clock(true, false);
  EXPECT_EQ(tap.state(), TapState::kExit1Dr);
  tap.Clock(false, false);
  EXPECT_EQ(tap.state(), TapState::kPauseDr);
  tap.Clock(true, false);
  EXPECT_EQ(tap.state(), TapState::kExit2Dr);
  tap.Clock(false, false);
  EXPECT_EQ(tap.state(), TapState::kShiftDr);
  tap.Clock(true, false);
  tap.Clock(true, false);
  EXPECT_EQ(tap.state(), TapState::kUpdateDr);
  tap.Clock(false, false);
  EXPECT_EQ(tap.state(), TapState::kRunTestIdle);
}

TEST(TapTest, IrScanPathLoadsInstruction) {
  FakeDr dr;
  TapController tap(&dr);
  tap.Reset();
  tap.LoadInstruction(TapInstruction::kIntest);
  EXPECT_EQ(tap.state(), TapState::kRunTestIdle);
  EXPECT_EQ(tap.instruction(), TapInstruction::kIntest);
  tap.LoadInstruction(TapInstruction::kBypass);
  EXPECT_EQ(tap.instruction(), TapInstruction::kBypass);
}

TEST(TapTest, TestLogicResetRestoresIdcode) {
  FakeDr dr;
  TapController tap(&dr);
  tap.Reset();
  tap.LoadInstruction(TapInstruction::kIntest);
  for (int i = 0; i < 5; ++i) tap.Clock(true, false);
  EXPECT_EQ(tap.instruction(), TapInstruction::kIdcode);
}

TEST(TapTest, ShiftDataExchangesRegisterContents) {
  FakeDr dr;
  dr.value = 0xA5;
  TapController tap(&dr);
  tap.Reset();
  tap.LoadInstruction(TapInstruction::kIntest);
  util::BitVec in(8);
  in.DepositWord(0, 0x3C, 8);
  const util::BitVec captured = tap.ShiftData(in);
  EXPECT_EQ(captured.ExtractWord(0, 8), 0xA5u);
  EXPECT_EQ(dr.value, 0x3C);
  EXPECT_EQ(dr.updates, 1);
}

TEST(TapTest, TckCountGrowsWithTraffic) {
  FakeDr dr;
  TapController tap(&dr);
  tap.Reset();
  const uint64_t before = tap.tck_count();
  tap.LoadInstruction(TapInstruction::kIntest);
  tap.ShiftData(util::BitVec(8));
  EXPECT_GT(tap.tck_count(), before + 8);
}

// --- scan chains over a CPU -----------------------------------------------

class ChainTest : public ::testing::Test {
 protected:
  ChainTest() : registry_(cpu_.BuildStateRegistry()) {
    chains_ = ScanChainSet::BuildDefault(registry_);
  }
  cpu::Cpu cpu_;
  cpu::StateRegistry registry_;
  ScanChainSet chains_;
};

TEST_F(ChainTest, DefaultLayoutHasFiveChains) {
  EXPECT_EQ(chains_.chains().size(), 5u);
  EXPECT_NE(chains_.Find("boundary"), nullptr);
  EXPECT_NE(chains_.Find("internal_core"), nullptr);
  EXPECT_NE(chains_.Find("internal_regfile"), nullptr);
  EXPECT_NE(chains_.Find("internal_icache"), nullptr);
  EXPECT_NE(chains_.Find("internal_dcache"), nullptr);
  EXPECT_EQ(chains_.Find("nope"), nullptr);
  EXPECT_EQ(chains_.IndexOf("boundary"), 0);
  EXPECT_EQ(chains_.IndexOf("nope"), -1);
}

TEST_F(ChainTest, RegfileChainIs512Bits) {
  EXPECT_EQ(chains_.Find("internal_regfile")->length_bits(), 16u * 32u);
}

TEST_F(ChainTest, CaptureReflectsCpuState) {
  cpu_.Reset(0);
  cpu_.set_reg(3, 0xCAFEBABE);
  const ScanChain* chain = chains_.Find("internal_regfile");
  const util::BitVec image = chain->Capture();
  const auto cell = chain->FindCell("regfile.r3").ValueOrDie();
  EXPECT_EQ(image.ExtractWord(cell.offset, cell.bits), 0xCAFEBABEu);
}

TEST_F(ChainTest, UpdateWritesWritableCells) {
  cpu_.Reset(0);
  const ScanChain* chain = chains_.Find("internal_regfile");
  util::BitVec image = chain->Capture();
  const auto cell = chain->FindCell("regfile.r7").ValueOrDie();
  image.DepositWord(cell.offset, 0x12345678u, cell.bits);
  chain->Update(image);
  EXPECT_EQ(cpu_.reg(7), 0x12345678u);
}

TEST_F(ChainTest, ReadOnlyCellsSurviveUpdate) {
  cpu_.Reset(0);
  cpu_.set_reg(1, 0xFF);
  const ScanChain* chain = chains_.Find("internal_regfile");
  util::BitVec image = chain->Capture();
  const auto r0 = chain->FindCell("regfile.r0").ValueOrDie();
  ASSERT_TRUE(r0.read_only);
  image.DepositWord(r0.offset, 0xFFFFFFFFu, r0.bits);
  chain->Update(image);
  EXPECT_EQ(cpu_.reg(0), 0u) << "read-only cell must not be written";
  EXPECT_EQ(cpu_.reg(1), 0xFFu);
}

TEST_F(ChainTest, CaptureUpdateIdentity) {
  cpu_.Reset(0);
  for (int r = 0; r < 16; ++r) cpu_.set_reg(r, 0x1000u + static_cast<uint32_t>(r));
  const ScanChain* chain = chains_.Find("internal_regfile");
  chain->Update(chain->Capture());
  for (int r = 1; r < 16; ++r) {
    EXPECT_EQ(cpu_.reg(r), 0x1000u + static_cast<uint32_t>(r));
  }
}

TEST_F(ChainTest, LocateMapsBitsToCells) {
  const ScanChain* chain = chains_.Find("internal_regfile");
  const auto location = chain->Locate(32 * 5 + 3);
  ASSERT_NE(location.cell, nullptr);
  EXPECT_EQ(location.cell->name, "regfile.r5");
  EXPECT_EQ(location.bit_in_cell, 3u);
}

TEST_F(ChainTest, FindCellMissingIsError) {
  const ScanChain* chain = chains_.Find("internal_regfile");
  EXPECT_FALSE(chain->FindCell("icache.line0.tag").ok());
}

TEST_F(ChainTest, TotalBitsMatchesRegistry) {
  EXPECT_EQ(chains_.TotalBits(), registry_.TotalBits());
}

TEST_F(ChainTest, CacheChainCoversAllLineFields) {
  const ScanChain* chain = chains_.Find("internal_icache");
  // 64 lines x (valid + tag + data + parity).
  EXPECT_EQ(chain->cells().size(), 64u * 4u);
}

// --- word-parallel ShiftDataInto vs. one Clock per bit -----------------------

/// ShiftDataInto as a JTAG probe clocks it: navigation, then one Clock per
/// register bit with TMS=1 on the last (TDI 0 past the end of `out`), then
/// Update-DR. The oracle for the word-parallel shift.
util::BitVec BitLoopShiftData(TapController* tap, uint32_t length,
                              const util::BitVec& out) {
  tap->Clock(true, false);
  tap->Clock(false, false);
  tap->Clock(false, false);
  util::BitVec captured(length);
  for (uint32_t i = 0; i < length; ++i) {
    const bool tms = (i == length - 1);
    const bool tdi = i < out.size() && out.Get(i);
    captured.Set(i, tap->Clock(tms, tdi));
  }
  tap->Clock(true, false);
  tap->Clock(false, false);
  return captured;
}

void ExpectSameTap(const TapController& actual, const TapController& expected) {
  const TapController::Snapshot a = actual.SaveSnapshot();
  const TapController::Snapshot e = expected.SaveSnapshot();
  EXPECT_EQ(a.state, e.state);
  EXPECT_EQ(a.instruction, e.instruction);
  EXPECT_EQ(a.ir_shift, e.ir_shift);
  EXPECT_EQ(a.dr_shift, e.dr_shift);
  EXPECT_EQ(a.shift_pos, e.shift_pos);
  EXPECT_EQ(a.tck_count, e.tck_count);
}

util::BitVec RandomBits(size_t size, util::Rng* rng) {
  util::BitVec bits(size);
  for (size_t i = 0; i < size; i += 64) {
    const size_t n = std::min<size_t>(64, size - i);
    bits.DepositWord(i, rng->Next(), n);
  }
  return bits;
}

/// A data register held as a bit vector. Its capture length may differ from
/// the length DrLength reports, which a handler is free to do.
class VectorDr : public TapController::DrHandler {
 public:
  VectorDr(uint32_t length, util::BitVec value)
      : length_(length), value_(std::move(value)) {}
  uint32_t DrLength(TapInstruction) override { return length_; }
  util::BitVec CaptureDr(TapInstruction) override { return value_; }
  void UpdateDr(TapInstruction, const util::BitVec& image) override {
    value_ = image;
    ++updates_;
  }
  const util::BitVec& value() const { return value_; }
  int updates() const { return updates_; }

 private:
  uint32_t length_;
  util::BitVec value_;
  int updates_ = 0;
};

TEST(TapWordShiftTest, MatchesBitLoopForRegisterLengths) {
  util::Rng rng(0x7A95);
  // {DrLength, capture length}: equal lengths around the word size, plus a
  // stage shorter and one longer than the register the TAP shifts.
  const std::pair<uint32_t, uint32_t> kShapes[] = {
      {1, 1}, {63, 63}, {64, 64}, {65, 65}, {512, 512},
      {100, 70}, {70, 100}, {130, 1}, {1, 130}};
  for (const auto& [length, stage] : kShapes) {
    SCOPED_TRACE("length " + std::to_string(length) + " stage " +
                 std::to_string(stage));
    const util::BitVec initial = RandomBits(stage, &rng);
    VectorDr word_dr(length, initial);
    VectorDr loop_dr(length, initial);
    TapController word_tap(&word_dr);
    TapController loop_tap(&loop_dr);
    word_tap.Reset();
    loop_tap.Reset();
    word_tap.LoadInstruction(TapInstruction::kIntest);
    loop_tap.LoadInstruction(TapInstruction::kIntest);
    // A reused capture buffer that starts larger and dirty. TDI: random,
    // zeros (an empty `out`), images shorter and longer than the register
    // (TDI is 0 past their end), then random again.
    util::BitVec captured = RandomBits(length + 77, &rng);
    const util::BitVec kZeros;
    for (const util::BitVec& out :
         {RandomBits(length, &rng), kZeros, RandomBits(length / 2 + 1, &rng),
          RandomBits(length + 70, &rng), RandomBits(length, &rng)}) {
      word_tap.ShiftDataInto(out, &captured);
      const util::BitVec expected = BitLoopShiftData(&loop_tap, length, out);
      EXPECT_EQ(captured, expected);
      ExpectSameTap(word_tap, loop_tap);
      EXPECT_EQ(word_dr.value(), loop_dr.value());
      EXPECT_EQ(word_dr.updates(), loop_dr.updates());
    }
  }
}

/// INTEST on one chain of a CPU's default layout.
class ChainDr : public TapController::DrHandler {
 public:
  explicit ChainDr(const ScanChain* chain) : chain_(chain) {}
  uint32_t DrLength(TapInstruction) override { return chain_->length_bits(); }
  util::BitVec CaptureDr(TapInstruction) override { return chain_->Capture(); }
  void UpdateDr(TapInstruction, const util::BitVec& image) override {
    chain_->Update(image);
  }

 private:
  const ScanChain* chain_;
};

/// A CPU with its own registry and default chains.
struct ChainRig {
  ChainRig()
      : registry(cpu.BuildStateRegistry()),
        chains(ScanChainSet::BuildDefault(registry)) {}
  cpu::Cpu cpu;
  cpu::StateRegistry registry;
  ScanChainSet chains;
};

TEST(TapWordShiftTest, MatchesBitLoopOnEveryDefaultChain) {
  util::Rng rng(0xC4A1);
  ChainRig word_rig;
  ChainRig loop_rig;
  ASSERT_EQ(word_rig.chains.chains().size(), 5u);
  for (size_t c = 0; c < word_rig.chains.chains().size(); ++c) {
    const ScanChain& word_chain = word_rig.chains.chains()[c];
    const ScanChain& loop_chain = loop_rig.chains.chains()[c];
    SCOPED_TRACE(word_chain.name());
    // Same random contents on both CPUs (read-only cells keep theirs).
    const util::BitVec seed_image = RandomBits(word_chain.length_bits(), &rng);
    word_chain.Update(seed_image);
    loop_chain.Update(seed_image);
    ChainDr word_dr(&word_chain);
    ChainDr loop_dr(&loop_chain);
    TapController word_tap(&word_dr);
    TapController loop_tap(&loop_dr);
    word_tap.Reset();
    loop_tap.Reset();
    word_tap.LoadInstruction(TapInstruction::kIntest);
    loop_tap.LoadInstruction(TapInstruction::kIntest);
    // A restoring read (zeros in, then the image back) and a write.
    util::BitVec captured;
    word_tap.ShiftDataInto(util::BitVec(word_chain.length_bits()), &captured);
    const util::BitVec image = BitLoopShiftData(
        &loop_tap, loop_chain.length_bits(),
        util::BitVec(loop_chain.length_bits()));
    EXPECT_EQ(captured, image);
    const util::BitVec restore = captured;
    word_tap.ShiftDataInto(restore, &captured);
    EXPECT_EQ(captured,
              BitLoopShiftData(&loop_tap, loop_chain.length_bits(), image));
    const util::BitVec write = RandomBits(word_chain.length_bits(), &rng);
    word_tap.ShiftDataInto(write, &captured);
    EXPECT_EQ(captured,
              BitLoopShiftData(&loop_tap, loop_chain.length_bits(), write));
    ExpectSameTap(word_tap, loop_tap);
    for (size_t k = 0; k < word_rig.chains.chains().size(); ++k) {
      EXPECT_EQ(word_rig.chains.chains()[k].Capture(),
                loop_rig.chains.chains()[k].Capture())
          << "chain " << word_rig.chains.chains()[k].name();
    }
  }
}

// --- debug unit / triggers --------------------------------------------------

class DebugTest : public ::testing::Test {
 protected:
  void Load(const std::string& source) {
    program_ = isa::Assemble(source).ValueOrDie();
    uint32_t text_bytes = 0;
    const auto etext = program_.symbols.find("_etext");
    if (etext != program_.symbols.end()) text_bytes = etext->second;
    ASSERT_TRUE(
        cpu_.LoadProgram(program_.base_address, program_.words, text_bytes).ok());
    cpu_.Reset(program_.entry);
  }
  cpu::Cpu cpu_;
  isa::AssembledProgram program_;
};

TEST_F(DebugTest, PcBreakpointFiresAtAddress) {
  Load(
      "  addi r1, r0, 1\n"
      "mark:\n"
      "  addi r2, r0, 2\n"
      "  halt\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kPcBreakpoint;
  trigger.address = program_.symbols.at("mark");
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  // The instruction at `mark` has executed when the comparator fires.
  EXPECT_EQ(cpu_.reg(2), 2u);
  EXPECT_FALSE(cpu_.halted());
}

TEST_F(DebugTest, PcBreakpointOccurrenceCountsLoopIterations) {
  Load(
      "  addi r1, r0, 0\n"
      "loop:\n"
      "  addi r1, r1, 1\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kPcBreakpoint;
  trigger.address = program_.symbols.at("loop");
  trigger.occurrence = 5;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_EQ(cpu_.reg(1), 5u);
}

TEST_F(DebugTest, InstrCountTrigger) {
  Load(
      "loop:\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kInstrCount;
  trigger.count = 7;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_EQ(cpu_.instructions_retired(), 7u);
}

TEST_F(DebugTest, CycleCountTriggerActsAsRealTimeClock) {
  Load(
      "loop:\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kCycleCount;
  trigger.count = 100;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_GE(cpu_.cycles(), 100u);
}

TEST_F(DebugTest, DataAccessTriggerSeesLoadsAndStores) {
  Load(
      "_start:\n"
      "  li r1, target\n"
      "  addi r2, r0, 5\n"
      "  stw r2, [r1]\n"
      "  halt\n"
      "_etext:\n"
      "target:\n"
      "  .word 0\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kDataAccess;
  trigger.address = program_.symbols.at("target");
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_FALSE(cpu_.halted());
}

TEST_F(DebugTest, DataValueTriggerMatchesMovedValue) {
  Load(
      "_start:\n"
      "  li r1, slot\n"
      "  li r2, 0xBEEF\n"
      "  stw r2, [r1]\n"
      "  halt\n"
      "_etext:\n"
      "slot:\n"
      "  .word 0\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kDataValue;
  trigger.value = 0xBEEF;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
}

TEST_F(DebugTest, BranchTriggerFiresOnFirstBranch) {
  Load(
      "  addi r1, r0, 1\n"
      "  addi r2, r0, 1\n"
      "  beq r1, r2, done\n"
      "done:\n"
      "  halt\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kBranch;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_EQ(cpu_.instructions_retired(), 3u);
}

TEST_F(DebugTest, CallTriggerFiresOnJal) {
  Load(
      "_start:\n"
      "  nop\n"
      "  call fn\n"
      "  halt\n"
      "fn:\n"
      "  ret\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kCall;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_EQ(cpu_.instructions_retired(), 2u);
}

TEST_F(DebugTest, TerminationWithoutTriggers) {
  Load("halt\n");
  DebugUnit debug(&cpu_);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, -1);
  EXPECT_EQ(result.outcome, cpu::StepOutcome::kHalted);
}

TEST_F(DebugTest, TimeoutReported) {
  Load(
      "loop:\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  const DebugRunResult result = debug.RunUntilEvent(500);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.outcome, cpu::StepOutcome::kOk);
}

TEST_F(DebugTest, FirstMatchingTriggerWins) {
  Load(
      "loop:\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  Trigger a;
  a.kind = TriggerKind::kInstrCount;
  a.count = 3;
  Trigger b;
  b.kind = TriggerKind::kInstrCount;
  b.count = 3;
  debug.AddTrigger(a);
  debug.AddTrigger(b);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
}

TEST_F(DebugTest, ResetCountersClearsOccurrences) {
  Load(
      "loop:\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kPcBreakpoint;
  trigger.address = 0;
  trigger.occurrence = 3;
  debug.AddTrigger(trigger);
  (void)debug.RunUntilEvent(0);
  const uint64_t first = cpu_.instructions_retired();
  cpu_.Reset(0);
  debug.ResetCounters();
  (void)debug.RunUntilEvent(0);
  EXPECT_EQ(cpu_.instructions_retired(), first) << "same occurrence semantics";
}

TEST(TriggerTest, DescribeIsHumanReadable) {
  Trigger trigger;
  trigger.kind = TriggerKind::kDataAccess;
  trigger.address = 0xF000;
  EXPECT_NE(trigger.Describe().find("f000"), std::string::npos);
  EXPECT_STREQ(TriggerKindName(TriggerKind::kBranch), "branch");
}

}  // namespace
}  // namespace goofi::scan
