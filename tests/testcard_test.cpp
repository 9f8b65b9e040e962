// Tests for the simulated test card: the host<->target adapter that routes
// all scan access through the TAP controller.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/goofi.hpp"
#include "cpu/state_hash.hpp"
#include "db/database.hpp"
#include "env/workloads.hpp"
#include "isa/assembler.hpp"
#include "testcard/testcard.hpp"

namespace goofi::testcard {
namespace {

isa::AssembledProgram Program(const std::string& source) {
  return isa::Assemble(source).ValueOrDie();
}

class TestCardTest : public ::testing::Test {
 protected:
  SimTestCard card_;
};

TEST_F(TestCardTest, InitPowersDownCleanly) {
  ASSERT_TRUE(card_.Init().ok());
  EXPECT_FALSE(card_.cpu().halted());
  EXPECT_EQ(card_.cpu().cycles(), 0u);
}

TEST_F(TestCardTest, LoadWorkloadAndRunToCompletion) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.LoadWorkload(Program("addi r1, r0, 3\nhalt\n")).ok());
  ASSERT_TRUE(card_.ResetTarget().ok());
  const auto result = card_.Run(0);
  EXPECT_EQ(result.outcome, cpu::StepOutcome::kHalted);
  EXPECT_EQ(card_.cpu().reg(1), 3u);
}

TEST_F(TestCardTest, EtextSplitsTextAndData) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.LoadWorkload(Program(
                      "_start:\n"
                      "  li r1, buf\n"
                      "  stw r1, [r1]\n"
                      "  halt\n"
                      "_etext:\n"
                      "buf:\n"
                      "  .word 0\n"))
                  .ok());
  ASSERT_TRUE(card_.ResetTarget().ok());
  EXPECT_EQ(card_.Run(0).outcome, cpu::StepOutcome::kHalted)
      << "data segment must be writable";
}

TEST_F(TestCardTest, HostMemoryRoundTrip) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.WriteMemory(0x1000, {1, 2, 3}).ok());
  const auto words = card_.ReadMemory(0x1000, 3).ValueOrDie();
  EXPECT_EQ(words, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_FALSE(card_.ReadMemory(0xFFFFFFF0, 8).ok());
  EXPECT_FALSE(card_.WriteMemory(3, {1}).ok());
}

TEST_F(TestCardTest, ReadScanChainReturnsCpuState) {
  ASSERT_TRUE(card_.Init().ok());
  card_.mutable_cpu().set_reg(4, 0xDEAD);
  const auto image = card_.ReadScanChain("internal_regfile", true).ValueOrDie();
  EXPECT_EQ(image.ExtractWord(4 * 32, 32), 0xDEADu);
}

TEST_F(TestCardTest, RestoringReadPreservesState) {
  ASSERT_TRUE(card_.Init().ok());
  card_.mutable_cpu().set_reg(9, 0x1234);
  (void)card_.ReadScanChain("internal_regfile", true).ValueOrDie();
  EXPECT_EQ(card_.cpu().reg(9), 0x1234u);
}

TEST_F(TestCardTest, DestructiveReadZeroesWritableCells) {
  ASSERT_TRUE(card_.Init().ok());
  card_.mutable_cpu().set_reg(9, 0x1234);
  (void)card_.ReadScanChain("internal_regfile", false).ValueOrDie();
  // The read pass shifted zeros in; the follow-up WriteScanChain in the
  // SCIFI sequence is what restores state.
  EXPECT_EQ(card_.cpu().reg(9), 0u);
}

TEST_F(TestCardTest, ReadModifyWriteInjectsFault) {
  ASSERT_TRUE(card_.Init().ok());
  card_.mutable_cpu().set_reg(5, 0b1000);
  auto image = card_.ReadScanChain("internal_regfile", false).ValueOrDie();
  image.Flip(5 * 32 + 0);  // flip bit 0 of r5
  ASSERT_TRUE(card_.WriteScanChain("internal_regfile", image).ok());
  EXPECT_EQ(card_.cpu().reg(5), 0b1001u);
}

TEST_F(TestCardTest, UnknownChainErrors) {
  ASSERT_TRUE(card_.Init().ok());
  EXPECT_FALSE(card_.ReadScanChain("bogus", true).ok());
  EXPECT_FALSE(card_.WriteScanChain("bogus", util::BitVec(8)).ok());
}

TEST_F(TestCardTest, WriteScanChainChecksImageSize) {
  ASSERT_TRUE(card_.Init().ok());
  EXPECT_FALSE(card_.WriteScanChain("internal_regfile", util::BitVec(7)).ok());
}

TEST_F(TestCardTest, TriggersRunThroughDebugUnit) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.LoadWorkload(Program(
                      "loop:\n"
                      "  jmp loop\n"))
                  .ok());
  ASSERT_TRUE(card_.ResetTarget().ok());
  scan::Trigger trigger;
  trigger.kind = scan::TriggerKind::kInstrCount;
  trigger.count = 5;
  const int index = card_.AddTrigger(trigger);
  const auto result = card_.Run(0);
  EXPECT_EQ(result.fired_trigger, index);
  card_.ClearTriggers();
  const auto timeout = card_.Run(200);
  EXPECT_TRUE(timeout.timed_out);
}

TEST_F(TestCardTest, SingleStepExecutesOneInstruction) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.LoadWorkload(Program("addi r1, r0, 1\nhalt\n")).ok());
  ASSERT_TRUE(card_.ResetTarget().ok());
  EXPECT_EQ(card_.SingleStep(), cpu::StepOutcome::kOk);
  EXPECT_EQ(card_.cpu().instructions_retired(), 1u);
  EXPECT_EQ(card_.SingleStep(), cpu::StepOutcome::kHalted);
}

TEST_F(TestCardTest, LinkTimeGrowsWithScanTraffic) {
  ASSERT_TRUE(card_.Init().ok());
  const double before = card_.link_time_us();
  (void)card_.ReadScanChain("internal_regfile", true).ValueOrDie();
  const double after_small = card_.link_time_us();
  EXPECT_GT(after_small, before);
  (void)card_.ReadScanChain("internal_icache", true).ValueOrDie();
  const double after_large = card_.link_time_us();
  // The icache chain is much longer than the regfile chain.
  EXPECT_GT(after_large - after_small, (after_small - before) * 2);
}

TEST_F(TestCardTest, WorkloadEntryFollowsStartSymbol) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.LoadWorkload(Program(
                      ".word 0\n"
                      "_start:\n"
                      "  halt\n"))
                  .ok());
  EXPECT_EQ(card_.workload_entry(), 4u);
}

// --- buffered host reads ---------------------------------------------------------

TEST(BufferedReadTest, ReadMemoryIntoMatchesReadMemory) {
  // Two cards driven alike, one reading through ReadMemory and one through
  // ReadMemoryInto into a reused buffer: the same words, the same status on
  // every failure, the same link time after every read.
  SimTestCard vector_card;
  SimTestCard buffer_card;
  for (SimTestCard* card : {&vector_card, &buffer_card}) {
    ASSERT_TRUE(card->Init().ok());
    ASSERT_TRUE(card->WriteMemory(0x2000, {7, 8, 9, 10}).ok());
  }
  struct Read {
    uint32_t address;
    uint32_t words;
  };
  std::vector<uint32_t> buffer(5, 0xFFFFFFFFu);  // not the size of any read
  for (const Read& read :
       {Read{0x2000, 4}, Read{0x2004, 2}, Read{0x2000, 0}, Read{0x2008, 1},
        Read{0xFFFFFFF0, 8}, Read{0x2002, 1}, Read{0x2000, 3}}) {
    SCOPED_TRACE(read.address);
    const auto expected = vector_card.ReadMemory(read.address, read.words);
    const util::Status got =
        buffer_card.ReadMemoryInto(read.address, read.words, &buffer);
    EXPECT_EQ(got.code(), expected.status().code());
    EXPECT_EQ(got.message(), expected.status().message());
    if (expected.ok()) {
      EXPECT_EQ(buffer, expected.value());
      for (uint32_t i = 0; i < read.words; ++i) {
        EXPECT_EQ(buffer[i], buffer_card.cpu()
                                 .memory()
                                 .HostRead(read.address + i * 4)
                                 .ValueOrDie());
      }
    }
    EXPECT_EQ(buffer_card.link_time_us(), vector_card.link_time_us());
  }
  EXPECT_EQ(vector_card.ReadMemory(0xFFFFFFF0, 8).status().code(),
            util::StatusCode::kOutOfRange);
}

/// Forwards every call to a SimTestCard and counts ReadMemory calls. Like an
/// instrumenting card, it overrides ReadMemory but not ReadMemoryInto.
class ReadCountingCard final : public TestCard {
 public:
  int reads() const { return reads_; }

  util::Status Init() override { return inner_.Init(); }
  util::Status LoadWorkload(const isa::AssembledProgram& program) override {
    return inner_.LoadWorkload(program);
  }
  util::Status ResetTarget() override { return inner_.ResetTarget(); }
  util::Status WriteMemory(uint32_t address,
                           const std::vector<uint32_t>& words) override {
    return inner_.WriteMemory(address, words);
  }
  util::Result<std::vector<uint32_t>> ReadMemory(uint32_t address,
                                                 uint32_t num_words) override {
    ++reads_;
    return inner_.ReadMemory(address, num_words);
  }
  int AddTrigger(const scan::Trigger& trigger) override {
    return inner_.AddTrigger(trigger);
  }
  void ClearTriggers() override { inner_.ClearTriggers(); }
  scan::DebugRunResult Run(uint64_t max_cycles) override {
    return inner_.Run(max_cycles);
  }
  cpu::StepOutcome SingleStep() override { return inner_.SingleStep(); }
  util::Result<util::BitVec> ReadScanChain(const std::string& chain,
                                           bool restore) override {
    return inner_.ReadScanChain(chain, restore);
  }
  util::Status WriteScanChain(const std::string& chain,
                              const util::BitVec& image) override {
    return inner_.WriteScanChain(chain, image);
  }
  util::Status MarkMemoryBaseline() override {
    return inner_.MarkMemoryBaseline();
  }
  const scan::ScanChainSet& chains() const override { return inner_.chains(); }
  const cpu::Cpu& cpu() const override { return inner_.cpu(); }
  cpu::Cpu& mutable_cpu() override { return inner_.mutable_cpu(); }
  double link_time_us() const override { return inner_.link_time_us(); }

 private:
  SimTestCard inner_;
  int reads_ = 0;
};

TEST(BufferedReadTest, ACardOverridingOnlyReadMemorySeesEveryIterationRead) {
  db::Database db;
  core::CampaignStore store(&db);
  ReadCountingCard card;
  ASSERT_TRUE(store
                  .PutTargetSystem(core::ThorRdTarget::DescribeTarget(
                      card, core::ThorRdTarget::kTargetName))
                  .ok());
  core::CampaignData campaign;
  campaign.name = "reads";
  campaign.target_name = core::ThorRdTarget::kTargetName;
  campaign.technique = core::Technique::kScifi;
  campaign.workload = "pendulum_pd";
  campaign.locations = {{"internal_regfile", ""}};
  campaign.num_experiments = 6;
  campaign.max_iterations = 40;
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 400;
  campaign.timeout_cycles = 200000;
  ASSERT_TRUE(store.PutCampaign(campaign).ok());
  core::ThorRdTarget target(&store, &card);
  target.SetCheckpointInterval(0);  // no golden pass: experiments only
  ASSERT_TRUE(target.RunCampaign(campaign.name).ok());

  // A control workload's only host reads are the actuator reads, one per
  // serviced loop iteration.
  const auto rows = store.ExperimentsOf(campaign.name).ValueOrDie();
  ASSERT_EQ(rows.size(), static_cast<size_t>(campaign.num_experiments + 1));
  int iterations = 0;
  for (const core::CampaignStore::ExperimentRow& row : rows) {
    iterations += row.state.iterations;
  }
  EXPECT_GE(iterations, campaign.max_iterations);
  EXPECT_EQ(card.reads(), iterations);
}

TEST(TestCardNoiseTest, BitErrorsCorruptScanTraffic) {
  LinkConfig link;
  link.bit_error_rate = 0.02;
  SimTestCard card(cpu::CpuConfig(), link);
  ASSERT_TRUE(card.Init().ok());
  for (int r = 1; r < 16; ++r) {
    card.mutable_cpu().set_reg(r, 0xAAAA5555u);
  }
  const auto image = card.ReadScanChain("internal_regfile", false).ValueOrDie();
  // With a 2% BER over 512 bits, corruption is overwhelmingly likely.
  util::BitVec expected(16 * 32);
  for (int r = 1; r < 16; ++r) {
    expected.DepositWord(static_cast<size_t>(r) * 32, 0xAAAA5555u, 32);
  }
  EXPECT_NE(image, expected);
}

TEST(TestCardNoiseTest, CleanLinkIsExact) {
  SimTestCard card;  // default: BER 0
  ASSERT_TRUE(card.Init().ok());
  for (int r = 1; r < 16; ++r) {
    card.mutable_cpu().set_reg(r, 0x0F0F0F0Fu);
  }
  const auto image = card.ReadScanChain("internal_regfile", true).ValueOrDie();
  for (int r = 1; r < 16; ++r) {
    EXPECT_EQ(image.ExtractWord(static_cast<size_t>(r) * 32, 32), 0x0F0F0F0Fu);
  }
}

// --- word-parallel scan link vs. one Clock per bit ---------------------------

/// SimTestCard's scan reads with every data-register bit clocked through
/// TapController::Clock: SCAN_N chain select, INTEST, the card's
/// data-register semantics (decode-cache flush on internal_icache updates)
/// and its link-noise draws. It drives another card's CPU, so both sides
/// start from the same target state. The oracle for the card's word shifts.
class BitLoopLink : private scan::TapController::DrHandler {
 public:
  /// `extra_us`: the op overheads the card has accounted so far.
  BitLoopLink(cpu::Cpu* cpu, const LinkConfig& link, double extra_us)
      : cpu_(cpu),
        registry_(cpu->BuildStateRegistry()),
        chains_(scan::ScanChainSet::BuildDefault(registry_)),
        tap_(this),
        link_(link),
        noise_(link.noise_seed),
        extra_us_(extra_us) {
    tap_.Reset();  // as SimTestCard::Init
  }

  util::BitVec Read(const std::string& chain, bool restore) {
    const int index = chains_.IndexOf(chain);
    extra_us_ += link_.op_overhead_us;
    tap_.LoadInstruction(scan::TapInstruction::kScanN);
    util::BitVec select(SelectBits());
    select.DepositWord(0, static_cast<uint32_t>(index), select.size());
    Shift(select);
    tap_.LoadInstruction(scan::TapInstruction::kIntest);
    const util::BitVec image = Shift(
        util::BitVec(chains_.chains()[static_cast<size_t>(index)].length_bits()));
    if (restore) Shift(image);
    return image;
  }

  double link_time_us() const {
    return extra_us_ + static_cast<double>(tap_.tck_count()) / link_.tck_mhz;
  }
  const scan::TapController& tap() const { return tap_; }
  const util::Rng& noise() const { return noise_; }
  uint32_t chain_select() const { return chain_select_; }

 private:
  uint32_t SelectBits() const {
    uint32_t bits = 1;
    while ((1u << bits) < chains_.chains().size()) ++bits;
    return bits;
  }

  const scan::ScanChain* SelectedChain() const {
    return chain_select_ < chains_.chains().size()
               ? &chains_.chains()[chain_select_]
               : nullptr;
  }

  util::BitVec Shift(const util::BitVec& out) {
    util::BitVec tdi = out;
    if (link_.bit_error_rate > 0.0) {
      for (size_t i = 0; i < tdi.size(); ++i) {
        if (noise_.NextBool(link_.bit_error_rate)) tdi.Flip(i);
      }
    }
    tap_.Clock(true, false);
    tap_.Clock(false, false);
    tap_.Clock(false, false);
    const uint32_t length = DrLength(tap_.instruction());
    util::BitVec captured(length);
    for (uint32_t i = 0; i < length; ++i) {
      captured.Set(i, tap_.Clock(i == length - 1, i < tdi.size() && tdi.Get(i)));
    }
    tap_.Clock(true, false);
    tap_.Clock(false, false);
    if (link_.bit_error_rate > 0.0) {
      for (size_t i = 0; i < captured.size(); ++i) {
        if (noise_.NextBool(link_.bit_error_rate)) captured.Flip(i);
      }
    }
    return captured;
  }

  // Only SCAN_N and INTEST are ever selected here.
  uint32_t DrLength(scan::TapInstruction instruction) override {
    if (instruction == scan::TapInstruction::kScanN) return SelectBits();
    const scan::ScanChain* chain = SelectedChain();
    return chain != nullptr ? chain->length_bits() : 1;
  }
  util::BitVec CaptureDr(scan::TapInstruction instruction) override {
    if (instruction == scan::TapInstruction::kScanN) {
      util::BitVec select(SelectBits());
      select.DepositWord(0, chain_select_, select.size());
      return select;
    }
    const scan::ScanChain* chain = SelectedChain();
    return chain != nullptr ? chain->Capture() : util::BitVec(1);
  }
  void UpdateDr(scan::TapInstruction instruction,
                const util::BitVec& value) override {
    if (instruction == scan::TapInstruction::kScanN) {
      chain_select_ = static_cast<uint32_t>(value.ExtractWord(0, value.size()));
      return;
    }
    const scan::ScanChain* chain = SelectedChain();
    if (chain == nullptr) return;
    chain->Update(value);
    if (chain->name() == "internal_icache") {
      cpu_->decode_cache().InvalidateAll();
    }
  }

  cpu::Cpu* cpu_;
  cpu::StateRegistry registry_;
  scan::ScanChainSet chains_;
  scan::TapController tap_;
  LinkConfig link_;
  util::Rng noise_;
  uint32_t chain_select_ = 0;
  double extra_us_;
};

/// Every byte of CPU execution state (the CpuSnapshot fields, memory as its
/// canonical delta).
std::vector<uint8_t> CpuStateBytes(cpu::Cpu* cpu) {
  cpu::StateHasher hasher(/*capture=*/true);
  cpu->HashExecutionState(&hasher);
  return hasher.TakeBlob();
}

/// A card under test and a second card whose CPU the per-bit link drives,
/// both booted into bubblesort and run partway, so registers, caches and
/// the decode cache hold live state.
class WordLinkTest : public ::testing::Test {
 protected:
  void Boot(const LinkConfig& link) {
    reference_.reset();
    card_ = std::make_unique<SimTestCard>(cpu::CpuConfig(), link);
    reference_card_ = std::make_unique<SimTestCard>(cpu::CpuConfig(), link);
    const auto spec = env::GetWorkload("bubblesort").ValueOrDie();
    const auto program = isa::Assemble(spec.source).ValueOrDie();
    for (SimTestCard* card : {card_.get(), reference_card_.get()}) {
      ASSERT_TRUE(card->Init().ok());
      ASSERT_TRUE(card->LoadWorkload(program).ok());
      ASSERT_TRUE(card->ResetTarget().ok());
      card->Run(1500);
    }
    reference_ = std::make_unique<BitLoopLink>(
        &reference_card_->mutable_cpu(), link,
        reference_card_->SaveSnapshot().ValueOrDie().extra_us);
  }

  /// One read on each side, then every observable compared.
  void ReadBoth(const std::string& chain, bool restore) {
    SCOPED_TRACE(chain + (restore ? " restoring" : " destructive"));
    const util::BitVec image = card_->ReadScanChain(chain, restore).ValueOrDie();
    EXPECT_EQ(image, reference_->Read(chain, restore));
    EXPECT_EQ(card_->link_time_us(), reference_->link_time_us());
    ExpectSameState();
  }

  void ExpectSameState() {
    EXPECT_EQ(CpuStateBytes(&card_->mutable_cpu()),
              CpuStateBytes(&reference_card_->mutable_cpu()));
    const cpu::DecodeCache::Stats& a = card_->cpu().decode_cache().stats();
    const cpu::DecodeCache::Stats& b =
        reference_card_->cpu().decode_cache().stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.flushes, b.flushes);
    const CardSnapshot snapshot = card_->SaveSnapshot().ValueOrDie();
    const scan::TapController::Snapshot expected = reference_->tap().SaveSnapshot();
    EXPECT_EQ(snapshot.tap.state, expected.state);
    EXPECT_EQ(snapshot.tap.instruction, expected.instruction);
    EXPECT_EQ(snapshot.tap.ir_shift, expected.ir_shift);
    EXPECT_EQ(snapshot.tap.dr_shift, expected.dr_shift);
    EXPECT_EQ(snapshot.tap.shift_pos, expected.shift_pos);
    EXPECT_EQ(snapshot.tap.tck_count, expected.tck_count);
    EXPECT_EQ(snapshot.chain_select, reference_->chain_select());
    const util::Rng::State noise = snapshot.noise.GetState();
    const util::Rng::State expected_noise = reference_->noise().GetState();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(noise.s[i], expected_noise.s[i]);
  }

  std::unique_ptr<SimTestCard> card_;
  std::unique_ptr<SimTestCard> reference_card_;
  std::unique_ptr<BitLoopLink> reference_;
};

TEST_F(WordLinkTest, RestoringReadsOfEveryChainMatchBitLoop) {
  Boot(LinkConfig());
  for (const scan::ScanChain& chain : card_->chains().chains()) {
    ReadBoth(chain.name(), /*restore=*/true);
  }
  // The targets go on identically: same state after the reads, including
  // the decode cache the internal_icache update flushed.
  card_->Run(3000);
  reference_card_->Run(3000);
  ExpectSameState();
}

TEST_F(WordLinkTest, DestructiveReadsOfEveryChainMatchBitLoop) {
  const SimTestCard layout;
  std::vector<std::string> names;
  for (const scan::ScanChain& chain : layout.chains().chains()) {
    names.push_back(chain.name());
  }
  ASSERT_EQ(names.size(), 5u);
  for (const std::string& name : names) {
    Boot(LinkConfig());  // each read zeroes its chain: start fresh
    ReadBoth(name, /*restore=*/false);
  }
}

constexpr int kNoisyRounds = 20;

TEST_F(WordLinkTest, NoisyLinkDrawsTheSameNoiseSequence) {
  LinkConfig link;
  link.bit_error_rate = 0.01;
  Boot(link);
  // Noise also flips SCAN_N select bits, so some reads shift another chain
  // than the one asked for. When that chain is longer than the image the
  // card sends, TDI past the image's end is 0.
  const std::vector<scan::ScanChain>& chains = card_->chains().chains();
  int longer_chain_reads = 0;
  for (int round = 0; round < kNoisyRounds; ++round) {
    for (const scan::ScanChain& chain : chains) {
      ReadBoth(chain.name(), /*restore=*/round % 2 == 0);
      const uint32_t select = reference_->chain_select();
      if (select < chains.size() &&
          chains[select].length_bits() > chain.length_bits()) {
        ++longer_chain_reads;
      }
    }
  }
  EXPECT_GT(longer_chain_reads, 0);
}

}  // namespace
}  // namespace goofi::testcard
