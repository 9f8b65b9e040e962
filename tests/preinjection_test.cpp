// Tests for the pre-injection (liveness) analysis — the paper's §4 extension
// for skipping injections into locations that do not hold live data.
#include <gtest/gtest.h>

#include "core/preinjection.hpp"

namespace goofi::core {
namespace {

env::WorkloadSpec InlineWorkload(const std::string& source) {
  env::WorkloadSpec spec;
  spec.name = "inline";
  spec.source = source;
  spec.result_symbol = "result";
  spec.result_words = 1;
  return spec;
}

TEST(LivenessTest, StraightLineRegisterLifetimes) {
  // r1 written @1, read @3; r2 written @2, read @3; r3 written @3, read @4
  // (store); never again.
  const auto analyzer = LivenessAnalyzer::BuildFromSpec(
                            InlineWorkload("_start:\n"
                                           "  addi r1, r0, 5\n"   // t=1
                                           "  addi r2, r0, 6\n"   // t=2
                                           "  add r3, r1, r2\n"   // t=3
                                           "  li r4, result\n"    // t=4,5
                                           "  stw r3, [r4]\n"     // t=6
                                           "  halt\n"             // t=7
                                           "_etext:\n"
                                           "result:\n"
                                           "  .word 0\n"),
                            cpu::CpuConfig())
                            .ValueOrDie();
  // After t=1 (addi r1 executed), next r1 access is the read at t=3: live.
  EXPECT_TRUE(analyzer->RegisterLive(1, 1));
  EXPECT_TRUE(analyzer->RegisterLive(1, 2));
  // After the read at t=3, r1 is never accessed again: dead.
  EXPECT_FALSE(analyzer->RegisterLive(1, 3));
  // Before r2 is written (t<=1), the next access is the WRITE at t=2: dead.
  EXPECT_FALSE(analyzer->RegisterLive(2, 0));
  EXPECT_TRUE(analyzer->RegisterLive(2, 2));
  // r3 becomes dead after the store reads it at t=6.
  EXPECT_TRUE(analyzer->RegisterLive(3, 4));
  EXPECT_FALSE(analyzer->RegisterLive(3, 6));
  // r9 is never used at all.
  EXPECT_FALSE(analyzer->RegisterLive(9, 0));
  EXPECT_FALSE(analyzer->RegisterLive(16, 0)) << "out of range is dead";
}

TEST(LivenessTest, MemoryWordLifetimes) {
  const auto analyzer = LivenessAnalyzer::BuildFromSpec(
                            InlineWorkload("_start:\n"
                                           "  li r4, scratch\n"   // t=1,2
                                           "  addi r1, r0, 7\n"   // t=3
                                           "  stw r1, [r4]\n"     // t=4 write
                                           "  ldw r2, [r4]\n"     // t=5 read
                                           "  li r5, result\n"
                                           "  stw r2, [r5]\n"
                                           "  halt\n"
                                           "_etext:\n"
                                           "scratch:\n"
                                           "  .word 0\n"
                                           "result:\n"
                                           "  .word 0\n"),
                            cpu::CpuConfig())
                            .ValueOrDie();
  const auto program = isa::Assemble(
      "_start: nop\n_etext:\n");  // just to silence unused warnings pattern
  (void)program;
  // Before the store, the next access to `scratch` is a write: dead.
  // (scratch address: find from a fresh assembly of the same source.)
  const auto assembled = isa::Assemble(
                             "_start:\n"
                             "  li r4, scratch\n"
                             "  addi r1, r0, 7\n"
                             "  stw r1, [r4]\n"
                             "  ldw r2, [r4]\n"
                             "  li r5, result\n"
                             "  stw r2, [r5]\n"
                             "  halt\n"
                             "_etext:\n"
                             "scratch:\n"
                             "  .word 0\n"
                             "result:\n"
                             "  .word 0\n")
                             .ValueOrDie();
  const uint32_t scratch = assembled.symbols.at("scratch");
  const uint32_t result = assembled.symbols.at("result");
  EXPECT_FALSE(analyzer->MemoryWordLive(scratch, 0));
  // Between store (t=4) and load (t=5) it is live.
  EXPECT_TRUE(analyzer->MemoryWordLive(scratch, 4));
  // After the load, dead.
  EXPECT_FALSE(analyzer->MemoryWordLive(scratch, 5));
  // `result` is read by the host at the end: live after its final write.
  EXPECT_TRUE(analyzer->MemoryWordLive(result, 1000));
  // An address never touched is dead.
  EXPECT_FALSE(analyzer->MemoryWordLive(0x8000, 0));
}

TEST(LivenessTest, FilterClassifiesCandidateKinds) {
  const auto analyzer =
      LivenessAnalyzer::Build("bubblesort", cpu::CpuConfig()).ValueOrDie();
  const auto filter = analyzer->MakeFilter();

  FaultCandidate pipeline;
  pipeline.scan = true;
  pipeline.chain = "boundary";
  pipeline.cell_name = "pipeline.alu_result";
  EXPECT_FALSE(filter(pipeline, 10)) << "pipeline latches are always dead";

  FaultCandidate pc;
  pc.scan = true;
  pc.chain = "internal_core";
  pc.cell_name = "core.pc";
  EXPECT_TRUE(filter(pc, 10)) << "pc is conservatively live";

  FaultCandidate cache;
  cache.scan = true;
  cache.chain = "internal_icache";
  cache.cell_name = "icache.line3.tag";
  EXPECT_TRUE(filter(cache, 10));
}

TEST(LivenessTest, TraceLengthMatchesWorkload) {
  const auto analyzer =
      LivenessAnalyzer::Build("fibonacci", cpu::CpuConfig()).ValueOrDie();
  // fib(24): init 4 + li(2) + 24 iterations x 5 + final 4-ish. Just sanity.
  EXPECT_GT(analyzer->trace_length(), 50u);
  EXPECT_LT(analyzer->trace_length(), 1000u);
}

TEST(LivenessTest, ControlWorkloadTraceBoundedByIterations) {
  const auto analyzer = LivenessAnalyzer::Build("pendulum_pd", cpu::CpuConfig(),
                                                /*max_instr=*/1'000'000,
                                                /*max_iterations=*/50)
                            .ValueOrDie();
  EXPECT_GT(analyzer->trace_length(), 50u * 10u);
  EXPECT_LT(analyzer->trace_length(), 50u * 100u);
}

TEST(LivenessTest, UnknownWorkloadFails) {
  EXPECT_FALSE(LivenessAnalyzer::Build("nope", cpu::CpuConfig()).ok());
}

TEST(LivenessTest, UnknownEnvironmentSimulatorFails) {
  // The analyzer resolves a control workload's plant like the targets do: a
  // timeline built without the plant exchange would be silently wrong.
  env::WorkloadSpec spec = env::GetWorkload("pendulum_pd").ValueOrDie();
  spec.environment = "no_such_plant";
  EXPECT_FALSE(LivenessAnalyzer::BuildFromSpec(spec, cpu::CpuConfig()).ok());
}

TEST(LivenessTest, LiveRegistersAreAMinorityLateInTheRun) {
  // The paper's motivation: most (location, time) pairs are dead. For the
  // bubblesort workload past its sorting loops, few registers stay live.
  const auto analyzer =
      LivenessAnalyzer::Build("bubblesort", cpu::CpuConfig()).ValueOrDie();
  const uint64_t t = analyzer->trace_length() - 5;
  int live = 0;
  for (int reg = 0; reg < 16; ++reg) {
    if (analyzer->RegisterLive(reg, t)) ++live;
  }
  EXPECT_LT(live, 8);
}

}  // namespace
}  // namespace goofi::core
