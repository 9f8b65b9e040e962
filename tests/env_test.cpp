// Tests for the environment simulators and the built-in workloads.
#include <gtest/gtest.h>

#include "cpu/cpu.hpp"
#include "env/environment.hpp"
#include "env/workloads.hpp"
#include "isa/assembler.hpp"

namespace goofi::env {
namespace {

// --- fixed point ------------------------------------------------------------

TEST(FixedPointTest, RoundTrip) {
  EXPECT_EQ(ToFixed(1.0), 256);
  EXPECT_EQ(ToFixed(-2.5), -640);
  EXPECT_DOUBLE_EQ(FromFixed(256), 1.0);
  EXPECT_DOUBLE_EQ(FromFixed(-128), -0.5);
  EXPECT_EQ(WordToFixed(0xFFFFFF00u), -256);
}

// --- plants -------------------------------------------------------------------

TEST(PendulumTest, FallsWithoutControl) {
  InvertedPendulum plant;
  std::vector<uint32_t> zero_torque = {0};
  std::vector<uint32_t> inputs;
  for (int i = 0; i < 1000 && !plant.Failed(); ++i) {
    plant.Exchange(zero_torque, &inputs);
  }
  EXPECT_TRUE(plant.Failed()) << "unstable plant must fall open-loop";
}

TEST(PendulumTest, HostSidePdControlStabilizes) {
  InvertedPendulum plant;
  std::vector<uint32_t> inputs;
  for (int i = 0; i < 2000; ++i) {
    const double u = -(4.0 * plant.theta() + 2.0 * plant.omega());
    plant.Exchange({static_cast<uint32_t>(ToFixed(u))}, &inputs);
  }
  EXPECT_FALSE(plant.Failed());
  EXPECT_LT(std::abs(plant.theta()), 0.05);
}

TEST(PendulumTest, SenseDoesNotAdvance) {
  InvertedPendulum plant;
  const auto a = plant.Sense();
  const auto b = plant.Sense();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(static_cast<int32_t>(a[0]), ToFixed(0.10));
}

TEST(PendulumTest, ResetRestoresInitialState) {
  InvertedPendulum plant;
  std::vector<uint32_t> inputs;
  plant.Exchange({static_cast<uint32_t>(ToFixed(50.0))}, &inputs);
  plant.Reset();
  EXPECT_DOUBLE_EQ(plant.theta(), 0.10);
  EXPECT_DOUBLE_EQ(plant.omega(), 0.0);
}

TEST(PendulumTest, ActuatorSaturates) {
  InvertedPendulum plant;
  std::vector<uint32_t> inputs;
  // An absurd command must behave like the +/-64 physical limit.
  plant.Exchange({static_cast<uint32_t>(ToFixed(10000.0))}, &inputs);
  InvertedPendulum reference;
  reference.Exchange({static_cast<uint32_t>(ToFixed(64.0))}, &inputs);
  EXPECT_DOUBLE_EQ(plant.theta(), reference.theta());
}

TEST(CruiseTest, PiControlConverges) {
  CruiseControl plant;
  std::vector<uint32_t> inputs;
  double integral = 0;
  for (int i = 0; i < 400; ++i) {
    const double error = 20.0 - plant.speed();
    integral += error;
    const double u = std::clamp(2.0 * error + 0.0625 * integral, 0.0, 100.0);
    plant.Exchange({static_cast<uint32_t>(ToFixed(u))}, &inputs);
  }
  EXPECT_FALSE(plant.Failed());
  EXPECT_NEAR(plant.speed(), 20.0, 2.0);
}

TEST(CruiseTest, StuckActuatorFailsAfterSettling) {
  CruiseControl plant;
  std::vector<uint32_t> inputs;
  for (int i = 0; i < 400; ++i) {
    plant.Exchange({0}, &inputs);  // no drive at all
  }
  EXPECT_TRUE(plant.Failed());
}

TEST(ExchangeTest, FillsTheCallerBufferWithTheNewSensorWords) {
  // The in-place exchange writes exactly what Sense() reports after the
  // step, resizes a buffer of any other size, and once sized reuses its
  // storage (the per-iteration path does not allocate).
  InvertedPendulum pendulum;
  CruiseControl cruise;
  for (EnvironmentSimulator* plant :
       std::vector<EnvironmentSimulator*>{&pendulum, &cruise}) {
    SCOPED_TRACE(plant->Name());
    std::vector<uint32_t> inputs(7, 0xDEADBEEFu);
    const std::vector<uint32_t> outputs(plant->num_outputs(),
                                        static_cast<uint32_t>(ToFixed(3.0)));
    plant->Exchange(outputs, &inputs);
    ASSERT_EQ(inputs.size(), plant->num_inputs());
    EXPECT_EQ(inputs, plant->Sense());
    const uint32_t* storage = inputs.data();
    for (int i = 0; i < 50; ++i) {
      plant->Exchange(outputs, &inputs);
      EXPECT_EQ(inputs, plant->Sense()) << "exchange " << i;
      EXPECT_EQ(inputs.data(), storage) << "exchange " << i;
    }
  }
}

// --- workload registry --------------------------------------------------------

TEST(WorkloadTest, RegistryListsAllWorkloads) {
  const auto names = WorkloadNames();
  EXPECT_EQ(names.size(), 11u);
  for (const std::string& name : names) {
    EXPECT_TRUE(GetWorkload(name).ok()) << name;
  }
  EXPECT_FALSE(GetWorkload("nope").ok());
}

TEST(WorkloadTest, AllWorkloadsAssemble) {
  for (const std::string& name : WorkloadNames()) {
    const auto spec = GetWorkload(name).ValueOrDie();
    auto program = isa::Assemble(spec.source);
    EXPECT_TRUE(program.ok()) << name << ": " << program.status().ToString();
  }
}

TEST(WorkloadTest, SpecsAreInternallyConsistent) {
  for (const std::string& name : WorkloadNames()) {
    const auto spec = GetWorkload(name).ValueOrDie();
    const auto program = isa::Assemble(spec.source).ValueOrDie();
    EXPECT_TRUE(program.symbols.contains("_etext")) << name;
    if (spec.infinite_loop) {
      EXPECT_TRUE(program.symbols.contains(spec.iteration_symbol)) << name;
      EXPECT_TRUE(program.symbols.contains(spec.input_symbol)) << name;
      EXPECT_FALSE(spec.environment.empty()) << name;
      EXPECT_GT(spec.input_words, 0u) << name;
      EXPECT_GT(spec.output_words, 0u) << name;
    } else {
      EXPECT_TRUE(program.symbols.contains(spec.result_symbol)) << name;
      EXPECT_GT(spec.result_words, 0u) << name;
    }
  }
}

// --- batch workload semantics (run on a bare CPU) ------------------------------

class BatchWorkloadTest : public ::testing::Test {
 protected:
  /// Runs the named workload to completion; returns the result words.
  std::vector<uint32_t> RunBatch(const std::string& name) {
    const auto spec = GetWorkload(name).ValueOrDie();
    const auto program = isa::Assemble(spec.source).ValueOrDie();
    cpu_ = std::make_unique<cpu::Cpu>();
    const uint32_t etext = program.symbols.at("_etext");
    EXPECT_TRUE(cpu_->LoadProgram(program.base_address, program.words,
                                  etext - program.base_address)
                    .ok());
    cpu_->Reset(program.entry);
    EXPECT_EQ(cpu_->Run(2'000'000), cpu::StepOutcome::kHalted) << name;
    std::vector<uint32_t> results;
    const uint32_t result_addr = program.symbols.at(spec.result_symbol);
    for (uint32_t i = 0; i < spec.result_words; ++i) {
      results.push_back(cpu_->memory().HostRead(result_addr + i * 4).ValueOrDie());
    }
    program_ = program;
    return results;
  }

  std::unique_ptr<cpu::Cpu> cpu_;
  isa::AssembledProgram program_;
};

TEST_F(BatchWorkloadTest, BubbleSortSortsAndChecksums) {
  const auto results = RunBatch("bubblesort");
  EXPECT_EQ(results[0], 1881u);  // sum of the input block
  // The data block itself must be ascending.
  const uint32_t data = program_.symbols.at("data");
  uint32_t prev = 0;
  for (int i = 0; i < 16; ++i) {
    const uint32_t v =
        cpu_->memory().HostRead(data + static_cast<uint32_t>(i) * 4).ValueOrDie();
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_EQ(cpu_->memory().HostRead(data).ValueOrDie(), 1u);
  EXPECT_EQ(cpu_->memory().HostRead(data + 15 * 4).ValueOrDie(), 802u);
}

TEST_F(BatchWorkloadTest, MatMulComputesKnownProduct) {
  const auto results = RunBatch("matmul");
  // A = [1..9], B = [9..1]; C checksum computed independently:
  // C = A*B; sum(C) = 621.
  EXPECT_EQ(results[0], 621u);
  // Spot-check C[0][0] = 1*9 + 2*6 + 3*3 = 30.
  const uint32_t c = program_.symbols.at("mat_c");
  EXPECT_EQ(cpu_->memory().HostRead(c).ValueOrDie(), 30u);
}

TEST_F(BatchWorkloadTest, FibonacciComputesFib24) {
  const auto results = RunBatch("fibonacci");
  EXPECT_EQ(results[0], 46368u);  // fib(24)
}

TEST_F(BatchWorkloadTest, StrSearchFindsAllOccurrences) {
  const auto results = RunBatch("strsearch");
  // Needle {7,2,1,8} occurs at indices 8, 12 and (wrapping the tail window
  // excluded) — scan covers i in [0, HLEN-NLEN): matches at 8 and 12.
  // result = count*256 + first index.
  EXPECT_EQ(results[0] >> 8, 2u);
  EXPECT_EQ(results[0] & 0xFFu, 8u);
}

TEST_F(BatchWorkloadTest, QueueRoundTripsThroughTheStack) {
  const auto results = RunBatch("queue");
  // Deterministic fold; independently computed on the host.
  uint32_t acc = 0;
  std::vector<uint32_t> stack;
  for (uint32_t i = 1; i < 12; ++i) stack.push_back(i * i + 3);
  for (uint32_t i = 1; i < 12; ++i) {
    const uint32_t v = stack.back();
    stack.pop_back();
    acc = ((acc << 3) | (acc >> 29)) ^ v;
  }
  EXPECT_EQ(results[0], acc);
}

TEST_F(BatchWorkloadTest, ChecksumIsDeterministicAndNonTrivial) {
  const auto first = RunBatch("checksum");
  EXPECT_NE(first[0], 0u);
  const auto second = RunBatch("checksum");
  EXPECT_EQ(first, second);
}

// --- control workloads under their environments (closed loop) -----------------

class ControlWorkloadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ControlWorkloadTest, ClosedLoopIsStableFaultFree) {
  const auto spec = GetWorkload(GetParam()).ValueOrDie();
  const auto program = isa::Assemble(spec.source).ValueOrDie();
  cpu::Cpu cpu;
  const uint32_t etext = program.symbols.at("_etext");
  ASSERT_TRUE(
      cpu.LoadProgram(program.base_address, program.words, etext).ok());
  cpu.Reset(program.entry);

  std::unique_ptr<EnvironmentSimulator> plant;
  if (spec.environment == "inverted_pendulum") {
    plant = std::make_unique<InvertedPendulum>();
  } else {
    plant = std::make_unique<CruiseControl>();
  }
  const uint32_t input_addr = program.symbols.at(spec.input_symbol);
  const uint32_t output_addr = input_addr + spec.input_words * 4;
  const uint32_t loop_end = program.symbols.at(spec.iteration_symbol);

  const auto inputs0 = plant->Sense();
  for (size_t i = 0; i < inputs0.size(); ++i) {
    ASSERT_TRUE(
        cpu.HostWriteWord(input_addr + static_cast<uint32_t>(i) * 4, inputs0[i]).ok());
  }

  int iterations = 0;
  std::vector<uint32_t> inputs;  // reused by every exchange, as the core does
  while (iterations < 400) {
    const uint32_t exec_pc = cpu.pc();
    const auto outcome = cpu.Step();
    ASSERT_EQ(outcome, cpu::StepOutcome::kOk)
        << GetParam() << " stopped: "
        << cpu::EdmTypeName(cpu.edm_event().type);
    if (exec_pc == loop_end) {
      std::vector<uint32_t> outputs;
      for (uint32_t i = 0; i < spec.output_words; ++i) {
        outputs.push_back(cpu.memory().HostRead(output_addr + i * 4).ValueOrDie());
      }
      plant->Exchange(outputs, &inputs);
      for (size_t i = 0; i < inputs.size(); ++i) {
        ASSERT_TRUE(cpu.HostWriteWord(input_addr + static_cast<uint32_t>(i) * 4,
                                      inputs[i])
                        .ok());
      }
      ++iterations;
    }
  }
  EXPECT_FALSE(plant->Failed()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllControllers, ControlWorkloadTest,
                         ::testing::Values("pendulum_pd", "pendulum_pd_assert",
                                           "pendulum_pd_trap", "cruise_pi"));

}  // namespace
}  // namespace goofi::env
