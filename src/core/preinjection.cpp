#include "core/preinjection.hpp"

#include <algorithm>

#include "cpu/access.hpp"
#include "env/environment.hpp"
#include "util/strings.hpp"

namespace goofi::core {

namespace {

/// Register/memory read-write sets of one instruction.
struct AccessSet {
  std::vector<int> reg_reads;
  std::vector<int> reg_writes;
  bool mem_read = false;
  bool mem_write = false;
  uint32_t mem_address = 0;
};

AccessSet AccessesOf(const isa::Instruction& ins, const cpu::Cpu& cpu) {
  // The architectural classification is shared with the static analyzer
  // (cpu/access.hpp) so the static-dead ⊆ dynamic-dead invariant compares
  // identical semantics; only the address needs live register values.
  const cpu::InstructionAccess access = cpu::ClassifyAccess(ins);
  AccessSet out;
  for (uint8_t i = 0; i < access.read_count; ++i) {
    out.reg_reads.push_back(access.reads[i]);
  }
  if (access.writes_reg) out.reg_writes.push_back(access.write_reg);
  out.mem_read = access.mem_read;
  out.mem_write = access.mem_write;
  if (access.mem_read || access.mem_write) {
    out.mem_address = cpu.reg(ins.rs1) + static_cast<uint32_t>(ins.imm);
  }
  return out;
}

}  // namespace

bool LivenessAnalyzer::LiveAt(const std::vector<Access>& accesses,
                              uint64_t instret) {
  // Accesses are appended in execution order, so they are sorted by instret
  // (reads of an instruction precede its writes).
  const auto it = std::upper_bound(
      accesses.begin(), accesses.end(), instret,
      [](uint64_t t, const Access& access) { return t < access.instret; });
  if (it == accesses.end()) return false;
  return it->is_read;
}

bool LivenessAnalyzer::RegisterLive(int reg, uint64_t instret) const {
  if (reg < 0 || reg >= isa::kNumRegisters) return false;
  return LiveAt(register_accesses_[static_cast<size_t>(reg)], instret);
}

bool LivenessAnalyzer::MemoryWordLive(uint32_t address, uint64_t instret) const {
  const auto it = memory_accesses_.find(address & ~3u);
  if (it == memory_accesses_.end()) return false;
  return LiveAt(it->second, instret);
}

bool LivenessAnalyzer::RegisterEverAccessed(int reg) const {
  if (reg < 0 || reg >= isa::kNumRegisters) return false;
  return !register_accesses_[static_cast<size_t>(reg)].empty();
}

bool LivenessAnalyzer::MemoryWordEverRead(uint32_t address) const {
  const auto it = memory_accesses_.find(address & ~3u);
  if (it == memory_accesses_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [](const Access& access) { return access.is_read; });
}

bool LivenessAnalyzer::MemoryWordEverFetched(uint32_t address) const {
  return fetch_accesses_.count(address & ~3u) > 0;
}

size_t LivenessAnalyzer::WindowOf(const std::vector<Access>& accesses,
                                  uint64_t instret) {
  const auto it = std::upper_bound(
      accesses.begin(), accesses.end(), instret,
      [](uint64_t t, const Access& access) { return t < access.instret; });
  return static_cast<size_t>(it - accesses.begin());
}

size_t LivenessAnalyzer::RegisterAccessWindow(int reg, uint64_t instret) const {
  if (reg < 0 || reg >= isa::kNumRegisters) return 0;
  return WindowOf(register_accesses_[static_cast<size_t>(reg)], instret);
}

size_t LivenessAnalyzer::MemoryAccessWindow(uint32_t address,
                                            uint64_t instret) const {
  const auto it = memory_accesses_.find(address & ~3u);
  if (it == memory_accesses_.end()) return 0;
  return WindowOf(it->second, instret);
}

size_t LivenessAnalyzer::FetchAccessWindow(uint32_t address,
                                           uint64_t instret) const {
  const auto it = fetch_accesses_.find(address & ~3u);
  if (it == fetch_accesses_.end()) return 0;
  const auto pos =
      std::upper_bound(it->second.begin(), it->second.end(), instret);
  return static_cast<size_t>(pos - it->second.begin());
}

util::Result<std::unique_ptr<LivenessAnalyzer>> LivenessAnalyzer::Build(
    const std::string& workload_name, const cpu::CpuConfig& config,
    uint64_t max_instr, int max_iterations) {
  auto spec = env::GetWorkload(workload_name);
  if (!spec.ok()) return spec.status();
  return BuildFromSpec(spec.value(), config, max_instr, max_iterations);
}

util::Result<std::unique_ptr<LivenessAnalyzer>> LivenessAnalyzer::BuildFromSpec(
    const env::WorkloadSpec& workload, const cpu::CpuConfig& config,
    uint64_t max_instr, int max_iterations) {
  auto assembled = isa::Assemble(workload.source);
  if (!assembled.ok()) return assembled.status();
  const isa::AssembledProgram& program = assembled.value();

  std::unique_ptr<env::EnvironmentSimulator> environment;
  uint32_t input_addr = 0;
  uint32_t output_addr = 0;
  uint32_t loop_end = 0;
  if (workload.infinite_loop) {
    auto plant = env::MakeEnvironment(workload.environment);
    if (!plant.ok()) return plant.status();
    environment = std::move(plant).value();
    auto io = program.Symbol(workload.input_symbol);
    if (!io.ok()) return io.status();
    input_addr = io.value();
    output_addr = input_addr + workload.input_words * 4;
    auto boundary = program.Symbol(workload.iteration_symbol);
    if (!boundary.ok()) return boundary.status();
    loop_end = boundary.value();
  }

  auto analyzer = std::make_unique<LivenessAnalyzer>();
  analyzer->register_accesses_.resize(isa::kNumRegisters);

  cpu::Cpu cpu(config);
  GOOFI_RETURN_IF_ERROR(cpu.LoadProgram(program.base_address, program.words,
                                        program.text_bytes()));
  cpu.Reset(program.entry);
  if (environment) {
    const std::vector<uint32_t> inputs = environment->Sense();
    for (size_t i = 0; i < inputs.size(); ++i) {
      GOOFI_RETURN_IF_ERROR(cpu.HostWriteWord(
          input_addr + static_cast<uint32_t>(i) * 4, inputs[i]));
    }
  }

  int iterations = 0;
  std::vector<uint32_t> outputs;  // exchange buffers, reused every iteration
  std::vector<uint32_t> inputs;
  while (cpu.instructions_retired() < max_instr) {
    const uint32_t exec_pc = cpu.pc();
    const uint32_t exec_ir = cpu.ir();
    const auto decoded = isa::Decode(exec_ir);
    AccessSet accesses;
    if (decoded.ok()) accesses = AccessesOf(decoded.value(), cpu);

    // The instruction about to retire as number t+1 sits in `ir` already: it
    // was prefetched at the end of the previous step (or at reset), i.e. at
    // the current retirement count. Record the fetch there — a flip injected
    // at this count lands after the prefetch and cannot reach it.
    analyzer->fetch_accesses_[exec_pc & ~3u].push_back(
        cpu.instructions_retired());

    const cpu::StepOutcome outcome = cpu.Step();
    const uint64_t t = cpu.instructions_retired();
    for (int reg : accesses.reg_reads) {
      analyzer->register_accesses_[static_cast<size_t>(reg)].push_back({t, true});
    }
    for (int reg : accesses.reg_writes) {
      analyzer->register_accesses_[static_cast<size_t>(reg)].push_back({t, false});
    }
    if (accesses.mem_read) {
      analyzer->memory_accesses_[accesses.mem_address & ~3u].push_back({t, true});
    }
    if (accesses.mem_write) {
      analyzer->memory_accesses_[accesses.mem_address & ~3u].push_back({t, false});
    }

    if (environment && exec_pc == loop_end) {
      // Host-side exchange: actuator words are read, sensor words written.
      outputs.clear();
      for (uint32_t i = 0; i < workload.output_words; ++i) {
        auto word = cpu.memory().HostRead(output_addr + i * 4);
        if (!word.ok()) return word.status();
        outputs.push_back(word.value());
        analyzer->memory_accesses_[(output_addr + i * 4) & ~3u].push_back({t, true});
      }
      environment->Exchange(outputs, &inputs);
      for (size_t i = 0; i < inputs.size(); ++i) {
        const uint32_t address = input_addr + static_cast<uint32_t>(i) * 4;
        GOOFI_RETURN_IF_ERROR(cpu.HostWriteWord(address, inputs[i]));
        analyzer->memory_accesses_[address & ~3u].push_back({t, false});
      }
      if (++iterations >= max_iterations) break;
    }
    if (outcome != cpu::StepOutcome::kOk) break;
  }
  analyzer->trace_length_ = cpu.instructions_retired();

  // The workload's result words are read by the host at experiment end:
  // model that as a final read so late writes to them stay live.
  if (!workload.result_symbol.empty()) {
    const auto result = program.Symbol(workload.result_symbol);
    if (result.ok()) {
      for (uint32_t i = 0; i < workload.result_words; ++i) {
        analyzer->memory_accesses_[(result.value() + i * 4) & ~3u].push_back(
            {UINT64_MAX, true});
      }
    }
  }
  return analyzer;
}

util::Result<std::shared_ptr<const LivenessAnalyzer>> LivenessCache::Get(
    const std::string& workload_name, const cpu::CpuConfig& config,
    uint64_t max_instr, int max_iterations) {
  // The access timeline depends only on the architectural execution of the
  // fault-free workload, which these fields fully determine.
  const cpu::EdmConfig& edms = config.edms;
  const std::string key = util::Format(
      "%s|%u|%u|%u|%u|%llu|%u|%d%d%d%d%d%d%d%d%d%d|%llu|%d",
      workload_name.c_str(), config.memory_bytes, config.icache_lines,
      config.dcache_lines, config.cache_miss_penalty,
      static_cast<unsigned long long>(config.watchdog_limit),
      config.stack_limit, edms.illegal_opcode, edms.misaligned_access,
      edms.out_of_range_access, edms.memory_protection, edms.cache_parity,
      edms.arithmetic_overflow, edms.watchdog, edms.control_flow,
      edms.stack_overflow, edms.software_assertion,
      static_cast<unsigned long long>(max_instr), max_iterations);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
  }
  auto built = LivenessAnalyzer::Build(workload_name, config, max_instr,
                                       max_iterations);
  if (!built.ok()) return built.status();
  std::shared_ptr<const LivenessAnalyzer> analyzer = std::move(built).value();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = cache_.emplace(key, std::move(analyzer));
  if (inserted) {
    ++misses_;
  } else {
    ++hits_;  // another thread built it first; both traces are identical
  }
  return it->second;
}

int LivenessCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

int LivenessCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

FaultInjectionAlgorithms::LivenessFilter LivenessAnalyzer::MakeFilter() const {
  return [this](const FaultCandidate& candidate, uint64_t inject_instr) {
    if (!candidate.scan) {
      return MemoryWordLive(candidate.address, inject_instr);
    }
    if (util::StartsWith(candidate.cell_name, "regfile.")) {
      const auto reg = isa::ParseRegister(candidate.cell_name.substr(8));
      if (!reg) return true;
      return RegisterLive(*reg, inject_instr);
    }
    if (util::StartsWith(candidate.cell_name, "pipeline.")) {
      return false;  // refreshed every instruction -> always overwritten
    }
    return true;  // pc/ir/caches/watchdog: conservatively live
  };
}

}  // namespace goofi::core
