#include "cpu/decode_cache.hpp"

#include <algorithm>

namespace goofi::cpu {

namespace {

// Opcodes whose execution writes the destination register `rd`. JAL links
// into the fixed link register (r14), never sp, so it is excluded.
bool WritesRd(isa::Opcode op) {
  switch (op) {
    case isa::Opcode::kAdd:
    case isa::Opcode::kSub:
    case isa::Opcode::kMul:
    case isa::Opcode::kDiv:
    case isa::Opcode::kAnd:
    case isa::Opcode::kOr:
    case isa::Opcode::kXor:
    case isa::Opcode::kSll:
    case isa::Opcode::kSrl:
    case isa::Opcode::kSra:
    case isa::Opcode::kSlt:
    case isa::Opcode::kSltu:
    case isa::Opcode::kAddi:
    case isa::Opcode::kAndi:
    case isa::Opcode::kOri:
    case isa::Opcode::kXori:
    case isa::Opcode::kSlli:
    case isa::Opcode::kSrli:
    case isa::Opcode::kLui:
    case isa::Opcode::kSlti:
    case isa::Opcode::kLdw:
      return true;
    default:
      return false;
  }
}

}  // namespace

DecodeCache::Entry DecodeCache::MakeEntry(uint32_t raw) {
  Entry entry;
  entry.raw = raw;
  entry.valid = true;
  const isa::Predecoded pre = isa::Predecode(raw);
  entry.ins = pre.ins;
  entry.fault = pre.fault;
  entry.base_cycles = pre.base_cycles;
  if (pre.fault != isa::PredecodeFault::kNone) {
    entry.flags = kIllegal;
    return entry;
  }
  uint8_t flags = 0;
  switch (pre.ins.op) {
    case isa::Opcode::kLdw:
    case isa::Opcode::kStw:
      flags |= kMem;
      break;
    case isa::Opcode::kBeq:
    case isa::Opcode::kBne:
    case isa::Opcode::kBlt:
    case isa::Opcode::kBge:
    case isa::Opcode::kBltu:
    case isa::Opcode::kBgeu:
      flags |= kBranch;
      break;
    case isa::Opcode::kJal:
      flags |= kCall;
      break;
    case isa::Opcode::kTrap:
      if (pre.ins.imm == 0) flags |= kWatchdogKick;
      break;
    default:
      break;
  }
  if (pre.ins.rd == isa::kStackPointer && WritesRd(pre.ins.op)) {
    flags |= kWritesSp;
  }
  entry.flags = flags;
  return entry;
}

void DecodeCache::Configure(uint32_t text_start, uint32_t text_end) {
  text_start_ = text_start;
  text_end_ = std::max(text_start, text_end);
  const size_t words = (text_end_ - text_start_) >> 2;
  entries_.assign(words, Entry{});
  ++stats_.flushes;
}

void DecodeCache::InvalidateRange(uint32_t start, uint32_t end) {
  if (entries_.empty() || end <= text_start_ || start >= text_end_) return;
  const uint32_t lo = std::max(start, text_start_);
  const uint32_t hi = std::min(end, text_end_);
  for (uint32_t address = lo & ~3u; address < hi; address += 4) {
    entries_[(address - text_start_) >> 2].valid = false;
  }
  ++stats_.flushes;
}

void DecodeCache::InvalidateAll() {
  for (Entry& entry : entries_) entry.valid = false;
  ++stats_.flushes;
}

}  // namespace goofi::cpu
