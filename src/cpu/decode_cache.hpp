// Predecoded instruction cache for the TRD32 fast path.
//
// Maps text-segment word addresses to predecoded isa::Instruction entries
// plus a handler/format tag so the superblock executor (Cpu::RunFastEx) can
// dispatch without re-running isa::Decode — and without constructing the
// illegal-encoding error strings — on every retired instruction.
//
// Correctness model (see DESIGN.md "Decode-cache invalidation invariants"):
//   1. Every site that mutates instruction memory must call InvalidateWord /
//      InvalidateRange / InvalidateAll (or Configure, which reflushes).
//   2. Independently of (1), every Resolve() re-checks the cached raw word
//      against the word actually being executed. Scan-chain writes reach the
//      instruction register and the parity-icache line data *behind* the
//      memory hierarchy, so the executed word can legitimately differ from
//      what any invalidation hook observed; the tag check makes stale
//      entries impossible even if a mutation site is missed.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/isa.hpp"

namespace goofi::cpu {

class DecodeCache {
 public:
  /// Cheap per-entry classification bits consumed by the fast path.
  enum Flag : uint8_t {
    kIllegal = 1u << 0,       ///< Predecode fault; executes as NOP unless EDM fires
    kMem = 1u << 1,           ///< LDW / STW
    kBranch = 1u << 2,        ///< BEQ..BGEU
    kCall = 1u << 3,          ///< JAL
    kWritesSp = 1u << 4,      ///< may change r15 (stack-limit check needed)
    kWatchdogKick = 1u << 5,  ///< TRAP 0 (resets the watchdog counter)
  };

  struct Entry {
    uint32_t raw = 0;  ///< word this entry was predecoded from (tag)
    isa::Instruction ins;
    uint8_t base_cycles = 1;
    uint8_t flags = 0;
    isa::PredecodeFault fault = isa::PredecodeFault::kNone;
    bool valid = false;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;   ///< includes uncached (out-of-text) resolves
    uint64_t flushes = 0;  ///< invalidation events (word, range or full)
  };

  /// (Re)binds the cache to a text segment [text_start, text_end) and drops
  /// all entries. Called from LoadProgram / PowerCycle / RestoreSnapshot.
  void Configure(uint32_t text_start, uint32_t text_end);

  bool Covers(uint32_t address) const {
    return address >= text_start_ && address < text_end_;
  }

  /// Returns the predecoded entry for the word `raw` at `address`. Installs
  /// on miss or raw-tag mismatch; addresses outside the text segment resolve
  /// through a scratch entry (counted as misses, never installed).
  const Entry& Resolve(uint32_t address, uint32_t raw) {
    if (Covers(address)) {
      Entry& entry = entries_[(address - text_start_) >> 2];
      if (entry.valid && entry.raw == raw) {
        ++stats_.hits;
        return entry;
      }
      ++stats_.misses;
      entry = MakeEntry(raw);
      return entry;
    }
    ++stats_.misses;
    scratch_ = MakeEntry(raw);
    return scratch_;
  }

  /// Drops the entry covering the word at `address` (no-op outside text).
  /// Inline: every CPU store calls it.
  void InvalidateWord(uint32_t address) {
    if (!Covers(address)) return;
    entries_[(address - text_start_) >> 2].valid = false;
    ++stats_.flushes;
  }

  /// Drops all entries overlapping the byte range [start, end).
  void InvalidateRange(uint32_t start, uint32_t end);

  /// Drops every entry (scan-chain writes into icache state, etc.).
  void InvalidateAll();

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  /// Predecodes one word into an entry (exposed for tests).
  static Entry MakeEntry(uint32_t raw);

 private:
  uint32_t text_start_ = 0;
  uint32_t text_end_ = 0;
  std::vector<Entry> entries_;
  Entry scratch_;
  Stats stats_;
};

}  // namespace goofi::cpu
