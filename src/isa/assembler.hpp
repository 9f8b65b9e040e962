// Two-pass assembler for TRD32 workloads.
//
// GOOFI workloads (the programs executed on the target during a campaign)
// are written in TRD32 assembly. The assembler produces the memory image the
// pre-runtime SWIFI technique mutates and the symbol table GOOFI uses to
// place breakpoints "by analysing the workload code" (paper §3.3) and to
// locate the environment-simulator I/O words (§3.2).
//
// Syntax:
//   ; comment (also # and //)
//   .org  ADDR          set the location counter (word-aligned byte address)
//   .word EXPR, ...     emit literal words
//   .space N            reserve N bytes (zero-filled, word-aligned)
//   .equ  NAME, EXPR    define a constant
//   label:              define a label (byte address)
//   mnemonic operands   e.g.  addi r1, r0, 5   /   ldw r2, 8(r1)
//
// Pseudo-instructions:
//   li rd, EXPR         load 32-bit immediate (always lui+ori pair)
//   mov rd, rs          addi rd, rs, 0
//   call LABEL          jal LABEL
//   ret                 jr lr
//   push rd / pop rd    stack ops via sp
//
// Branches take a label (or expression) and are encoded PC-relative; jumps
// take absolute word addresses.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "util/status.hpp"

namespace goofi::isa {

/// The assembled memory image plus metadata.
struct AssembledProgram {
  uint32_t base_address = 0;        ///< byte address of words[0]
  std::vector<uint32_t> words;      ///< contiguous image (gaps zero-filled)
  std::map<std::string, uint32_t> symbols;  ///< label/.equ -> value
  uint32_t entry = 0;               ///< `_start` if defined, else base

  /// Byte size of the image.
  uint32_t size_bytes() const {
    return static_cast<uint32_t>(words.size()) * 4;
  }

  /// Value of a symbol, or error.
  util::Result<uint32_t> Symbol(const std::string& name) const;

  /// Byte size of the write-protected text segment for cpu::Cpu::LoadProgram.
  /// By convention a workload marks the end of its code with an `_etext`
  /// label and everything after it is writable data: `_etext` minus the base
  /// when `_etext` lies past the base, else 0 (LoadProgram then protects the
  /// whole image).
  uint32_t text_bytes() const {
    const auto etext = symbols.find("_etext");
    return etext != symbols.end() && etext->second > base_address
               ? etext->second - base_address
               : 0;
  }
};

/// Assembles `source`. Errors carry a line number.
util::Result<AssembledProgram> Assemble(const std::string& source);

/// Disassembles one machine word ("add r1, r2, r3" / ".word 0x… ; illegal").
std::string Disassemble(uint32_t word);

/// Disassembles a whole program with addresses, for execution traces.
std::string DisassembleProgram(const AssembledProgram& program);

}  // namespace goofi::isa
