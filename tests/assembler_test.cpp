// Tests for the two-pass TRD32 assembler and disassembler.
#include <gtest/gtest.h>

#include "isa/assembler.hpp"

namespace goofi::isa {
namespace {

AssembledProgram MustAssemble(const std::string& source) {
  auto program = Assemble(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).ValueOrDie();
}

TEST(AssemblerTest, EmptyProgram) {
  const auto program = MustAssemble("");
  EXPECT_EQ(program.words.size(), 0u);
  EXPECT_EQ(program.base_address, 0u);
}

TEST(AssemblerTest, SingleInstruction) {
  const auto program = MustAssemble("add r1, r2, r3\n");
  ASSERT_EQ(program.words.size(), 1u);
  const auto decoded = Decode(program.words[0]).ValueOrDie();
  EXPECT_EQ(decoded.op, Opcode::kAdd);
  EXPECT_EQ(decoded.rd, 1);
  EXPECT_EQ(decoded.rs1, 2);
  EXPECT_EQ(decoded.rs2, 3);
}

TEST(AssemblerTest, CommentsAndBlankLines) {
  const auto program = MustAssemble(
      "; full line comment\n"
      "# hash comment\n"
      "\n"
      "nop // trailing\n"
      "halt ; done\n");
  EXPECT_EQ(program.words.size(), 2u);
}

TEST(AssemblerTest, LabelsResolveForwardAndBackward) {
  const auto program = MustAssemble(
      "start:\n"
      "  jmp end\n"
      "  nop\n"
      "end:\n"
      "  jmp start\n");
  EXPECT_EQ(program.symbols.at("start"), 0u);
  EXPECT_EQ(program.symbols.at("end"), 8u);
  const auto fwd = Decode(program.words[0]).ValueOrDie();
  EXPECT_EQ(static_cast<uint32_t>(fwd.imm) * 4, 8u);
}

TEST(AssemblerTest, BranchOffsetsArePcRelative) {
  const auto program = MustAssemble(
      "  nop\n"
      "loop:\n"
      "  beq r1, r2, loop\n");
  const auto br = Decode(program.words[1]).ValueOrDie();
  // target = pc + 4 + imm*4; pc = 4, target = 4 => imm = -1.
  EXPECT_EQ(br.imm, -1);
}

TEST(AssemblerTest, MemoryOperandSyntaxes) {
  const auto program = MustAssemble(
      "ldw r1, 8(r2)\n"
      "ldw r3, [r4+12]\n"
      "ldw r5, [r6]\n"
      "stw r7, -4(sp)\n");
  auto i0 = Decode(program.words[0]).ValueOrDie();
  EXPECT_EQ(i0.imm, 8);
  EXPECT_EQ(i0.rs1, 2);
  auto i1 = Decode(program.words[1]).ValueOrDie();
  EXPECT_EQ(i1.imm, 12);
  auto i2 = Decode(program.words[2]).ValueOrDie();
  EXPECT_EQ(i2.imm, 0);
  auto i3 = Decode(program.words[3]).ValueOrDie();
  EXPECT_EQ(i3.op, Opcode::kStw);
  EXPECT_EQ(i3.imm, -4);
  EXPECT_EQ(i3.rs1, kStackPointer);
}

TEST(AssemblerTest, DirectivesWordSpaceOrgEqu) {
  const auto program = MustAssemble(
      ".equ BASE, 0x100\n"
      ".org BASE\n"
      "data:\n"
      ".word 1, 2, BASE+8\n"
      ".space 8\n"
      "after:\n"
      ".word 0xdeadbeef\n");
  EXPECT_EQ(program.base_address, 0x100u);
  EXPECT_EQ(program.words[0], 1u);
  EXPECT_EQ(program.words[1], 2u);
  EXPECT_EQ(program.words[2], 0x108u);
  EXPECT_EQ(program.symbols.at("after"), 0x100u + 12 + 8);
  EXPECT_EQ(program.words[5], 0xdeadbeefu);
}

TEST(AssemblerTest, EntryDefaultsToBaseOrStart) {
  EXPECT_EQ(MustAssemble("nop\n").entry, 0u);
  const auto program = MustAssemble(
      "nop\n"
      "_start:\n"
      "halt\n");
  EXPECT_EQ(program.entry, 4u);
}

TEST(AssemblerTest, TextBytesEndAtEtextPastTheBase) {
  // Code up to _etext is the protected text; data follows it.
  EXPECT_EQ(MustAssemble(".org 0x100\nnop\nhalt\n_etext:\n.word 7\n")
                .text_bytes(),
            8u);
  // No _etext, or one at the base: 0, which LoadProgram reads as "the whole
  // image is text".
  EXPECT_EQ(MustAssemble("nop\nhalt\n").text_bytes(), 0u);
  EXPECT_EQ(MustAssemble(".org 0x100\n_etext:\n.word 7\n").text_bytes(), 0u);
}

TEST(AssemblerTest, LiExpandsToTwoWords) {
  for (const uint32_t value :
       {0u, 1u, 0x3FFFu, 0x4000u, 0xF000u, 0x7FFFFFFFu, 0x80000000u,
        0xFFFFFFFFu, 0xDEADBEEFu}) {
    const auto program =
        MustAssemble("li r1, " + std::to_string(static_cast<int64_t>(value)) + "\n");
    ASSERT_EQ(program.words.size(), 2u) << value;
    // Execute the pair by hand: lui then ori.
    const auto lui = Decode(program.words[0]).ValueOrDie();
    const auto ori = Decode(program.words[1]).ValueOrDie();
    ASSERT_EQ(lui.op, Opcode::kLui);
    ASSERT_EQ(ori.op, Opcode::kOri);
    const uint32_t result =
        (static_cast<uint32_t>(lui.imm) << 14) | static_cast<uint32_t>(ori.imm);
    EXPECT_EQ(result, value);
  }
}

TEST(AssemblerTest, NegativeLiteralLi) {
  const auto program = MustAssemble("li r1, -2\n");
  const auto lui = Decode(program.words[0]).ValueOrDie();
  const auto ori = Decode(program.words[1]).ValueOrDie();
  const uint32_t result =
      (static_cast<uint32_t>(lui.imm) << 14) | static_cast<uint32_t>(ori.imm);
  EXPECT_EQ(result, 0xFFFFFFFEu);
}

TEST(AssemblerTest, PseudoMovCallRet) {
  const auto program = MustAssemble(
      "_start:\n"
      "  mov r1, r2\n"
      "  call func\n"
      "  halt\n"
      "func:\n"
      "  ret\n");
  const auto mov = Decode(program.words[0]).ValueOrDie();
  EXPECT_EQ(mov.op, Opcode::kAddi);
  EXPECT_EQ(mov.imm, 0);
  const auto call = Decode(program.words[1]).ValueOrDie();
  EXPECT_EQ(call.op, Opcode::kJal);
  const auto ret = Decode(program.words[3]).ValueOrDie();
  EXPECT_EQ(ret.op, Opcode::kJr);
  EXPECT_EQ(ret.rs1, kLinkRegister);
}

TEST(AssemblerTest, PushPopExpandToTwoWords) {
  const auto program = MustAssemble(
      "push r3\n"
      "pop r3\n");
  ASSERT_EQ(program.words.size(), 4u);
  const auto sub_sp = Decode(program.words[0]).ValueOrDie();
  EXPECT_EQ(sub_sp.op, Opcode::kAddi);
  EXPECT_EQ(sub_sp.imm, -4);
  const auto store = Decode(program.words[1]).ValueOrDie();
  EXPECT_EQ(store.op, Opcode::kStw);
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  const auto bad = Assemble("nop\nbogus r1\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(AssemblerTest, DuplicateLabelRejected) {
  EXPECT_FALSE(Assemble("a:\nnop\na:\nnop\n").ok());
}

TEST(AssemblerTest, UndefinedSymbolRejected) {
  EXPECT_FALSE(Assemble("jmp nowhere\n").ok());
}

TEST(AssemblerTest, OperandCountChecked) {
  EXPECT_FALSE(Assemble("add r1, r2\n").ok());
  EXPECT_FALSE(Assemble("halt r1\n").ok());
  EXPECT_FALSE(Assemble("jr\n").ok());
}

TEST(AssemblerTest, ImmediateRangeChecked) {
  EXPECT_FALSE(Assemble("addi r1, r2, 200000\n").ok());
  EXPECT_TRUE(Assemble("addi r1, r2, 131071\n").ok());
  EXPECT_FALSE(Assemble("addi r1, r2, -200000\n").ok());
}

TEST(AssemblerTest, OrgBackwardsRejected) {
  EXPECT_FALSE(Assemble(".org 0x100\nnop\n.org 0x10\nnop\n").ok());
}

TEST(AssemblerTest, MisalignedOrgRejected) {
  EXPECT_FALSE(Assemble(".org 2\n").ok());
}

TEST(AssemblerTest, SymbolLookupHelper) {
  const auto program = MustAssemble(".equ IO, 0xF000\nnop\n");
  EXPECT_EQ(program.Symbol("IO").ValueOrDie(), 0xF000u);
  EXPECT_FALSE(program.Symbol("nope").ok());
}

// --- disassembler ----------------------------------------------------------

TEST(DisassemblerTest, FormatsEveryClass) {
  EXPECT_EQ(Disassemble(Encode(Instruction{Opcode::kAdd, 1, 2, 3, 0})),
            "add r1, r2, r3");
  EXPECT_EQ(Disassemble(Encode(Instruction{Opcode::kAddi, 1, 2, 0, -5})),
            "addi r1, r2, -5");
  EXPECT_EQ(Disassemble(Encode(Instruction{Opcode::kLdw, 1, 15, 0, 8})),
            "ldw r1, 8(sp)");
  EXPECT_EQ(Disassemble(Encode(Instruction{Opcode::kJr, 0, 14, 0, 0})), "jr lr");
  EXPECT_EQ(Disassemble(Encode(Instruction{Opcode::kJmp, 0, 0, 0, 4}))
                .substr(0, 3),
            "jmp");
  EXPECT_EQ(Disassemble(Encode(Instruction{Opcode::kHalt, 0, 0, 0, 0})), "halt");
  EXPECT_EQ(Disassemble(Encode(Instruction{Opcode::kTrap, 0, 0, 0, 7})), "trap 7");
}

TEST(DisassemblerTest, IllegalWordMarked) {
  const std::string text = Disassemble(0x07FFFFFFu);
  EXPECT_NE(text.find("illegal"), std::string::npos);
}

TEST(DisassemblerTest, ProgramListingHasAddresses) {
  const auto program = MustAssemble(".org 0x20\nnop\nhalt\n");
  const std::string listing = DisassembleProgram(program);
  EXPECT_NE(listing.find("00000020"), std::string::npos);
  EXPECT_NE(listing.find("halt"), std::string::npos);
}

// Round-trip: assemble -> disassemble -> reassemble gives identical words
// for straight-line code.
TEST(DisassemblerTest, ReassemblyRoundTrip) {
  const auto program = MustAssemble(
      "add r1, r2, r3\n"
      "sub r4, r5, r6\n"
      "addi r7, r8, 42\n"
      "ldw r9, 4(r10)\n"
      "stw r9, 8(r10)\n"
      "halt\n");
  std::string re_source;
  for (uint32_t word : program.words) re_source += Disassemble(word) + "\n";
  const auto reprogram = MustAssemble(re_source);
  EXPECT_EQ(program.words, reprogram.words);
}

}  // namespace
}  // namespace goofi::isa
