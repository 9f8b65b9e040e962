// Tests for the GOOFI core data model: enums, selectors, fault instances and
// logged-state serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>

#include "core/types.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace goofi::core {
namespace {

TEST(EnumsTest, TechniqueRoundTrip) {
  for (Technique t : {Technique::kScifi, Technique::kSwifiPreRuntime,
                      Technique::kSwifiRuntime}) {
    EXPECT_EQ(TechniqueFromName(TechniqueName(t)).ValueOrDie(), t);
  }
  EXPECT_FALSE(TechniqueFromName("bogus").ok());
}

TEST(EnumsTest, FaultModelRoundTrip) {
  for (FaultModelKind k :
       {FaultModelKind::kTransientBitFlip, FaultModelKind::kIntermittentBitFlip,
        FaultModelKind::kPermanentStuckAt}) {
    EXPECT_EQ(FaultModelFromName(FaultModelName(k)).ValueOrDie(), k);
  }
  EXPECT_FALSE(FaultModelFromName("bogus").ok());
}

TEST(EnumsTest, OutcomeNames) {
  EXPECT_STREQ(OutcomeName(Outcome::kDetected), "detected");
  EXPECT_STREQ(OutcomeName(Outcome::kEscaped), "escaped");
  EXPECT_STREQ(OutcomeName(Outcome::kLatent), "latent");
  EXPECT_STREQ(OutcomeName(Outcome::kOverwritten), "overwritten");
}

TEST(SelectorTest, ParseWithAndWithoutPrefix) {
  auto plain = FaultLocationSelector::Parse("internal_core").ValueOrDie();
  EXPECT_EQ(plain.chain, "internal_core");
  EXPECT_TRUE(plain.cell_prefix.empty());

  auto scoped = FaultLocationSelector::Parse("internal_regfile:regfile.r1")
                    .ValueOrDie();
  EXPECT_EQ(scoped.chain, "internal_regfile");
  EXPECT_EQ(scoped.cell_prefix, "regfile.r1");

  EXPECT_FALSE(FaultLocationSelector::Parse("").ok());
  EXPECT_FALSE(FaultLocationSelector::Parse(":prefix").ok());
}

TEST(SelectorTest, ToStringRoundTrip) {
  for (const char* text : {"internal_core", "memory.text",
                           "internal_icache:icache.line3"}) {
    const auto selector = FaultLocationSelector::Parse(text).ValueOrDie();
    EXPECT_EQ(selector.ToString(), text);
  }
}

TEST(FaultInstanceTest, ScanFaultSerializeRoundTrip) {
  FaultInstance fault;
  fault.kind = FaultModelKind::kIntermittentBitFlip;
  fault.chain = "internal_core";
  fault.chain_bit = 77;
  fault.cell_name = "core.pc";
  fault.inject_instr = 123456;
  const auto back = FaultInstance::Parse(fault.Serialize()).ValueOrDie();
  EXPECT_EQ(back.kind, fault.kind);
  EXPECT_EQ(back.chain, fault.chain);
  EXPECT_EQ(back.chain_bit, fault.chain_bit);
  EXPECT_EQ(back.cell_name, fault.cell_name);
  EXPECT_EQ(back.inject_instr, fault.inject_instr);
  EXPECT_TRUE(back.IsScanFault());
}

TEST(FaultInstanceTest, MemoryFaultSerializeRoundTrip) {
  FaultInstance fault;
  fault.kind = FaultModelKind::kPermanentStuckAt;
  fault.address = 0xF004;
  fault.bit = 31;
  fault.stuck_value = true;
  const auto back = FaultInstance::Parse(fault.Serialize()).ValueOrDie();
  EXPECT_FALSE(back.IsScanFault());
  EXPECT_EQ(back.address, 0xF004u);
  EXPECT_EQ(back.bit, 31u);
  EXPECT_TRUE(back.stuck_value);
}

TEST(FaultInstanceTest, ParseRejectsMalformed) {
  EXPECT_FALSE(FaultInstance::Parse("").ok());
  EXPECT_FALSE(FaultInstance::Parse("a,b,c").ok());
  EXPECT_FALSE(FaultInstance::Parse("bogus_kind,,0,,0,0,0,0").ok());
  EXPECT_FALSE(FaultInstance::Parse("transient_bitflip,,x,,0,0,0,0").ok());
}

TEST(FaultInstanceTest, DescribeMentionsLocationAndTime) {
  FaultInstance fault;
  fault.chain = "internal_regfile";
  fault.chain_bit = 42;
  fault.cell_name = "regfile.r1";
  fault.inject_instr = 99;
  const std::string text = fault.Describe();
  EXPECT_NE(text.find("internal_regfile"), std::string::npos);
  EXPECT_NE(text.find("regfile.r1"), std::string::npos);
  EXPECT_NE(text.find("99"), std::string::npos);
}

TEST(LoggedStateTest, SerializeRoundTripFull) {
  LoggedState state;
  state.halted = true;
  state.detected = true;
  state.edm = "cache_parity_data";
  state.edm_code = -3;
  state.timed_out = true;
  state.env_failed = true;
  state.cycles = 123456789012ULL;
  state.instret = 987654321ULL;
  state.iterations = 250;
  state.outputs = {0xDEADBEEF, 0, 0xFFFFFFFF};
  state.scan_images["internal_core"] = "0101101";
  state.scan_images["boundary"] = "111";

  const auto back = LoggedState::Deserialize(state.Serialize()).ValueOrDie();
  EXPECT_EQ(back.halted, state.halted);
  EXPECT_EQ(back.detected, state.detected);
  EXPECT_EQ(back.edm, state.edm);
  EXPECT_EQ(back.edm_code, state.edm_code);
  EXPECT_EQ(back.timed_out, state.timed_out);
  EXPECT_EQ(back.env_failed, state.env_failed);
  EXPECT_EQ(back.cycles, state.cycles);
  EXPECT_EQ(back.instret, state.instret);
  EXPECT_EQ(back.iterations, state.iterations);
  EXPECT_EQ(back.outputs, state.outputs);
  EXPECT_EQ(back.scan_images, state.scan_images);
}

TEST(LoggedStateTest, DefaultRoundTrip) {
  const LoggedState state;
  const auto back = LoggedState::Deserialize(state.Serialize()).ValueOrDie();
  EXPECT_FALSE(back.halted);
  EXPECT_FALSE(back.detected);
  EXPECT_TRUE(back.edm.empty());
  EXPECT_TRUE(back.outputs.empty());
  EXPECT_TRUE(back.scan_images.empty());
}

TEST(LoggedStateTest, DeserializeRejectsUnknownKey) {
  EXPECT_FALSE(LoggedState::Deserialize("wat=1;").ok());
  EXPECT_FALSE(LoggedState::Deserialize("halted").ok());
  EXPECT_FALSE(LoggedState::Deserialize("cycles=abc;").ok());
}

TEST(LoggedStateTest, EmptyStringIsDefaultState) {
  const auto state = LoggedState::Deserialize("").ValueOrDie();
  EXPECT_FALSE(state.detected);
}

// Parameterized property: Serialize/Deserialize is stable for varying
// output-vector sizes.
class LoggedStateOutputsSweep : public ::testing::TestWithParam<int> {};

TEST_P(LoggedStateOutputsSweep, OutputsRoundTrip) {
  LoggedState state;
  for (int i = 0; i < GetParam(); ++i) {
    state.outputs.push_back(static_cast<uint32_t>(i * 2654435761u));
  }
  const auto back = LoggedState::Deserialize(state.Serialize()).ValueOrDie();
  EXPECT_EQ(back.outputs, state.outputs);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LoggedStateOutputsSweep,
                         ::testing::Values(0, 1, 2, 9, 64));

// --- differential fuzz: one-pass parser against the split-based original ---

// The split-based parser the one-pass LoggedState::Deserialize replaced,
// kept verbatim (only renamed) as the reference for its grammar and errors.
util::Result<LoggedState> ReferenceDeserialize(const std::string& text) {
  LoggedState state;
  for (const std::string& pair : util::Split(text, ';')) {
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return util::ParseError("bad LoggedState field: " + pair);
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    auto as_int = [&]() -> util::Result<int64_t> {
      const auto v = util::ParseInt(value);
      if (!v) return util::ParseError("bad integer in LoggedState: " + pair);
      return *v;
    };
    if (key == "halted" || key == "detected" || key == "timeout" ||
        key == "envfail") {
      auto v = as_int();
      if (!v.ok()) return v.status();
      const bool flag = v.value() != 0;
      if (key == "halted") state.halted = flag;
      if (key == "detected") state.detected = flag;
      if (key == "timeout") state.timed_out = flag;
      if (key == "envfail") state.env_failed = flag;
    } else if (key == "edm") {
      state.edm = value == "none" ? "" : value;
    } else if (key == "code") {
      auto v = as_int();
      if (!v.ok()) return v.status();
      state.edm_code = static_cast<int32_t>(v.value());
    } else if (key == "cycles") {
      auto v = as_int();
      if (!v.ok()) return v.status();
      state.cycles = static_cast<uint64_t>(v.value());
    } else if (key == "instret") {
      auto v = as_int();
      if (!v.ok()) return v.status();
      state.instret = static_cast<uint64_t>(v.value());
    } else if (key == "iters") {
      auto v = as_int();
      if (!v.ok()) return v.status();
      state.iterations = static_cast<int>(v.value());
    } else if (key == "outputs") {
      if (!value.empty()) {
        for (const std::string& hex : util::Split(value, ',')) {
          const auto v = util::ParseInt("0x" + hex);
          if (!v) return util::ParseError("bad output word: " + hex);
          state.outputs.push_back(static_cast<uint32_t>(*v));
        }
      }
    } else if (util::StartsWith(key, "scan.")) {
      state.scan_images[key.substr(5)] = value;
    } else {
      return util::ParseError("unknown LoggedState key: " + key);
    }
  }
  return state;
}

LoggedState RandomState(util::Rng& rng) {
  static const char* const kEdms[] = {"", "illegal_opcode", "cache_parity_data",
                                      "watchdog_timeout", "none", "a=b"};
  static const char* const kChains[] = {"internal_core", "internal_regfile",
                                        "boundary", "", "x.y"};
  LoggedState state;
  state.halted = rng.NextBool();
  state.detected = rng.NextBool();
  state.edm = kEdms[rng.NextBelow(std::size(kEdms))];
  state.edm_code = static_cast<int32_t>(rng.Next());
  state.timed_out = rng.NextBool();
  state.env_failed = rng.NextBool();
  state.cycles = rng.NextBool() ? rng.Next() : rng.NextBelow(100000);
  state.instret = rng.NextBool() ? rng.Next() : rng.NextBelow(100000);
  state.iterations = static_cast<int>(rng.Next());
  for (uint64_t i = rng.NextBelow(5); i > 0; --i) {
    state.outputs.push_back(static_cast<uint32_t>(rng.Next()));
  }
  for (uint64_t i = rng.NextBelow(4); i > 0; --i) {
    std::string bits;
    for (uint64_t b = rng.NextBelow(40); b > 0; --b) {
      bits.push_back(rng.NextBool() ? '1' : '0');
    }
    state.scan_images[kChains[rng.NextBelow(std::size(kChains))]] = bits;
  }
  return state;
}

/// Position just after a random '=' (the start of a value), or a random
/// position when the text has none.
size_t ValueStart(util::Rng& rng, const std::string& text) {
  std::vector<size_t> starts;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '=') starts.push_back(i + 1);
  }
  if (starts.empty()) return rng.NextBelow(text.size() + 1);
  return starts[rng.NextBelow(starts.size())];
}

/// One random edit covering the grammar's edges: truncation, separators,
/// integer syntax (signs, spaces, hex, overflow) and odd keys.
void Mutate(util::Rng& rng, std::string* text) {
  static const char* const kSeparators[] = {";", "=", ","};
  static const char* const kNumbers[] = {
      "",     "-",     "+",       "--5",    "+-3",   "-+4",   " 7 ",   "\t9",
      "- 8",  "1e3",   "0x",      "0x1F",   "0X1f",  "-0x10", "0x-1",  "00012",
      "abc",  "ffffffff", "1ffffffff", "deadbeefdeadbeefd",
      "18446744073709551615", "18446744073709551616", "99999999999999999999",
      "-9223372036854775808", "9223372036854775808", "0xFFFFFFFFFFFFFFFF",
      "0x10000000000000000"};
  static const char* const kFields[] = {"wat=1;", "halt=1;", "=5;", "=;",
                                        "scan.=0101;", "scan.=;", "edm=;",
                                        "outputs=;", "outputs=,;", "scan.;",
                                        "HALTED=1;", ";;"};
  const size_t at = rng.NextBelow(text->size() + 1);
  switch (rng.NextBelow(9)) {
    case 0:  // truncation
      text->resize(at);
      break;
    case 1:  // inserted separator
      text->insert(at, kSeparators[rng.NextBelow(3)]);
      break;
    case 2: {  // deleted separator
      std::vector<size_t> seps;
      for (size_t i = 0; i < text->size(); ++i) {
        if ((*text)[i] == ';' || (*text)[i] == '=' || (*text)[i] == ',') {
          seps.push_back(i);
        }
      }
      if (!seps.empty()) text->erase(seps[rng.NextBelow(seps.size())], 1);
      break;
    }
    case 3: {  // sign, space or hex prefix at the start of a value
      static const char* const kPrefixes[] = {"-", "+", " ", "\t", "0x", "0X",
                                              "- ", "--"};
      text->insert(ValueStart(rng, *text), kPrefixes[rng.NextBelow(8)]);
      break;
    }
    case 4: {  // a value replaced by an odd number
      const size_t start = ValueStart(rng, *text);
      const size_t end = std::min(text->find_first_of(";,", start), text->size());
      text->replace(start, end - start,
                    kNumbers[rng.NextBelow(std::size(kNumbers))]);
      break;
    }
    case 5: {  // a field duplicated elsewhere
      const size_t start = text->rfind(';', at == 0 ? 0 : at - 1);
      const size_t from = start == std::string::npos ? 0 : start + 1;
      const size_t end = std::min(text->find(';', from), text->size());
      const std::string field = text->substr(from, end - from) + ";";
      text->insert(rng.NextBool() ? text->size() : 0, field);
      break;
    }
    case 6:  // unknown, empty, case-changed or chain-less keys
      text->insert(rng.NextBool() ? text->size() : 0,
                   kFields[rng.NextBelow(std::size(kFields))]);
      break;
    case 7: {  // whitespace anywhere, trailing included
      static const char* const kSpaces[] = {" ", "\t", "\n", "\r\n"};
      text->insert(rng.NextBool() ? at : std::min(text->find(';', at), text->size()),
                   kSpaces[rng.NextBelow(4)]);
      break;
    }
    default: {  // a random character
      static const char kAlphabet[] = "0123456789abcdefxX-+ ;=,.%@";
      text->insert(at, 1, kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]);
      break;
    }
  }
}

/// Empty when both parsers agree on `text`; otherwise what differs.
std::string ParserDifference(const std::string& text) {
  const auto want = ReferenceDeserialize(text);
  const auto got = LoggedState::Deserialize(text);
  if (got.ok() != want.ok() || got.status().code() != want.status().code() ||
      got.status().message() != want.status().message()) {
    return "status " + got.status().ToString() + " vs " +
           want.status().ToString() + " for [" + text + "]";
  }
  if (!want.ok()) return "";
  const LoggedState& a = got.value();
  const LoggedState& b = want.value();
  const bool same = a.halted == b.halted && a.detected == b.detected &&
                    a.edm == b.edm && a.edm_code == b.edm_code &&
                    a.timed_out == b.timed_out && a.env_failed == b.env_failed &&
                    a.cycles == b.cycles && a.instret == b.instret &&
                    a.iterations == b.iterations && a.outputs == b.outputs &&
                    a.scan_images == b.scan_images;
  return same ? "" : "fields differ for [" + text + "]";
}

TEST(LoggedStateFuzzTest, OnePassParserMatchesSplitParser) {
  util::Rng rng(0x10663D);
  constexpr int kInputs = 120000;
  int mismatches = 0;
  int parsed = 0;
  std::map<std::string, int> errors;  // by message prefix
  for (int i = 0; i < kInputs; ++i) {
    std::string text = RandomState(rng).Serialize();
    // One input in eight is a well-formed serialization; the rest carry up
    // to three edits.
    if (i % 8 != 0) {
      for (uint64_t edits = 1 + rng.NextBelow(3); edits > 0; --edits) {
        Mutate(rng, &text);
      }
    }
    const std::string difference = ParserDifference(text);
    if (!difference.empty() && ++mismatches <= 5) ADD_FAILURE() << difference;
    const auto result = ReferenceDeserialize(text);
    if (result.ok()) {
      ++parsed;
    } else {
      const std::string& message = result.status().message();
      ++errors[message.substr(0, message.find(':'))];
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Both outcomes and every error kind must be well represented, or the
  // comparison above proves little.
  EXPECT_GT(parsed, kInputs / 5);
  for (const char* kind : {"bad LoggedState field", "bad integer in LoggedState",
                           "bad output word", "unknown LoggedState key"}) {
    EXPECT_GT(errors[kind], kInputs / 100) << kind;
  }
}

TEST(LoggedStateFuzzTest, IntegerEdgesMatchSplitParser) {
  // Hand-picked integer spellings where strtoull's own whitespace and sign
  // handling shows through ParseInt.
  for (const char* value :
       {"5", "-5", "+5", "--5", "-+5", "+-5", "++5", "- 5", "-  5", " 5 ",
        "\t5\n", "0x10", "0X10", "-0x10", "0x", "0x-1", "- 0x5", "--0x5",
        "18446744073709551615", "18446744073709551616", "-18446744073709551615",
        "-9223372036854775808", "9223372036854775808", "", " ", "-", "+"}) {
    for (const char* key : {"halted", "code", "cycles", "instret", "iters"}) {
      const std::string text = std::string(key) + "=" + value + ";";
      EXPECT_EQ(ParserDifference(text), "") << text;
    }
    const std::string output = std::string("outputs=1,") + value + ",2;";
    EXPECT_EQ(ParserDifference(output), "") << output;
  }
}

/// Empty when parsing `text` into `view`, which callers reuse across inputs
/// as the analysis does, agrees with the reference parser: status and
/// message, every field, and the scan images as the map's sorted and unique
/// (chain, bits) pairs; otherwise what differs.
std::string ViewDifference(const std::string& text, LoggedStateView* view) {
  const auto want = ReferenceDeserialize(text);
  const util::Status got = view->Parse(text);
  if (got.ok() != want.ok() || got.code() != want.status().code() ||
      got.message() != want.status().message()) {
    return "status " + got.ToString() + " vs " + want.status().ToString() +
           " for [" + text + "]";
  }
  if (!want.ok()) return "";
  const LoggedState& b = want.value();
  const LoggedStateView& a = *view;
  const bool same_images = std::equal(
      a.scan_images.begin(), a.scan_images.end(), b.scan_images.begin(),
      b.scan_images.end(), [](const auto& x, const auto& y) {
        return x.first == y.first && x.second == y.second;
      });
  const bool same =
      a.halted == b.halted && a.detected == b.detected && a.edm == b.edm &&
      a.edm_code == b.edm_code && a.timed_out == b.timed_out &&
      a.env_failed == b.env_failed && a.cycles == b.cycles &&
      a.instret == b.instret && a.iterations == b.iterations &&
      a.outputs == b.outputs && same_images;
  return same ? "" : "view fields differ for [" + text + "]";
}

TEST(LoggedStateFuzzTest, ReusedViewMatchesSplitParser) {
  util::Rng rng(0x71E3);
  constexpr int kInputs = 60000;
  LoggedStateView view;  // one view for every input, errors included
  int mismatches = 0;
  int reordered = 0;
  for (int i = 0; i < kInputs; ++i) {
    std::string text = RandomState(rng).Serialize();
    if (i % 8 != 0) {
      for (uint64_t edits = 1 + rng.NextBelow(3); edits > 0; --edits) {
        Mutate(rng, &text);
      }
    }
    // One input in four also carries its scan fields back to front.
    if (i % 4 == 1) {
      std::string scans;
      std::string rest;
      for (const std::string& field : util::Split(text, ';')) {
        if (util::StartsWith(field, "scan.")) {
          scans = field + ";" + scans;
        } else if (!field.empty()) {
          rest += field + ";";
        }
      }
      text = rest + scans;
      ++reordered;
    }
    const std::string difference = ViewDifference(text, &view);
    if (!difference.empty() && ++mismatches <= 5) ADD_FAILURE() << difference;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(reordered, kInputs / 4);
}

TEST(LoggedStateFuzzTest, PlainNumberEdgesMatchSplitParser) {
  // Where plain digits stop being read directly and go through ParseInt.
  LoggedStateView view;
  for (const char* value :
       {"0", "000000000000000000", "999999999999999999", "1000000000000000000",
        "9999999999999999999", "0000000000000000001", "9223372036854775807",
        "9223372036854775808", "12a", "1 ", " 1"}) {
    for (const char* key : {"halted", "code", "cycles", "instret", "iters"}) {
      const std::string text = std::string(key) + "=" + value + ";";
      EXPECT_EQ(ParserDifference(text), "") << text;
      EXPECT_EQ(ViewDifference(text, &view), "") << text;
    }
  }
  for (const char* word :
       {"0", "f", "F", "0000000f", "ffffffff", "FFFFFFFF", "100000000",
        "ffffffffffffffff", "FFFFFFFFFFFFFFFF", "0000000000000000f",
        "10000000000000000", "fffffffffffffffff", "g", "1g", "x1", "", " f"}) {
    const std::string text = std::string("outputs=") + word + ",1;";
    EXPECT_EQ(ParserDifference(text), "") << text;
    EXPECT_EQ(ViewDifference(text, &view), "") << text;
  }
}

// --- differential fuzz: FaultInstance::Parse against the split-based one -----

// The split-based parser FaultInstance::Parse replaced, kept verbatim (only
// renamed) as the reference for its grammar and errors.
util::Result<FaultInstance> ReferenceParseFault(const std::string& text) {
  const std::vector<std::string> fields = util::Split(text, ',');
  if (fields.size() != 8) {
    return util::ParseError("bad FaultInstance encoding: " + text);
  }
  FaultInstance out;
  auto kind = FaultModelFromName(fields[0]);
  if (!kind.ok()) return kind.status();
  out.kind = kind.value();
  out.chain = fields[1];
  const auto chain_bit = util::ParseInt(fields[2]);
  const auto address = util::ParseInt(fields[4]);
  const auto bit = util::ParseInt(fields[5]);
  const auto inject = util::ParseInt(fields[6]);
  const auto stuck = util::ParseInt(fields[7]);
  if (!chain_bit || !address || !bit || !inject || !stuck) {
    return util::ParseError("bad FaultInstance numbers: " + text);
  }
  out.chain_bit = static_cast<uint32_t>(*chain_bit);
  out.cell_name = fields[3];
  out.address = static_cast<uint32_t>(*address);
  out.bit = static_cast<uint32_t>(*bit);
  out.inject_instr = static_cast<uint64_t>(*inject);
  out.stuck_value = *stuck != 0;
  return out;
}

TEST(FaultInstanceFuzzTest, ViewParserMatchesSplitParser) {
  util::Rng rng(0xFA017);
  static const char* const kCells[] = {"regfile.r3", "core.ir", "watchdog",
                                       "memory.data@0x00000010", ""};
  constexpr int kInputs = 40000;
  int mismatches = 0;
  int parsed = 0;
  for (int i = 0; i < kInputs; ++i) {
    FaultInstance fault;
    fault.kind = static_cast<FaultModelKind>(rng.NextBelow(3));
    fault.chain = rng.NextBool() ? "internal_regfile" : "";
    fault.chain_bit = static_cast<uint32_t>(rng.NextBelow(1024));
    fault.cell_name = kCells[rng.NextBelow(std::size(kCells))];
    fault.address = static_cast<uint32_t>(rng.Next());
    fault.bit = static_cast<uint32_t>(rng.NextBelow(32));
    fault.inject_instr = rng.Next();
    fault.stuck_value = rng.NextBool();
    std::string text = fault.Serialize();
    if (i % 4 != 0) {
      for (uint64_t edits = 1 + rng.NextBelow(2); edits > 0; --edits) {
        Mutate(rng, &text);
      }
    }
    const auto want = ReferenceParseFault(text);
    const auto got = FaultInstance::Parse(text);
    bool same = got.ok() == want.ok() &&
                got.status().code() == want.status().code() &&
                got.status().message() == want.status().message();
    if (same && want.ok()) {
      const FaultInstance& a = got.value();
      const FaultInstance& b = want.value();
      same = a.kind == b.kind && a.chain == b.chain &&
             a.chain_bit == b.chain_bit && a.cell_name == b.cell_name &&
             a.address == b.address && a.bit == b.bit &&
             a.inject_instr == b.inject_instr && a.stuck_value == b.stuck_value;
      ++parsed;
    }
    if (!same && ++mismatches <= 5) {
      ADD_FAILURE() << got.status().ToString() << " vs "
                    << want.status().ToString() << " for [" << text << "]";
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(parsed, kInputs / 4);
  EXPECT_LT(parsed, kInputs - kInputs / 8);
}

}  // namespace
}  // namespace goofi::core
