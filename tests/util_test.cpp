// Unit tests for goofi::util — status/result, RNG, bit vectors, strings,
// CRC32, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <random>
#include <set>
#include <vector>

#include "util/bitvec.hpp"
#include "util/crc32.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace goofi::util {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = NotFound("thing is missing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "thing is missing");
  EXPECT_EQ(status.ToString(), "not_found: thing is missing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(StatusCode::kInternal); ++code) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(code)), "unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFound("x"), NotFound("x"));
  EXPECT_FALSE(NotFound("x") == NotFound("y"));
  EXPECT_FALSE(NotFound("x") == InvalidArgument("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(InvalidArgument("bad"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(-7), -7);
}

TEST(ResultTest, ValueOrDieThrowsOnError) {
  Result<int> result(Internal("boom"));
  EXPECT_THROW(result.ValueOrDie(), std::runtime_error);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(RngTest, NextBelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.25) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.03);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.SampleWithoutReplacement(100, 20);
    ASSERT_EQ(sample.size(), 20u);
    std::set<uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (uint64_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, SampleFullRangeIsPermutation) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

// --- BitVec -------------------------------------------------------------------

TEST(BitVecTest, StartsZeroed) {
  BitVec bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.PopCount(), 0u);
  for (size_t i = 0; i < bits.size(); ++i) EXPECT_FALSE(bits.Get(i));
}

TEST(BitVecTest, SetGetFlip) {
  BitVec bits(70);
  bits.Set(0, true);
  bits.Set(63, true);
  bits.Set(64, true);
  bits.Set(69, true);
  EXPECT_TRUE(bits.Get(0));
  EXPECT_TRUE(bits.Get(63));
  EXPECT_TRUE(bits.Get(64));
  EXPECT_TRUE(bits.Get(69));
  EXPECT_EQ(bits.PopCount(), 4u);
  bits.Flip(63);
  EXPECT_FALSE(bits.Get(63));
  bits.Flip(1);
  EXPECT_TRUE(bits.Get(1));
  EXPECT_EQ(bits.PopCount(), 4u);
}

TEST(BitVecTest, PushBackGrows) {
  BitVec bits;
  for (int i = 0; i < 100; ++i) bits.PushBack(i % 3 == 0);
  EXPECT_EQ(bits.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(bits.Get(static_cast<size_t>(i)), i % 3 == 0);
  }
}

TEST(BitVecTest, AppendExtractWordRoundTrip) {
  BitVec bits;
  bits.AppendWord(0xDEADBEEF, 32);
  bits.AppendWord(0x5, 3);
  bits.AppendWord(0x123456789ABCDEFULL, 64);
  EXPECT_EQ(bits.size(), 99u);
  EXPECT_EQ(bits.ExtractWord(0, 32), 0xDEADBEEFu);
  EXPECT_EQ(bits.ExtractWord(32, 3), 0x5u);
  EXPECT_EQ(bits.ExtractWord(35, 64), 0x123456789ABCDEFULL);
}

TEST(BitVecTest, DepositWordOverwrites) {
  BitVec bits(64);
  bits.DepositWord(10, 0xFFu, 8);
  EXPECT_EQ(bits.ExtractWord(10, 8), 0xFFu);
  EXPECT_EQ(bits.PopCount(), 8u);
  bits.DepositWord(10, 0xA5u, 8);
  EXPECT_EQ(bits.ExtractWord(10, 8), 0xA5u);
}

TEST(BitVecTest, DiffBitsFindsExactPositions) {
  BitVec a(200);
  BitVec b(200);
  b.Set(3, true);
  b.Set(64, true);
  b.Set(199, true);
  const auto diff = a.DiffBits(b);
  EXPECT_EQ(diff, (std::vector<size_t>{3, 64, 199}));
}

TEST(BitVecTest, XorWith) {
  BitVec a(10);
  BitVec b(10);
  a.Set(1, true);
  b.Set(1, true);
  b.Set(2, true);
  a.XorWith(b);
  EXPECT_FALSE(a.Get(1));
  EXPECT_TRUE(a.Get(2));
}

TEST(BitVecTest, EqualityIncludesSize) {
  BitVec a(8);
  BitVec b(9);
  EXPECT_NE(a, b);
  BitVec c(8);
  EXPECT_EQ(a, c);
  c.Set(5, true);
  EXPECT_NE(a, c);
}

TEST(BitVecTest, StringRoundTrip) {
  BitVec bits(17);
  bits.Set(0, true);
  bits.Set(16, true);
  const std::string text = bits.ToString();
  EXPECT_EQ(text.size(), 17u);
  EXPECT_EQ(text.front(), '1');
  EXPECT_EQ(text.back(), '1');
  auto parsed = BitVec::FromString(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), bits);
}

TEST(BitVecTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(BitVec::FromString("0102").ok());
  EXPECT_FALSE(BitVec::FromString("01x").ok());
  EXPECT_TRUE(BitVec::FromString("").ok());
}

TEST(BitVecTest, ToHexWholeWords) {
  BitVec bits(64);
  bits.DepositWord(0, 0x1234ABCDu, 32);
  EXPECT_EQ(bits.ToHex(), "0x000000001234abcd");
}

// Per-bit ExtractWord/DepositWord, the oracle for the shift-and-mask forms.
uint64_t BitLoopExtractWord(const BitVec& v, size_t offset, size_t bits) {
  uint64_t out = 0;
  for (size_t b = 0; b < bits; ++b) {
    if (v.Get(offset + b)) out |= 1ULL << b;
  }
  return out;
}

void BitLoopDepositWord(BitVec* v, size_t offset, uint64_t value, size_t bits) {
  for (size_t b = 0; b < bits; ++b) v->Set(offset + b, (value >> b) & 1u);
}

TEST(BitVecTest, WordAccessMatchesBitLoopForEveryField) {
  // Every (offset, bits) field of a 3-word vector, bits 0..64 included, so
  // fields start and end on and across both word boundaries. 190 bits leaves
  // unused high bits in the last word, which must stay zero for operator==.
  Rng rng(0x5EEDB175);
  for (const size_t size : {size_t{192}, size_t{190}}) {
    BitVec zeros(size);
    BitVec ones(size);
    BitVec noise(size);
    for (size_t i = 0; i < size; ++i) {
      ones.Set(i, true);
      noise.Set(i, (rng.Next() & 1u) != 0);
    }
    for (const BitVec* base : {&zeros, &ones, &noise}) {
      for (size_t bits = 0; bits <= 64; ++bits) {
        for (size_t offset = 0; offset + bits <= size; ++offset) {
          SCOPED_TRACE("size " + std::to_string(size) + " offset " +
                       std::to_string(offset) + " bits " + std::to_string(bits));
          ASSERT_EQ(base->ExtractWord(offset, bits),
                    BitLoopExtractWord(*base, offset, bits));
          // Bits of `value` above `bits` must be ignored.
          const uint64_t value = rng.Next();
          BitVec deposited = *base;
          BitVec expected = *base;
          deposited.DepositWord(offset, value, bits);
          BitLoopDepositWord(&expected, offset, value, bits);
          ASSERT_EQ(deposited, expected);
          for (const size_t diff : deposited.DiffBits(*base)) {
            ASSERT_GE(diff, offset);
            ASSERT_LT(diff, offset + bits) << "neighbouring bit changed";
          }
        }
      }
    }
  }
}

// --- strings -------------------------------------------------------------------

TEST(StringsTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitWhitespaceDropsEmpties) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"one"}, ","), "one");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("MiXeD123"), "mixed123");
  EXPECT_EQ(ToUpper("MiXeD123"), "MIXED123");
}

TEST(StringsTest, CaseFoldingAgreesWithLibcOnEveryByte) {
  for (int a = 0; a < 256; ++a) {
    const std::string sa(1, static_cast<char>(a));
    ASSERT_EQ(ToLower(sa), std::string(1, static_cast<char>(std::tolower(a))))
        << a;
    ASSERT_EQ(ToUpper(sa), std::string(1, static_cast<char>(std::toupper(a))))
        << a;
    for (int b = 0; b < 256; ++b) {
      const std::string sb(1, static_cast<char>(b));
      ASSERT_EQ(EqualsIgnoreCase(sa, sb), std::tolower(a) == std::tolower(b))
          << a << " vs " << b;
    }
  }
}

TEST(StringsTest, ParseIntDecimalHexNegative) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-17"), -17);
  EXPECT_EQ(ParseInt("0x1F"), 31);
  EXPECT_EQ(ParseInt("-0x10"), -16);
  EXPECT_EQ(ParseInt("  8 "), 8);
  EXPECT_EQ(ParseInt("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(ParseInt("18446744073709551615"), -1);
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("12abc").has_value());
  EXPECT_FALSE(ParseInt("abc").has_value());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("x").has_value());
  EXPECT_FALSE(ParseDouble("1.2.3").has_value());
}

TEST(StringsTest, FormatBehavesLikePrintf) {
  EXPECT_EQ(Format("%d-%s-%02x", 7, "x", 11), "7-x-0b");
  EXPECT_EQ(Format("empty"), "empty");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("scan.core", "scan."));
  EXPECT_FALSE(StartsWith("sc", "scan."));
}

// --- crc32 ---------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(Crc32Of("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32Of(""), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Crc32 crc;
  crc.Update("hello ");
  crc.Update("world");
  EXPECT_EQ(crc.Value(), Crc32Of("hello world"));
}

TEST(Crc32Test, UpdateWordLittleEndian) {
  Crc32 a;
  a.UpdateWord(0x04030201);
  Crc32 b;
  const unsigned char bytes[] = {1, 2, 3, 4};
  b.Update(bytes, 4);
  EXPECT_EQ(a.Value(), b.Value());
}

TEST(Crc32Test, ResetStartsOver) {
  Crc32 crc;
  crc.Update("junk");
  crc.Reset();
  crc.Update("123456789");
  EXPECT_EQ(crc.Value(), 0xCBF43926u);
}

std::vector<unsigned char> RandomBytes(size_t size, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> bytes(size);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

/// Bit-at-a-time CRC-32 of the reflected 0xEDB88320 polynomial, raw state in
/// and out: shares no table or kernel with util::Crc32.
uint32_t BitwiseUpdate(uint32_t state, const unsigned char* bytes,
                       size_t size) {
  for (size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    for (int k = 0; k < 8; ++k) {
      state = (state & 1u) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
    }
  }
  return state;
}

TEST(Crc32Test, TableKernelMatchesBitwiseReference) {
  const std::vector<unsigned char> bytes = RandomBytes(300, 1);
  for (size_t len = 0; len <= bytes.size(); ++len) {
    EXPECT_EQ(crc32_detail::UpdateTable(0xFFFFFFFFu, bytes.data(), len),
              BitwiseUpdate(0xFFFFFFFFu, bytes.data(), len))
        << "length " << len;
  }
}

TEST(Crc32Test, CarrylessMatchesTableForEveryLengthAndAlignment) {
  if (!crc32_detail::HasCarrylessFold()) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ or SSE4.1: Update runs the "
                    "table kernel only";
  }
  const std::vector<unsigned char> bytes = RandomBytes(1024 + 16, 2);
  std::mt19937 rng(3);
  for (size_t align = 0; align < 16; ++align) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint32_t state = static_cast<uint32_t>(rng());
      const unsigned char* start = bytes.data() + align;
      ASSERT_EQ(crc32_detail::UpdateCarryless(state, start, len),
                crc32_detail::UpdateTable(state, start, len))
          << "length " << len << ", alignment " << align;
    }
  }
}

TEST(Crc32Test, CarrylessMatchesTableOnMultiMegabyteInputs) {
  if (!crc32_detail::HasCarrylessFold()) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ or SSE4.1: Update runs the "
                    "table kernel only";
  }
  const std::vector<unsigned char> bytes = RandomBytes((5u << 20) + 64, 4);
  for (const size_t len : {size_t{1} << 20, (size_t{3} << 20) + 7,
                           (size_t{5} << 20) + 61}) {
    for (const size_t align : {size_t{0}, size_t{3}}) {
      EXPECT_EQ(crc32_detail::UpdateCarryless(0xFFFFFFFFu, bytes.data() + align,
                                              len),
                crc32_detail::UpdateTable(0xFFFFFFFFu, bytes.data() + align, len))
          << "length " << len << ", alignment " << align;
    }
  }
}

TEST(Crc32Test, RandomSplitPointsMatchOneShot) {
  // Update takes whichever kernel suits each piece's length, so a split
  // stream mixes the kernels; its value must not depend on the split.
  const std::vector<unsigned char> bytes = RandomBytes(20000, 5);
  const uint32_t whole = ~BitwiseUpdate(0xFFFFFFFFu, bytes.data(), bytes.size());
  std::mt19937 rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    Crc32 crc;
    size_t pos = 0;
    while (pos < bytes.size()) {
      // Mostly short pieces, with pieces past the fold threshold mixed in.
      const size_t limit = rng() % 4 == 0 ? 3000 : 80;
      const size_t piece = std::min(bytes.size() - pos, size_t{rng() % limit});
      crc.Update(bytes.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(crc.Value(), whole) << "trial " << trial;
  }
}

// --- log -------------------------------------------------------------------------

TEST(LogTest, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::pair<LogLevel, std::string>> seen;
  Log::SetSink([&seen](LogLevel level, const std::string& message) {
    seen.emplace_back(level, message);
  });
  Log::SetLevel(LogLevel::kWarn);
  Log::Debug("nope");
  Log::Info("nope");
  Log::Warn("yes1");
  Log::Error("yes2");
  Log::SetSink(nullptr);
  Log::SetLevel(LogLevel::kWarn);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].second, "yes1");
  EXPECT_EQ(seen[1].first, LogLevel::kError);
}

}  // namespace
}  // namespace goofi::util
