#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GOOFI_CRC32_CARRYLESS 1
#endif

namespace goofi::util {

namespace {

// Slice-by-8: eight derived tables let the hot loop fold 8 input bytes per
// iteration instead of 1. Same IEEE 802.3 polynomial, same resulting CRC as
// the classic byte-at-a-time loop — only the walk order differs.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

SliceTables MakeTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (size_t t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

const SliceTables& Tables() {
  static const SliceTables tables = MakeTables();
  return tables;
}

#ifdef GOOFI_CRC32_CARRYLESS

// Carry-less multiply folding after Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with the
// paper's constants for the bit-reflected polynomial 0xEDB88320: k1/k2 fold a
// 128-bit lane 512 bits ahead, k3/k4 128 bits ahead, k5 folds 96 bits to 64,
// and P'/mu' drive the final Barrett reduction to 32 bits.

/// acc * x^(fold distance) mod P, folded onto `next`: the two 64-bit halves
/// of `acc` multiplied by the two constants of `k`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i FoldLane(__m128i acc,
                                                                 __m128i k,
                                                                 __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load16(
    const unsigned char* bytes) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes));
}

/// Raw CRC state after folding `size` bytes into `state`. Precondition:
/// size >= 64 and a multiple of 16.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldCarryless(
    uint32_t state, const unsigned char* bytes, size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  const __m128i k3k4 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163CD6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four lanes of 128 bits; the running state enters through the first.
  __m128i x1 = _mm_xor_si128(Load16(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = Load16(bytes + 16);
  __m128i x3 = Load16(bytes + 32);
  __m128i x4 = Load16(bytes + 48);
  bytes += 64;
  size -= 64;
  while (size >= 64) {
    x1 = FoldLane(x1, k1k2, Load16(bytes));
    x2 = FoldLane(x2, k1k2, Load16(bytes + 16));
    x3 = FoldLane(x3, k1k2, Load16(bytes + 32));
    x4 = FoldLane(x4, k1k2, Load16(bytes + 48));
    bytes += 64;
    size -= 64;
  }
  // Fold the four lanes into one, then the remaining 16-byte blocks.
  x1 = FoldLane(x1, k3k4, x2);
  x1 = FoldLane(x1, k3k4, x3);
  x1 = FoldLane(x1, k3k4, x4);
  while (size >= 16) {
    x1 = FoldLane(x1, k3k4, Load16(bytes));
    bytes += 16;
    size -= 16;
  }
  // 128 bits to 64, then 96 bits to 64.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction to the 32-bit remainder.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // GOOFI_CRC32_CARRYLESS

}  // namespace

namespace crc32_detail {

uint32_t UpdateTable(uint32_t state, const unsigned char* bytes, size_t size) {
  const auto& t = Tables();
  // The 8-byte fold reads the input as two little-endian words; on a
  // big-endian host fall back to the (table[0]-only) tail loop below.
  while (std::endian::native == std::endian::little && size >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, bytes, 4);
    std::memcpy(&hi, bytes + 4, 4);
    lo ^= state;
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][(lo >> 24) & 0xFFu] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][(hi >> 24) & 0xFFu];
    bytes += 8;
    size -= 8;
  }
  for (size_t i = 0; i < size; ++i) {
    state = t[0][(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

bool HasCarrylessFold() {
#ifdef GOOFI_CRC32_CARRYLESS
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
#else
  return false;
#endif
}

uint32_t UpdateCarryless(uint32_t state, const unsigned char* bytes,
                         size_t size) {
#ifdef GOOFI_CRC32_CARRYLESS
  if (size >= kMinFoldBytes) {
    const size_t folded = size & ~size_t{15};
    state = FoldCarryless(state, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return UpdateTable(state, bytes, size);
}

}  // namespace crc32_detail

void Crc32::Update(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  state_ = size >= crc32_detail::kMinFoldBytes &&
                   crc32_detail::HasCarrylessFold()
               ? crc32_detail::UpdateCarryless(state_, bytes, size)
               : crc32_detail::UpdateTable(state_, bytes, size);
}

void Crc32::UpdateWord(uint32_t word) {
  unsigned char bytes[4] = {
      static_cast<unsigned char>(word & 0xFF),
      static_cast<unsigned char>((word >> 8) & 0xFF),
      static_cast<unsigned char>((word >> 16) & 0xFF),
      static_cast<unsigned char>((word >> 24) & 0xFF),
  };
  Update(bytes, 4);
}

uint32_t Crc32Of(std::string_view text) {
  Crc32 crc;
  crc.Update(text);
  return crc.Value();
}

}  // namespace goofi::util
