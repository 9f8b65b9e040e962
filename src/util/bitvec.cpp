#include "util/bitvec.hpp"

#include <bit>
#include <cassert>

namespace goofi::util {

namespace {
/// The low `bits` bits set; bits <= 64 (a shift by 64 would be UB).
uint64_t LowMask(size_t bits) {
  return bits == 64 ? ~0ULL : (1ULL << bits) - 1;
}
}  // namespace

bool BitVec::Get(size_t i) const {
  assert(i < size_);
  return (words_[i / 64] >> (i % 64)) & 1u;
}

void BitVec::Set(size_t i, bool value) {
  assert(i < size_);
  const uint64_t mask = 1ULL << (i % 64);
  if (value) {
    words_[i / 64] |= mask;
  } else {
    words_[i / 64] &= ~mask;
  }
}

void BitVec::Flip(size_t i) {
  assert(i < size_);
  words_[i / 64] ^= 1ULL << (i % 64);
}

void BitVec::PushBack(bool value) {
  if (size_ % 64 == 0) words_.push_back(0);
  ++size_;
  Set(size_ - 1, value);
}

void BitVec::AppendWord(uint64_t value, size_t bits) {
  assert(bits <= 64);
  if (bits == 0) return;
  value &= LowMask(bits);
  const size_t bit_off = size_ % 64;
  size_ += bits;
  words_.resize((size_ + 63) / 64, 0);
  words_[(size_ - bits) / 64] |= value << bit_off;
  if (bit_off != 0 && bit_off + bits > 64) {
    words_[(size_ - 1) / 64] |= value >> (64 - bit_off);
  }
}

// A field of at most 64 bits spans at most two words: the low part sits at
// `shift` in word `offset / 64`, and when shift + bits > 64 the remaining
// high part sits at bit 0 of the next word.

uint64_t BitVec::ExtractWord(size_t offset, size_t bits) const {
  assert(bits <= 64);
  assert(offset + bits <= size_);
  if (bits == 0) return 0;
  const size_t word = offset / 64;
  const size_t shift = offset % 64;
  uint64_t out = words_[word] >> shift;
  if (shift + bits > 64) out |= words_[word + 1] << (64 - shift);
  return out & LowMask(bits);
}

void BitVec::DepositWord(size_t offset, uint64_t value, size_t bits) {
  assert(bits <= 64);
  assert(offset + bits <= size_);
  if (bits == 0) return;
  const uint64_t mask = LowMask(bits);
  value &= mask;
  const size_t word = offset / 64;
  const size_t shift = offset % 64;
  words_[word] = (words_[word] & ~(mask << shift)) | (value << shift);
  if (shift + bits > 64) {
    const size_t spill = 64 - shift;  // in 1..63 here
    words_[word + 1] = (words_[word + 1] & ~(mask >> spill)) | (value >> spill);
  }
}

size_t BitVec::PopCount() const {
  size_t count = 0;
  for (uint64_t w : words_) count += static_cast<size_t>(std::popcount(w));
  return count;
}

std::vector<size_t> BitVec::DiffBits(const BitVec& other) const {
  assert(size_ == other.size_);
  std::vector<size_t> diffs;
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t x = words_[w] ^ other.words_[w];
    while (x != 0) {
      const int b = std::countr_zero(x);
      diffs.push_back(w * 64 + static_cast<size_t>(b));
      x &= x - 1;
    }
  }
  return diffs;
}

void BitVec::XorWith(const BitVec& other) {
  assert(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] ^= other.words_[w];
}

bool BitVec::operator==(const BitVec& other) const {
  if (size_ != other.size_) return false;
  // Trailing bits past size_ are always zero (Set/PushBack maintain this),
  // so whole-word comparison is exact.
  return words_ == other.words_;
}

std::string BitVec::ToString() const {
  // Word-at-a-time: start from all-'0' and flip only the set positions.
  // State vectors are mostly zeros, so this touches far fewer characters
  // than a per-bit Get() loop (this runs once per retired instruction in
  // detail-mode logging).
  std::string out(size_, '0');
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t bits = words_[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      out[w * 64 + static_cast<size_t>(b)] = '1';
      bits &= bits - 1;
    }
  }
  return out;
}

Result<BitVec> BitVec::FromString(const std::string& text) {
  BitVec out(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '1') {
      out.Set(i, true);
    } else if (text[i] != '0') {
      return ParseError("BitVec::FromString: invalid character at index " +
                        std::to_string(i));
    }
  }
  return out;
}

std::string BitVec::ToHex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(words_.size() * 16 + 2);
  out += "0x";
  for (size_t w = words_.size(); w-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(words_[w] >> shift) & 0xF]);
    }
  }
  return out;
}

}  // namespace goofi::util
