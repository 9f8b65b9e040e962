#include "cpu/cache.hpp"

#include <bit>
#include <cassert>

#include "cpu/state_hash.hpp"

namespace goofi::cpu {

ParityCache::ParityCache(uint32_t num_lines, uint32_t address_bits,
                         EdmType parity_edm)
    : lines_(num_lines), parity_edm_(parity_edm) {
  assert(num_lines > 0 && (num_lines & (num_lines - 1)) == 0);
  index_bits_ = static_cast<uint32_t>(std::countr_zero(num_lines));
  // Word-address space is address_bits-2 bits wide.
  const uint32_t word_bits = address_bits > 2 ? address_bits - 2 : 1;
  tag_bits_ = word_bits > index_bits_ ? word_bits - index_bits_ : 1;
  index_mask_ = num_lines - 1;
  tag_mask_ = tag_bits_ >= 32 ? ~0u : (1u << tag_bits_) - 1;
}

void ParityCache::Flush() {
  for (Line& line : lines_) line = Line{};
}

void ParityCache::HashState(StateHasher* hasher) const {
  for (const Line& line : lines_) {
    hasher->Bool(line.valid);
    hasher->U32(line.tag);
    hasher->U32(line.data);
    hasher->Bool(line.parity);
  }
  hasher->U64(hits_);
  hasher->U64(misses_);
}

}  // namespace goofi::cpu
