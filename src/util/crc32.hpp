// CRC-32 (IEEE 802.3 polynomial). Used to checksum persisted database files
// and as the control-flow signature primitive in the CPU's EDM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace goofi::util {

/// Incremental CRC-32. Feed bytes, read Value() at any point.
class Crc32 {
 public:
  void Update(const void* data, size_t size);
  void Update(std::string_view text) { Update(text.data(), text.size()); }
  void UpdateWord(uint32_t word);

  /// Final (post-inverted) CRC of everything fed so far.
  uint32_t Value() const { return ~state_; }

  void Reset() { state_ = 0xFFFFFFFFu; }

  /// Raw accumulator access for checkpoint save/restore. `raw_state` is the
  /// pre-inverted internal state, not Value(); round-trips exactly.
  uint32_t raw_state() const { return state_; }
  void set_raw_state(uint32_t state) { state_ = state; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience.
uint32_t Crc32Of(std::string_view text);

/// The two CRC kernels behind Crc32::Update, exposed so tests can hold them
/// against each other. Both take and return the raw (pre-inverted) state and
/// give identical values for every input. Update picks the carry-less fold
/// for inputs of kMinFoldBytes or more when the CPU has it, detected once at
/// run time; nothing else selects a kernel.
namespace crc32_detail {

inline constexpr size_t kMinFoldBytes = 64;

/// Slice-by-8 table walk: any length, any CPU.
uint32_t UpdateTable(uint32_t state, const unsigned char* bytes, size_t size);

/// Whether this CPU has PCLMULQDQ and SSE4.1 (always false off x86).
bool HasCarrylessFold();

/// Folds the input's whole 16-byte blocks with carry-less multiplies when it
/// is at least kMinFoldBytes long, and the rest with the table walk.
/// Precondition: HasCarrylessFold().
uint32_t UpdateCarryless(uint32_t state, const unsigned char* bytes,
                         size_t size);

}  // namespace crc32_detail

}  // namespace goofi::util
