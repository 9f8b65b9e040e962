// Order-sensitive 64-bit FNV-1a digest of database cells, used by the output
// check to compare a benchmark session's tables with the cold serial
// reference. Every cell is type-tagged and length-prefixed, so the stream of
// cells decodes unambiguously: NULL, 0, "0" and "" all digest differently,
// and moving a byte from one cell to the next changes the digest.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace perfbench {

class CellDigest {
 public:
  void Null() { Tag(0); }
  void Int(int64_t value) {
    Tag(1);
    Raw(&value, sizeof value);
  }
  void Real(double value) {
    Tag(2);
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Raw(&bits, sizeof bits);
  }
  void Text(std::string_view text) {
    Tag(3);
    const uint64_t size = text.size();
    Raw(&size, sizeof size);
    Raw(text.data(), text.size());
  }
  /// Marks the end of a row, so rows of different widths cannot alias.
  void EndRow() { Tag(4); }

  uint64_t value() const { return hash_; }

 private:
  void Tag(uint8_t tag) { Raw(&tag, 1); }
  void Raw(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }

  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
