// Parity-protected direct-mapped cache.
//
// The Thor RD "featur[es] parity protected instruction and data caches"
// (paper §1) — its headline error-detection upgrade over the original Thor.
// Each line stores a valid bit, tag, one data word and an even-parity bit
// covering all of them. Parity is computed on fill and checked on every hit;
// a scan-chain bit flip in any line bit therefore surfaces as a parity
// detection on the next access to that line. Write policy is write-through /
// no-write-allocate, which keeps main memory authoritative.
#pragma once

#include <cstdint>
#include <vector>

#include "cpu/edm.hpp"

namespace goofi::cpu {

class StateHasher;

class ParityCache {
 public:
  /// `num_lines` must be a power of two. `address_bits` bounds the tag width.
  ParityCache(uint32_t num_lines, uint32_t address_bits, EdmType parity_edm);

  uint32_t num_lines() const { return static_cast<uint32_t>(lines_.size()); }
  uint32_t tag_bits() const { return tag_bits_; }
  EdmType parity_edm() const { return parity_edm_; }

  struct LookupResult {
    bool hit = false;
    bool parity_error = false;
    uint32_t value = 0;
  };

  /// Looks up a word address (byte address / 4). On a hit, verifies parity.
  LookupResult Lookup(uint32_t word_address) {
    LookupResult out;
    const Line& line = lines_[IndexOf(word_address)];
    if (!line.valid || line.tag != TagOf(word_address)) {
      ++misses_;
      return out;
    }
    ++hits_;
    out.hit = true;
    out.value = line.data;
    out.parity_error = ComputeParity(line) != line.parity;
    return out;
  }

  /// Inline clean-hit probe for the superblock fast path: on a valid-line
  /// tag match with correct parity, counts the hit and returns the word.
  /// Everything else (miss, parity mismatch) counts *nothing* and returns
  /// false — the caller falls back to the full Lookup, which then performs
  /// the statistics accounting and error signalling, so the two-step probe
  /// is observationally identical to calling Lookup directly.
  bool FastHit(uint32_t word_address, uint32_t* value) {
    const Line& line = lines_[IndexOf(word_address)];
    if (!line.valid || line.tag != TagOf(word_address)) return false;
    if (ComputeParity(line) != line.parity) return false;
    ++hits_;
    *value = line.data;
    return true;
  }

  /// Installs a word (read miss fill). Recomputes parity.
  void Fill(uint32_t word_address, uint32_t value) {
    Line& line = lines_[IndexOf(word_address)];
    line.valid = true;
    line.tag = TagOf(word_address);
    line.data = value;
    line.parity = ComputeParity(line);
  }

  /// Write-through update: if the line holds this address, update the data
  /// and recompute parity; otherwise no allocation happens.
  void WriteThrough(uint32_t word_address, uint32_t value) {
    Line& line = lines_[IndexOf(word_address)];
    if (line.valid && line.tag == TagOf(word_address)) {
      line.data = value;
      line.parity = ComputeParity(line);
    }
  }

  /// Invalidates all lines.
  void Flush();

  // Scan-chain access to individual line fields. Index < num_lines().
  bool line_valid(uint32_t index) const { return lines_[index].valid; }
  uint32_t line_tag(uint32_t index) const { return lines_[index].tag; }
  uint32_t line_data(uint32_t index) const { return lines_[index].data; }
  bool line_parity(uint32_t index) const { return lines_[index].parity; }
  void set_line_valid(uint32_t index, bool v) { lines_[index].valid = v; }
  void set_line_tag(uint32_t index, uint32_t v) { lines_[index].tag = v & tag_mask_; }
  void set_line_data(uint32_t index, uint32_t v) { lines_[index].data = v; }
  void set_line_parity(uint32_t index, bool v) { lines_[index].parity = v; }

  /// Statistics for the cycle model and benches.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  void ResetStats() { hits_ = misses_ = 0; }

  struct Line {
    bool valid = false;
    uint32_t tag = 0;
    uint32_t data = 0;
    bool parity = false;
  };

  /// Full cache state for checkpointing: every line field (valid, tag, data,
  /// parity) plus hit/miss stats, since the cycle model (and hence timeout
  /// behaviour) depends on hit/miss patterns after restore.
  struct Snapshot {
    std::vector<Line> lines;
    uint64_t hits = 0;
    uint64_t misses = 0;

    size_t MemoryBytes() const { return lines.size() * sizeof(Line); }
  };

  /// Appends the full cache state — every line field plus hit/miss stats —
  /// to a convergence hash. Same coverage as Snapshot, and for the same
  /// reason: the cycle model depends on hit/miss patterns, so two states are
  /// only execution-equivalent if their caches (and stats) match.
  void HashState(StateHasher* hasher) const;

  Snapshot SaveSnapshot() const { return {lines_, hits_, misses_}; }
  void RestoreSnapshot(const Snapshot& snapshot) {
    lines_ = snapshot.lines;
    hits_ = snapshot.hits;
    misses_ = snapshot.misses;
  }

 private:
  // The cache is on every fetch and data access of the fast path, so the
  // line geometry is kept as masks fixed at construction.
  uint32_t IndexOf(uint32_t word_address) const {
    return word_address & index_mask_;
  }
  uint32_t TagOf(uint32_t word_address) const {
    return (word_address >> index_bits_) & tag_mask_;
  }

  /// Even parity over valid + tag + data. In the header so the hit paths
  /// inline.
  static bool ComputeParity(const Line& line) {
    const uint32_t acc = line.data ^ line.tag ^ (line.valid ? 1u : 0u);
    return (__builtin_popcount(acc) & 1) != 0;
  }

  std::vector<Line> lines_;
  uint32_t index_bits_ = 0;
  uint32_t tag_bits_ = 0;
  uint32_t index_mask_ = 0;  ///< num_lines - 1
  uint32_t tag_mask_ = 0;    ///< tag_bits low bits set
  EdmType parity_edm_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace goofi::cpu
