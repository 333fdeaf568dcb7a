// Cache_Remap (paper §2): a permutation of ring positions that places
// adjacent logical positions in different cache lines, so that the strictly
// sequential slot traffic generated by F&A on Head/Tail does not serialize on
// one line, and a given line is not reused for as long as possible.
//
// We use the transpose permutation of a (lines x entries-per-line) matrix:
// position p maps to line (p mod lines) at intra-line offset (p / lines).
// Consecutive positions touch consecutive lines; a line is revisited only
// after `lines` steps — for the paper's 2^16-slot rings that is 8K (SCQ) or
// 16K (wCQ) operations apart.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>

#include "common/align.hpp"
#include "core/entry.hpp"

namespace wcq {

class CacheRemap {
 public:
  // `slot_bytes` is sizeof of one ring slot (8 for SCQ entries, 16 for wCQ
  // entry pairs). `enabled=false` gives the identity map (ablation bench).
  // Ring sizes and slot sizes are powers of two, so lines is one too and
  // the map is a mask and two shifts, not a runtime division.
  CacheRemap(u64 ring_size, std::size_t slot_bytes, bool enabled = true) {
    const u64 per_line = kCacheLine / slot_bytes;
    assert(std::has_single_bit(ring_size) && std::has_single_bit(per_line));
    if (enabled && ring_size > per_line) {
      const u64 lines = ring_size / per_line;
      line_mask_ = lines - 1;
      line_shift_ = static_cast<unsigned>(std::countr_zero(lines));
      per_line_shift_ = static_cast<unsigned>(std::countr_zero(per_line));
    }
  }

  // (pos % lines) * per_line + pos / lines.
  u64 operator()(u64 pos) const {
    if (line_mask_ == 0) return pos;
    return ((pos & line_mask_) << per_line_shift_) + (pos >> line_shift_);
  }

  bool enabled() const { return line_mask_ != 0; }

 private:
  u64 line_mask_ = 0;  // lines - 1; 0 = identity
  unsigned line_shift_ = 0;
  unsigned per_line_shift_ = 0;
};

}  // namespace wcq
