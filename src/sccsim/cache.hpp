// Functional set-associative cache with LRU replacement.
//
// "Functional" means every line carries a real 32-byte data copy. The SCC
// provides no coherence between cores, so a line can go stale the moment
// another core writes the backing memory — and because the data here is
// real, a missing flush or invalidate in the SVM protocol produces a wrong
// computation result, exactly as on hardware. Several tests rely on this
// (they break the protocol on purpose and assert the corruption appears).
//
// Policy notes (P54C as modelled in the paper):
//   - write-through: stores never dirty a line; they update a present line
//     and always propagate downstream.
//   - read-allocate only: a store to an absent line does NOT allocate
//     ("the P54C cores are not able to update the cache entries on a write
//     miss", Section 7.2.2).
//   - each line carries the MPBT tag bit; CL1INVMB invalidates exactly the
//     tagged lines (invalidate_mpbt()).
//
// Headers and payloads live in zero-on-demand pages (sim::ZeroPages): an
// all-zero header is an invalid line, so construction writes nothing and a
// cache the program never fills (an L2 that only MPBT traffic bypasses)
// costs no host memory.
#pragma once

#include <cassert>
#include <cstring>

#include "sim/types.hpp"
#include "sim/zero_pages.hpp"

namespace msvm::scc {

class Cache {
 public:
  Cache(u32 total_bytes, u32 assoc, u32 line_bytes)
      : line_bytes_(line_bytes),
        assoc_(assoc),
        num_sets_(total_bytes / line_bytes / assoc),
        headers_(num_lines() * sizeof(Line)),
        data_(num_lines() * line_bytes) {
    assert(num_sets_ > 0 && (num_sets_ & (num_sets_ - 1)) == 0 &&
           "set count must be a power of two");
    assert((line_bytes & (line_bytes - 1)) == 0 &&
           "line size must be a power of two");
    while ((u32{1} << line_shift_) < line_bytes) ++line_shift_;
  }

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  u32 line_bytes() const { return line_bytes_; }
  u32 num_sets() const { return num_sets_; }
  u32 assoc() const { return assoc_; }

  u64 line_addr(u64 paddr) const { return paddr & ~u64{line_bytes_ - 1}; }

  /// True if the line containing `paddr` is present (no LRU update).
  bool probe(u64 paddr) const { return find(paddr) != kMiss; }

  /// Reads `size` bytes if present; returns false on miss. Hit updates
  /// LRU. The access must not straddle a line boundary.
  bool read(u64 paddr, void* out, u32 size) {
    const u8* bytes = hit_bytes(paddr);
    if (bytes == nullptr) return false;
    std::memcpy(out, bytes + offset_in_line(paddr), size);
    return true;
  }

  /// Write-through update: writes into the line if present (returns true),
  /// no allocation on miss.
  bool write(u64 paddr, const void* data, u32 size) {
    u8* bytes = hit_bytes(paddr);
    if (bytes == nullptr) return false;
    std::memcpy(bytes + offset_in_line(paddr), data, size);
    return true;
  }

  /// Hot-path hit probe: on a hit, bumps the LRU stamp and returns the
  /// line's byte storage (the caller indexes with the in-line offset and
  /// performs the copy itself); nullptr on a miss, with no state change.
  /// This is the single lookup the Core's inlined L1-hit fast path does.
  u8* hit_bytes(u64 paddr) {
    const std::size_t idx = find(paddr);
    if (idx == kMiss) return nullptr;
    lines()[idx].stamp = ++tick_;
    return payload(idx);
  }

  /// Allocates (fills) the line containing `paddr` with `line_data`
  /// (exactly line_bytes() bytes), evicting the set's LRU way. Clean
  /// write-through caches never need writeback on eviction.
  void fill(u64 paddr, const void* line_data, bool mpbt) {
    std::size_t idx = find(paddr);
    if (idx == kMiss) {
      const std::size_t first = static_cast<std::size_t>(set_index(paddr)) *
                                assoc_;
      idx = first;
      for (std::size_t w = first + 1; w < first + assoc_; ++w) {
        const Line& victim = lines()[idx];
        if (!victim.valid) break;
        if (!lines()[w].valid || lines()[w].stamp < victim.stamp) idx = w;
      }
    }
    Line& line = lines()[idx];
    line.valid = true;
    line.mpbt = mpbt;
    line.tag = line_addr(paddr);
    line.stamp = ++tick_;
    std::memcpy(payload(idx), line_data, line_bytes_);
  }

  void invalidate_line(u64 paddr) {
    const std::size_t idx = find(paddr);
    if (idx != kMiss) lines()[idx].valid = false;
  }

  /// CL1INVMB: invalidate every line tagged as MPBT memory type. Like
  /// invalidate_all(), it writes only valid lines, so never-filled header
  /// pages stay untouched.
  void invalidate_mpbt() {
    for (std::size_t i = 0; i < num_lines(); ++i) {
      Line& line = lines()[i];
      if (line.valid && line.mpbt) line.valid = false;
    }
  }

  void invalidate_all() {
    for (std::size_t i = 0; i < num_lines(); ++i) {
      Line& line = lines()[i];
      if (line.valid) line.valid = false;
    }
  }

  std::size_t valid_line_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < num_lines(); ++i) n += lines()[i].valid;
    return n;
  }

  /// Test hook: directly inspect a cached line's bytes (nullptr if absent).
  const u8* peek_line(u64 paddr) const {
    const std::size_t idx = find(paddr);
    return idx == kMiss ? nullptr : payload(idx);
  }

 private:
  // Line header. Its payload is the idx-th line_bytes_ slice of the flat
  // slab (data_), addressed from the header's index, so a header needs no
  // pointer and all-zero bytes are a valid (invalid-line) header.
  struct Line {
    u64 tag;
    u64 stamp;
    bool valid;
    bool mpbt;
  };

  static constexpr std::size_t kMiss = ~std::size_t{0};

  std::size_t num_lines() const {
    return static_cast<std::size_t>(num_sets_) * assoc_;
  }

  Line* lines() { return reinterpret_cast<Line*>(headers_.data()); }
  const Line* lines() const {
    return reinterpret_cast<const Line*>(headers_.data());
  }

  u8* payload(std::size_t idx) { return data_.data() + (idx << line_shift_); }
  const u8* payload(std::size_t idx) const {
    return data_.data() + (idx << line_shift_);
  }

  u32 set_index(u64 paddr) const {
    return static_cast<u32>((paddr >> line_shift_) & (num_sets_ - 1));
  }

  u32 offset_in_line(u64 paddr) const {
    return static_cast<u32>(paddr & (line_bytes_ - 1));
  }

  /// Index of the valid line holding `paddr`, or kMiss.
  std::size_t find(u64 paddr) const {
    const u64 tag = line_addr(paddr);
    const std::size_t first = static_cast<std::size_t>(set_index(paddr)) *
                              assoc_;
    for (std::size_t i = first; i < first + assoc_; ++i) {
      const Line& line = lines()[i];
      if (line.valid && line.tag == tag) return i;
    }
    return kMiss;
  }

  u32 line_bytes_;
  u32 line_shift_ = 0;  // log2(line_bytes_)
  u32 assoc_;
  u32 num_sets_;
  u64 tick_ = 0;
  sim::ZeroPages headers_;  // num_lines() Line records
  sim::ZeroPages data_;     // flat payload slab, line_bytes_ per line
};

}  // namespace msvm::scc
