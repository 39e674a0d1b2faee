// Zero-on-demand byte buffer for large simulated state (DRAM, MPBs, cache
// slabs).
//
// The buffer is a private anonymous mapping, so the kernel hands out a
// zeroed page only when it is first written; pages that are only read map
// the shared zero page and pages never touched cost nothing. A chip with
// hundreds of cores therefore pays for the simulated memory its programs
// actually use, not for the whole address space it models.
//
// It is deliberately not calloc(): once glibc frees a large mmapped chunk
// it raises its mmap threshold, after which requests of up to 32 MiB are
// served from the heap and memset eagerly — exactly the cost this avoids.
#pragma once

#include <cstddef>
#include <utility>

#include "sim/types.hpp"

namespace msvm::sim {

class ZeroPages {
 public:
  /// Maps `bytes` of zero-filled memory (none for 0). Throws
  /// std::bad_alloc if the mapping fails.
  explicit ZeroPages(std::size_t bytes);
  ~ZeroPages();

  ZeroPages(ZeroPages&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ZeroPages& operator=(ZeroPages&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  u8* data() { return data_; }
  const u8* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  u8* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace msvm::sim
