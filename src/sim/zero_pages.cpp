#include "sim/zero_pages.hpp"

#include <sys/mman.h>

#include <new>

namespace msvm::sim {

ZeroPages::ZeroPages(std::size_t bytes) : size_(bytes) {
  if (bytes == 0) return;
  // MAP_NORESERVE: a many-core chip maps far more simulated memory than it
  // touches, so the untouched remainder must not count against overcommit.
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc{};
  // Keep the footprint at page granularity on hosts whose transparent
  // huge pages are always on: there, one touched byte of a core's private
  // DRAM would otherwise fault in 2 MiB. Advisory; failure is harmless.
  (void)madvise(map, bytes, MADV_NOHUGEPAGE);
  data_ = static_cast<u8*>(map);
}

ZeroPages::~ZeroPages() {
  if (data_ != nullptr) munmap(data_, size_);
}

}  // namespace msvm::sim
