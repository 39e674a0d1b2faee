// Zero-on-demand storage: sim::ZeroPages itself, and the host footprint of
// the simulated state built on it (scc::Memory, scc::Cache). The footprint
// tests read the process's resident set from /proc/self/statm, so they pin
// the property the storage exists for: a chip pays only for the simulated
// pages its programs touch.
#include "sim/zero_pages.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "sccsim/cache.hpp"
#include "sccsim/memory.hpp"

namespace msvm {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

std::size_t page_bytes() {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// Resident set size of this process, in bytes.
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * page_bytes() : 0;
}

TEST(ZeroPages, FreshBufferReadsZero) {
  sim::ZeroPages buf(3 * page_bytes() + 5);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 3 * page_bytes() + 5);
  for (std::size_t i = 0; i < buf.size(); ++i) ASSERT_EQ(buf.data()[i], 0);
}

TEST(ZeroPages, EmptyBufferMapsNothing) {
  sim::ZeroPages buf(0);
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(ZeroPages, MoveTransfersOwnership) {
  sim::ZeroPages a(page_bytes());
  a.data()[7] = 42;
  u8* const mapped = a.data();
  sim::ZeroPages b(std::move(a));
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.data(), mapped);
  EXPECT_EQ(b.data()[7], 42);

  sim::ZeroPages c(2 * page_bytes());
  c = std::move(b);
  EXPECT_EQ(c.data(), mapped);
  EXPECT_EQ(c.size(), page_bytes());
}

TEST(ZeroPages, OnlyWrittenPagesBecomeResident) {
  const std::size_t rss0 = resident_bytes();
  sim::ZeroPages buf(64 * kMiB);
  // Reading untouched pages maps the kernel's shared zero page.
  unsigned sum = 0;
  for (std::size_t off = 0; off < buf.size(); off += page_bytes()) {
    sum += buf.data()[off];
  }
  EXPECT_EQ(sum, 0u);
  const std::size_t rss1 = resident_bytes();
  EXPECT_LT(rss1 - rss0, kMiB);
  for (std::size_t off = 0; off < 4 * kMiB; off += page_bytes()) {
    buf.data()[off] = 1;
  }
  const std::size_t grown = resident_bytes() - rss1;
  EXPECT_GE(grown, 4 * kMiB);
  EXPECT_LT(grown, 4 * kMiB + kMiB / 4);
}

TEST(MemoryFootprint, ManyCoreChipPaysOnlyForTouchedPages) {
  scc::ChipConfig cfg;
  cfg.num_cores = 256;
  cfg.topology = scc::TopologySpec::for_cores(cfg.num_cores);
  cfg.private_dram_bytes = kMiB;
  const std::size_t rss0 = resident_bytes();
  auto mem = std::make_unique<scc::Memory>(cfg);
  const std::size_t rss1 = resident_bytes();
  // 256 MiB of private DRAM plus 64 MiB shared, none of it touched.
  EXPECT_LT(rss1 - rss0, 8 * kMiB);

  const u64 base = mem->map().private_base(17);
  const u8 one = 1;
  for (u64 off = 0; off < cfg.private_dram_bytes; off += page_bytes()) {
    mem->write(base + off, &one, 1);
  }
  const std::size_t grown = resident_bytes() - rss1;
  EXPECT_GE(grown, kMiB);
  EXPECT_LT(grown, kMiB + kMiB / 4);
}

TEST(CacheFootprint, UntouchedCachesStayUntouchedAcrossInvalidation) {
  // 64 L2-shaped caches: 16 MiB of payload plus 12 MiB of headers if
  // construction or invalidation wrote them.
  const std::size_t rss0 = resident_bytes();
  std::vector<std::unique_ptr<scc::Cache>> caches;
  for (int i = 0; i < 64; ++i) {
    caches.push_back(std::make_unique<scc::Cache>(256 * 1024, 4, 32));
  }
  for (auto& c : caches) {
    c->invalidate_all();
    c->invalidate_mpbt();
    EXPECT_EQ(c->valid_line_count(), 0u);
  }
  EXPECT_LT(resident_bytes() - rss0, 2 * kMiB);
}

}  // namespace
}  // namespace msvm
