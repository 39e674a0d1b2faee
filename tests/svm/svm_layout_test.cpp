// SvmDomain is the sole owner of the SVM metadata layout: every per-page
// owner, scratchpad and directory address comes from its *_entry_paddr
// arithmetic. These tests walk every page of two coherency domains
// sharing one chip and check that the layout never overlaps itself, the
// frame pool or the barrier flags, on the SCC die and on grown grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "sccsim/chip.hpp"
#include "svm/svm.hpp"

namespace msvm::svm {
namespace {

// (cores, scratchpad_offdie, read_replication)
using LayoutCase = std::tuple<int, bool, bool>;

struct Span {
  u64 lo;
  u64 hi;  // exclusive
  std::string what;
};

class SvmLayout : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(SvmLayout, EntriesAreDisjointAndInsideTheirCarves) {
  const auto [cores, offdie, rr] = GetParam();
  scc::ChipConfig ccfg;
  if (cores != 48) scc::configure_cores(ccfg, cores);
  ccfg.private_dram_bytes = 64 << 10;  // the SVM layout never touches it
  scc::Chip chip(ccfg);
  SvmConfig cfg;
  cfg.model = Model::kStrong;
  cfg.scratchpad_offdie = offdie;
  cfg.read_replication = rr;

  std::vector<int> even;
  std::vector<int> odd;
  for (int c = 0; c < cores; ++c) (c % 2 == 0 ? even : odd).push_back(c);
  SvmDomain d0(chip, cfg, even, /*slot=*/0, /*num_slots=*/2);
  SvmDomain d1(chip, cfg, odd, /*slot=*/1, /*num_slots=*/2);

  // Both slots see the same chip-wide layout.
  ASSERT_EQ(d0.total_frames(), d1.total_frames());
  ASSERT_EQ(d0.num_svm_pages(), d1.num_svm_pages());
  ASSERT_EQ(d1.page_index_base(), d0.num_svm_pages());

  const u64 dram_lo = scc::kSharedBase + d0.total_frames() * ccfg.page_bytes;
  const u64 dram_hi = scc::kSharedBase + ccfg.shared_dram_bytes;
  const u64 mpb_hi =
      scc::kMpbBase + static_cast<u64>(cores) * ccfg.mpb_bytes;
  const mbox::Layout& lay = d0.layout();
  const u64 carve_hi = lay.scratchpad_offset + lay.scratchpad_bytes;
  // The barrier flags sit in the header the entries start past.
  ASSERT_LE(d0.barrier_diss_off() + 2 * d0.barrier_diss_rounds(),
            d0.entries_off());

  std::vector<Span> spans;
  const int nmc = chip.topology().num_mem_controllers();
  for (int mc = 0; mc < nmc; ++mc) {
    const u64 a = d0.mc_counter_paddr(mc);
    EXPECT_GE(a, dram_lo);
    spans.push_back({a, a + 8, "mc counter"});
  }
  const auto check_dram = [&](u64 a, u64 bytes, const char* what, u64 p) {
    EXPECT_GE(a, dram_lo) << what << " of page " << p << " in frame pool";
    EXPECT_LE(a + bytes, dram_hi) << what << " of page " << p;
  };
  for (const SvmDomain* d : {&d0, &d1}) {
    for (u64 i = 0; i < d->num_svm_pages(); ++i) {
      const u64 p = d->page_index_base() + i;
      const u64 own = d->owner_entry_paddr(p);
      check_dram(own, 2, "owner entry", p);
      spans.push_back({own, own + 2, "owner"});

      const u64 sp = d->scratchpad_entry_paddr(p);
      if (offdie) {
        check_dram(sp, 2, "off-die scratchpad entry", p);
      } else {
        ASSERT_GE(sp, scc::kMpbBase) << "page " << p;
        ASSERT_LT(sp, mpb_hi) << "page " << p;
        const u64 off = (sp - scc::kMpbBase) % ccfg.mpb_bytes;
        EXPECT_GE(off, d->entries_off()) << "page " << p << " in header";
        EXPECT_LE(off + 2, carve_hi) << "page " << p << " past the carve";
      }
      spans.push_back({sp, sp + 2, "scratchpad"});

      if (rr) {
        const u64 dir = d->sharer_entry_paddr(p);
        check_dram(dir, d->dir_entry_stride(), "directory entry", p);
        spans.push_back({dir, dir + d->dir_entry_stride(), "directory"});
      }
    }
  }

  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.lo < b.lo; });
  for (std::size_t i = 1; i < spans.size(); ++i) {
    ASSERT_LE(spans[i - 1].hi, spans[i].lo)
        << spans[i - 1].what << " @0x" << std::hex << spans[i - 1].lo
        << " overlaps " << spans[i].what << " @0x" << spans[i].lo;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chips, SvmLayout,
    ::testing::Combine(::testing::Values(48, 96, 256), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_offdie" : "_ondie") +
             (std::get<2>(info.param) ? "_rr" : "_strong");
    });

// The domain-wide region map: one entry per allocated page, filled by the
// first member to reach each collective alloc.
TEST(SvmRegionMap, RegisterAllocMapsEveryPageToItsAlloc) {
  scc::ChipConfig ccfg;
  scc::Chip chip(ccfg);
  SvmDomain d(chip, SvmConfig{}, {0, 1});
  const u64 page = ccfg.page_bytes;
  EXPECT_EQ(d.region_of_page(d.page_index_base()), -1);

  const u64 a = d.register_alloc(0, 3 * page);
  const u64 b = d.register_alloc(0, page + 1);  // rounds up to 2 pages
  EXPECT_EQ(d.register_alloc(1, 3 * page), a);  // second member: same base
  EXPECT_EQ(d.page_index_of(a), d.page_index_base());
  EXPECT_EQ(d.page_vaddr_of(d.page_index_of(b)), b);

  for (u64 i = 0; i < 3; ++i) {
    EXPECT_EQ(d.region_of_page(d.page_index_of(a) + i), 0);
  }
  EXPECT_EQ(d.region_of_page(d.page_index_of(b)), 1);
  EXPECT_EQ(d.region_of_page(d.page_index_of(b) + 1), 1);
  EXPECT_EQ(d.region_of_page(d.page_index_of(b) + 2), -1);
  EXPECT_EQ(d.region_of_page(d.page_index_base() - 1), -1);
}

}  // namespace
}  // namespace msvm::svm
