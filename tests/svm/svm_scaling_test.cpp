// End-to-end tests past the 48-core SCC die: multi-chip topologies run
// the SVM workloads correctly (checksums match the host reference), the
// wide directory invalidates replicas at >64 cores, two same-seed
// 96-core runs produce identical virtual times and protocol counters,
// and the sched_lanes knob changes no event.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster.hpp"
#include "workloads/laplace.hpp"
#include "workloads/matmul.hpp"

namespace msvm::workloads {
namespace {

LaplaceParams small_laplace() {
  LaplaceParams p;
  p.nx = 512;  // one page per row
  p.ny = 128;
  p.iterations = 2;
  return p;
}

TEST(SvmScaling, LaplaceNinetySixCoresMatchesReference) {
  LaplaceParams p = small_laplace();
  const double want = laplace_reference_checksum(p);
  const auto strong = run_laplace_svm(p, svm::Model::kStrong, 96);
  EXPECT_NEAR(strong.checksum, want, 1e-9);
  const auto lazy = run_laplace_svm(p, svm::Model::kLazyRelease, 96);
  EXPECT_NEAR(lazy.checksum, want, 1e-9);
}

TEST(SvmScaling, WideDirectoryInvalidatesPastSixtyFourCores) {
  // 96 cores needs the multi-word directory (2 sharer words). Boundary
  // rows are read by neighbours and re-written by their owner each
  // iteration, so read replication must grant and then multicast-
  // invalidate replicas — through the wide encoding.
  LaplaceParams p = small_laplace();
  p.read_replication = true;
  const auto r = run_laplace_svm(p, svm::Model::kStrong, 96);
  EXPECT_NEAR(r.checksum, laplace_reference_checksum(p), 1e-9);
  EXPECT_GT(r.invalidations, 0u);
}

TEST(SvmScaling, LaneShardedRunIsDeterministic) {
  // Same seed, same config, two runs: every virtual time and protocol
  // counter must match bit for bit (the property the CI double-run gate
  // enforces on the bench binaries).
  LaplaceParams p = small_laplace();
  p.read_replication = true;
  const auto a = run_laplace_svm(p, svm::Model::kStrong, 96);
  const auto b = run_laplace_svm(p, svm::Model::kStrong, 96);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.page_faults, b.page_faults);
  EXPECT_EQ(a.ownership_acquires, b.ownership_acquires);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.mail_roundtrips, b.mail_roundtrips);
}

TEST(SvmScaling, MatmulOneTwentyEightCoresMatchesReference) {
  MatmulParams p;
  p.n = 48;
  const double want = matmul_reference_checksum(p);
  const auto r = run_matmul(p, svm::Model::kLazyRelease, 128);
  EXPECT_NEAR(r.checksum, want, 1e-6);
}

/// What a chip-level run leaves behind: virtual time, data, every core's
/// counters, and the scheduler's event and window counts.
struct ChipRun {
  TimePs makespan = 0;
  double checksum = 0.0;
  std::vector<scc::CoreCounters> cores;
  u64 events = 0;
  u64 windows = 0;
};

/// A Strong-model Laplace on `num_cores` cores of a multi-chip grid
/// (run_laplace_svm's body), with the chip's sched_lanes set to `lanes`.
ChipRun strong_laplace_on_chip(const LaplaceParams& p, int num_cores,
                               int lanes) {
  cluster::ClusterConfig cfg;
  scc::configure_cores(cfg.chip, num_cores);
  cfg.chip.sched_lanes = lanes;
  cfg.chip.shared_dram_bytes = 32 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = svm::Model::kStrong;
  cluster::Cluster cl(cfg);
  const u64 grid_bytes = static_cast<u64>(p.ny) * p.nx * 8;
  std::vector<double> partial(static_cast<std::size_t>(num_cores), 0.0);
  cl.run([&](cluster::Node& n) {
    svm::Svm& svm = n.svm();
    scc::Core& core = n.core();
    u64 old_base = svm.alloc(grid_bytes);
    u64 new_base = svm.alloc(grid_bytes);
    const auto [r0, r1] = laplace_rows_of_rank(p.ny, n.rank(), n.size());
    auto at = [&](u64 base, u32 i, u32 j) {
      return base + (static_cast<u64>(i) * p.nx + j) * 8;
    };
    for (const u64 base : {old_base, new_base}) {
      for (u32 i = r0; i < r1; ++i) {
        for (u32 j = 0; j < p.nx; ++j) {
          core.vstore<double>(at(base, i, j), i == 0 ? p.hot_edge : 0.0);
        }
      }
    }
    svm.barrier();
    for (u32 iter = 0; iter < p.iterations; ++iter) {
      for (u32 i = std::max(r0, 1u); i < std::min(r1, p.ny - 1); ++i) {
        for (u32 j = 1; j + 1 < p.nx; ++j) {
          const double sum = core.vload<double>(at(old_base, i - 1, j)) +
                             core.vload<double>(at(old_base, i + 1, j)) +
                             core.vload<double>(at(old_base, i, j - 1)) +
                             core.vload<double>(at(old_base, i, j + 1));
          core.compute_cycles(p.compute_cycles_per_cell);
          core.vstore<double>(at(new_base, i, j), 0.25 * sum);
        }
      }
      std::swap(old_base, new_base);
      svm.barrier();
    }
    double sum = 0.0;
    for (u32 i = r0; i < r1; ++i) {
      for (u32 j = 0; j < p.nx; ++j) {
        sum += core.vload<double>(at(old_base, i, j));
      }
    }
    partial[static_cast<std::size_t>(n.rank())] = sum;
  });
  ChipRun out;
  out.makespan = cl.makespan();
  for (const double v : partial) out.checksum += v;
  for (int c = 0; c < num_cores; ++c) {
    out.cores.push_back(cl.chip().core(c).counters());
  }
  out.events = cl.chip().scheduler().lane_dispatched(0);
  out.windows = cl.chip().scheduler().windows_opened();
  return out;
}

TEST(SvmScaling, SchedLanesKnobIsInert) {
  // Every chip runs on the scheduler's one exact event heap, so
  // ChipConfig::sched_lanes must not change a single event: 96 cores
  // span two chips and all four mesh quadrants, where the knob once
  // sharded the heap into lanes that reordered cross-quadrant effects.
  const LaplaceParams p = small_laplace();
  const ChipRun one = strong_laplace_on_chip(p, 96, 1);
  const ChipRun four = strong_laplace_on_chip(p, 96, 4);
  EXPECT_NEAR(one.checksum, laplace_reference_checksum(p), 1e-9);
  EXPECT_EQ(four.makespan, one.makespan);
  EXPECT_EQ(four.checksum, one.checksum);
  ASSERT_EQ(four.cores.size(), one.cores.size());
  for (std::size_t c = 0; c < one.cores.size(); ++c) {
    for (const scc::CoreCounterField& f : scc::kCoreCounterFields) {
      EXPECT_EQ(four.cores[c].*f.member, one.cores[c].*f.member)
          << "core " << c << " " << f.name;
    }
  }
  EXPECT_EQ(four.events, one.events);
  EXPECT_GT(one.events, 0u);
  EXPECT_EQ(one.windows, 0u);
  EXPECT_EQ(four.windows, 0u);
}

}  // namespace
}  // namespace msvm::workloads
