// The benchmark's Laplace driver must reproduce the simulator's own
// Figure 9 workload exactly: same elapsed virtual time, same counters,
// same checksum as workloads::run_laplace_svm / run_laplace_ircce. This
// keeps strong_vms / lrc_vms / ircce_vms the Figure 9 numbers.
#include <cstdio>
#include <cstring>

#include "laplace_driver.hpp"
#include "workloads/laplace.hpp"

namespace {

using namespace msvm;
using perfbench::LaplaceVariant;

int failures = 0;

void expect_same(const char* what, const workloads::LaplaceResult& want,
                 const workloads::LaplaceResult& got) {
  const struct {
    const char* field;
    u64 want, got;
  } rows[] = {
      {"elapsed", want.elapsed, got.elapsed},
      {"page_faults", want.page_faults, got.page_faults},
      {"ownership_acquires", want.ownership_acquires, got.ownership_acquires},
      {"wcb_flushes", want.wcb_flushes, got.wcb_flushes},
      {"l2_hits", want.l2_hits, got.l2_hits},
      {"l1_misses", want.l1_misses, got.l1_misses},
      {"dram_reads", want.dram_reads, got.dram_reads},
      {"dram_writes", want.dram_writes, got.dram_writes},
      {"bytes_messaged", want.bytes_messaged, got.bytes_messaged},
      {"mail_roundtrips", want.mail_roundtrips, got.mail_roundtrips},
      {"invalidations", want.invalidations, got.invalidations},
  };
  for (const auto& r : rows) {
    if (r.want != r.got) {
      std::printf("FAIL %s: %s %llu != %llu\n", what, r.field,
                  static_cast<unsigned long long>(r.got),
                  static_cast<unsigned long long>(r.want));
      ++failures;
    }
  }
  if (std::memcmp(&want.checksum, &got.checksum, sizeof(double)) != 0) {
    std::printf("FAIL %s: checksum %.17g != %.17g\n", what, got.checksum,
                want.checksum);
    ++failures;
  }
  if (want.elapsed == 0) {
    std::printf("FAIL %s: zero elapsed time\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  workloads::LaplaceParams p;
  p.nx = 512;
  p.ny = 64;
  p.iterations = 3;
  const int cores = 4;

  expect_same("strong", workloads::run_laplace_svm(p, svm::Model::kStrong, cores),
              perfbench::run_laplace(p, LaplaceVariant::kStrong, cores).result);
  expect_same("lrc",
              workloads::run_laplace_svm(p, svm::Model::kLazyRelease, cores),
              perfbench::run_laplace(p, LaplaceVariant::kLrc, cores).result);
  expect_same("ircce", workloads::run_laplace_ircce(p, cores),
              perfbench::run_laplace(p, LaplaceVariant::kIrcce, cores).result);

  // Sharded event lanes and a traced run change nothing either.
  p.sched_lanes = 2;
  perfbench::SpanRecorder spans;
  expect_same("strong, 2 lanes, traced",
              workloads::run_laplace_svm(p, svm::Model::kStrong, cores),
              perfbench::run_laplace(p, LaplaceVariant::kStrong, cores, &spans)
                  .result);
  if (spans.spans().empty()) {
    std::printf("FAIL traced run recorded no spans\n");
    ++failures;
  }

  // Past 48 cores the chip grid and shared DRAM grow with the core count
  // (scale256's configuration); the driver must follow the same path.
  expect_same("strong, 64 cores",
              workloads::run_laplace_svm(p, svm::Model::kStrong, 64),
              perfbench::run_laplace(p, LaplaceVariant::kStrong, 64).result);

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
