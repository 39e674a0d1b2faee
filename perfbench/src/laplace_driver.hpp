// The benchmark's Laplace driver: the SPMD bodies of Figure 9's three
// variants (allocate, first-touch place, barrier, iterate, verify),
// instrumented so that host time splits by phase and every barrier or
// ghost-row exchange carries a per-core virtual-time span.
//
// The bodies are workload inputs; the simulator they call is the program
// under test. They issue exactly the simulated operations of
// workloads::run_laplace_svm / run_laplace_ircce, so `result` is
// bit-identical to theirs (tests/equivalence_test.cpp checks this) and
// the benchmark's strong/lrc/ircce figures stay the Figure 9 numbers.
#pragma once

#include "sccsim/counters.hpp"
#include "spans.hpp"
#include "workloads/laplace.hpp"

namespace perfbench {

enum class LaplaceVariant { kStrong, kLrc, kIrcce };

const char* variant_name(LaplaceVariant v);

struct LaplaceRun {
  /// Same fields, same values as workloads::run_laplace_*.
  msvm::workloads::LaplaceResult result;

  // Host seconds per phase. build: Cluster construction. place: from
  // Cluster::run to the barrier that opens the measured phase (node boot
  // and first-touch stores). measure: the iterations. verify: checksum
  // pass and teardown.
  double build_s = 0;
  double place_s = 0;
  double measure_s = 0;
  double verify_s = 0;
  /// Resident-set growth across the Cluster constructor, MB.
  double build_mb = 0;

  /// Slowest core's virtual time from body start to the measured phase.
  msvm::TimePs place_vps = 0;
  /// Measured-phase core counters summed over the members.
  msvm::scc::CoreCounters measured;
  /// Measured phase, summed over cores: virtual time inside barrier()
  /// and (iRCCE only) inside the ghost-row wait_all().
  msvm::TimePs barrier_vps = 0;
  msvm::TimePs exchange_vps = 0;

  /// Scheduler events dispatched over the whole simulation, the busiest
  /// lane's share of them, and the lookahead windows opened.
  u64 events = 0;
  double lane_max_share = 0;
  u64 windows = 0;
};

/// Runs one Laplace simulation. With `spans` set, records the simulation,
/// its phases and every measured-phase barrier / exchange call.
LaplaceRun run_laplace(const msvm::workloads::LaplaceParams& p,
                       LaplaceVariant variant, int num_cores,
                       SpanRecorder* spans = nullptr);

/// Current resident set of this process, MB.
double rss_mb();

}  // namespace perfbench
