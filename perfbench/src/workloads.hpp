// The benchmark's three workloads. One call runs one repetition of a
// workload end to end: stands its simulations up, runs them, verifies
// every output and returns its metrics on both clocks.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Rep {
  /// What failed verification; empty when every output checked out.
  std::vector<std::string> errors;
  /// Simulations attempted and failed (on kv48: tiers stood up).
  u64 attempted = 0;
  u64 failed = 0;

  // Host clock.
  double wall_s = 0;
  double setup_s = 0;

  /// Exact metrics (virtual time, counts, ratios of counts): a rerun of
  /// the same seed must reproduce them bit for bit.
  std::map<std::string, double> exact;
  /// Per-layer host-time metrics (traced run only).
  std::map<std::string, double> host;

  void fail(std::string why) { errors.push_back(std::move(why)); }
};

/// Names the benchmark accepts for --workload.
const std::vector<std::string>& workload_names();

/// Runs one repetition of `workload`. With `spans` set the repetition is
/// traced: the metrics registry is on, every per-layer metric is filled
/// in and spans are recorded.
Rep run_workload(const std::string& workload, u64 seed, SpanRecorder* spans);

}  // namespace perfbench
