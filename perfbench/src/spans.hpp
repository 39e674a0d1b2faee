// In-memory span recorder of the benchmark's traced run. A span marks
// one call into a simulator layer, or one phase of a simulation, on both
// clocks: host time from a monotonic clock and virtual (simulated SCC)
// time from the calling core. Spans are kept in memory and written once,
// at exit, as Chrome-trace JSON (open in https://ui.perfetto.dev).
//
// Host spans of calls made inside a simulation are only meaningful per
// phase: a call that blocks in virtual time runs other cores' fibers on
// the host thread, so its host span covers other layers' work too. Per-
// call spans therefore carry virtual time per core; the phase spans
// (build / place / measure / verify) carry the host attribution.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace perfbench {

using msvm::TimePs;
using msvm::u64;

/// Host monotonic clock, seconds since an arbitrary fixed origin.
inline double host_now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int parent = -1;  // index of the enclosing span, -1 for a root
  int sim = -1;     // simulation index within the run, -1 outside one
  int core = -1;    // simulated core, -1 for driver-level spans
  double host_start_s = 0, host_end_s = 0;
  TimePs virt_start_ps = 0, virt_end_ps = 0;
};

class SpanRecorder {
 public:
  /// Opens a span at the current host time; returns its index.
  int open(std::string name, int parent, int sim, int core,
           TimePs virt_start = 0);
  void close(int span, TimePs virt_end = 0);
  /// Sets all four stamps of a span opened as a placeholder.
  void set(int span, double host_start_s, double host_end_s,
           TimePs virt_start, TimePs virt_end);

  /// Records a finished per-core call span (virtual clock only matters;
  /// the host stamps are the call's start and end as seen by that core).
  void add(std::string name, int parent, int sim, int core,
           double host_start_s, double host_end_s, TimePs virt_start,
           TimePs virt_end);

  /// Labels a simulation index for the virtual-clock track names.
  void label_sim(int sim, std::string label);
  int next_sim() { return static_cast<int>(sim_labels_.size()); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Parent of the simulation spans opened next (the repetition's span).
  int scope = -1;

  /// Writes every span as Chrome-trace JSON: pid 1 is the host clock,
  /// pid 100+N the virtual clock of simulation N; tid is the core (0 for
  /// the driver). Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> sim_labels_;
};

}  // namespace perfbench
