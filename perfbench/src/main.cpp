// The benchmark driver. One process, one host thread:
//
//   perfbench_driver --workload paper24|kv48|scale256 --seed N
//                    --seconds S --trace 0|1 [--out DIR]
//
// repeats the workload for about S host seconds (at least once; it stops
// before a repetition that would end past S),
// checks every repetition's outputs and that every exact metric repeats
// bit for bit, and prints each metric by name with its unit. The last
// line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones (host times are
// medians over the repetitions). With --trace 1 repetitions alternate
// untraced and traced; the metrics are the per-layer ones and the first
// traced repetition's spans go to DIR/<workload>-seed<N>.trace.json.
// Exits 1 when any check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, in BENCHMARK.json order; the host ones are taken
// from every workload, the exact ones from the workloads that have them.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"max_rss_mb", "MB"},
    {"strong_vms", "virtual_ms"},
    {"lrc_vms", "virtual_ms"},
    {"ircce_vms", "virtual_ms"},
    {"table1_err_pct", "%"},
    {"p50_us", "virtual_us"},
    {"p99_us", "virtual_us"},
    {"slo_rps", "virtual_req/s"},
    {"ok_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"cluster.build_s", "s"},
    {"cluster.build_mb", "MB"},
    {"svm.place_s", "s"},
    {"svm.place_vms", "virtual_ms"},
    {"svm.first_touch_allocs", "count"},
    {"svm.ownership_acquires", "count"},
    {"svm.mail_roundtrips", "count"},
    {"svm.fault_stall_vms", "virtual_ms"},
    {"svm.barrier_vms", "virtual_ms"},
    {"svm.lock_acquires", "count"},
    {"svm.replica_grants", "count"},
    {"svm.invalidations_sent", "count"},
    {"sccsim.mem_ops", "count"},
    {"sccsim.l1_hit_ratio", "ratio"},
    {"sccsim.tlb_miss_ratio", "ratio"},
    {"sccsim.l2_hits", "count"},
    {"sccsim.wcb_flushes", "count"},
    {"sccsim.dram_reads", "count"},
    {"sccsim.dram_writes", "count"},
    {"sccsim.busy_vms", "virtual_ms"},
    {"sccsim.host_ns_per_mem_op", "ns"},
    {"kernel.timer_irqs", "count"},
    {"kernel.ipi_irqs", "count"},
    {"kernel.tas_acquires", "count"},
    {"kernel.spins_per_acquire", "ratio"},
    {"mailbox.sent", "count"},
    {"mailbox.checks_per_recv", "ratio"},
    {"mailbox.send_stalls", "count"},
    {"mailbox.send_stall_vms", "virtual_ms"},
    {"mailbox.recv_wait_vms", "virtual_ms"},
    {"rcce.bytes_sent", "count"},
    {"rcce.exchange_vms", "virtual_ms"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.lane_max_share", "ratio"},
    {"sim.windows", "count"},
    {"serve.issued", "count"},
    {"serve.completed", "count"},
    {"serve.timeouts", "count"},
    {"serve.unfinished", "count"},
    {"serve.retransmits", "count"},
    {"serve.local_share", "ratio"},
    {"serve.late_starts", "count"},
    {"serve.p999_us", "virtual_us"},
    {"obs.trace_overhead_pct", "%"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool parse_u64(const char* s, u64& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "paper24|kv48|scale256 --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n",
               why);
  return 2;
}

/// Records in `errors` every exact metric of `b` that differs from `a`.
void compare_exact(const Rep& a, const Rep& b,
                   std::vector<std::string>& errors) {
  for (const auto& [name, value] : a.exact) {
    const auto it = b.exact.find(name);
    const bool same = it != b.exact.end() &&
                      (it->second == value ||
                       (std::isnan(it->second) && std::isnan(value)));
    if (!same) errors.push_back("not repeatable: " + name);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".bench_out";
  u64 seed = 0, seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, seed)) return usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, seconds) || seconds == 0 || seconds > 3600) {
        return usage("bad --seconds");
      }
      have_seconds = true;
    } else if (a == "--trace") {
      if (!parse_u64(v, trace) || trace > 1) return usage("bad --trace");
    } else if (a == "--out") {
      out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return usage("unknown --workload");
  }
  if (!have_seed || !have_seconds) return usage("--seed and --seconds needed");

  std::printf("workload: %s\nseed: %llu\nseconds: %llu\ntrace: %llu\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seconds),
              static_cast<unsigned long long>(trace));
  std::fflush(stdout);

  // Repetitions until the time is up; with tracing, untraced and traced
  // repetitions alternate so the overhead compares like with like.
  std::vector<Rep> plain, traced;
  SpanRecorder spans;
  const double start = host_now_s();
  for (;;) {
    const bool traced_rep = trace == 1 && plain.size() > traced.size();
    SpanRecorder* rec = traced_rep && traced.empty() ? &spans : nullptr;
    SpanRecorder scratch;  // later traced repetitions: same work, dropped
    if (traced_rep && rec == nullptr) rec = &scratch;
    Rep rep = run_workload(workload, seed, rec);
    std::fprintf(stderr, "  %s rep %zu: wall %.3f s, setup %.3f s%s\n",
                 workload.c_str(), plain.size() + traced.size() + 1,
                 rep.wall_s, rep.setup_s, traced_rep ? " (traced)" : "");
    (traced_rep ? traced : plain).push_back(std::move(rep));
    // Stop before a repetition that would run past the time budget.
    const double elapsed = host_now_s() - start;
    const double per_rep =
        elapsed / static_cast<double>(plain.size() + traced.size());
    if (elapsed + per_rep > static_cast<double>(seconds) &&
        !(trace == 1 && traced.empty())) {
      break;
    }
  }

  std::vector<std::string> errors;
  for (const auto* reps : {&plain, &traced}) {
    for (const Rep& r : *reps) {
      errors.insert(errors.end(), r.errors.begin(), r.errors.end());
      compare_exact(reps->front(), r, errors);
    }
  }
  if (!plain.empty() && !traced.empty()) {
    compare_exact(plain.front(), traced.front(), errors);
  }

  // A metric the workload does not measure (strong_vms on kv48, say) is
  // still reported, as kNotMeasured, so that every workload prints every
  // metric of its mode and none reads 0; the text lines say "n/a".
  constexpr double kNotMeasured = 1.0;
  struct Out {
    const MetricDef* def;
    double value;
    bool measured;
  };
  std::vector<Out> metrics;
  if (trace == 0) {
    std::vector<double> wall, setup;
    for (const Rep& r : plain) {
      wall.push_back(r.wall_s);
      setup.push_back(r.setup_s);
    }
    for (const MetricDef& m : kEndToEnd) {
      const std::string name = m.name;
      if (name == "wall_s") {
        metrics.push_back({&m, median(wall), true});
      } else if (name == "setup_s") {
        metrics.push_back({&m, median(setup), true});
      } else if (name == "max_rss_mb") {
        metrics.push_back({&m, peak_rss_mb(), true});
      } else if (plain.front().exact.count(name) != 0) {
        metrics.push_back({&m, plain.front().exact.at(name), true});
      } else {
        metrics.push_back({&m, kNotMeasured, false});
      }
    }
  } else {
    std::vector<double> plain_wall, traced_wall;
    for (const Rep& r : plain) plain_wall.push_back(r.wall_s);
    for (const Rep& r : traced) traced_wall.push_back(r.wall_s);
    const double overhead =
        100.0 * (median(traced_wall) / median(plain_wall) - 1.0);
    const Rep& t = traced.front();
    for (const MetricDef& m : kPerLayer) {
      const std::string name = m.name;
      double value = 0.0;  // a layer the workload does not exercise
      if (name == "obs.trace_overhead_pct") {
        value = overhead;
      } else if (t.exact.count(name) != 0) {
        value = t.exact.at(name);
      } else if (t.host.count(name) != 0) {
        std::vector<double> v;
        for (const Rep& r : traced) v.push_back(r.host.at(name));
        value = median(v);
      }
      metrics.push_back({&m, value, true});
    }
    std::filesystem::create_directories(out_dir);
    const std::string path = out_dir + "/" + workload + "-seed" +
                             std::to_string(seed) + ".trace.json";
    if (!spans.write_chrome_trace(path)) {
      errors.push_back("cannot write " + path);
    } else {
      std::printf("trace: %s (%zu spans)\n", path.c_str(),
                  spans.spans().size());
    }
  }

  const Rep& first = plain.front();
  std::printf("repetitions: %zu untraced, %zu traced\n", plain.size(),
              traced.size());
  for (const Out& o : metrics) {
    if (o.measured) {
      std::printf("%-28s %.10g %s\n", o.def->name, o.value, o.def->unit);
    } else {
      std::printf("%-28s n/a\n", o.def->name);
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  }

  const bool correct = errors.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(first.attempted);
  json += ", \"failed\": " + std::to_string(first.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Out& o = metrics[i];
    char buf[160];
    if (std::isfinite(o.value)) {
      std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.17g, ",
                    o.def->name, o.value);
    } else {
      std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": null, ",
                    o.def->name);
    }
    json += (i == 0 ? "" : ", ") + std::string(buf) + "\"unit\": \"" +
            o.def->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
