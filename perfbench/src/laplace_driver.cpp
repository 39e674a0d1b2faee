#include "laplace_driver.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "kernel/kernel.hpp"
#include "rcce/rcce.hpp"

namespace perfbench {

using namespace msvm;

const char* variant_name(LaplaceVariant v) {
  switch (v) {
    case LaplaceVariant::kStrong: return "strong";
    case LaplaceVariant::kLrc: return "lrc";
    case LaplaceVariant::kIrcce: return "ircce";
  }
  return "?";
}

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

/// Initial temperature of grid cell (i, j), as in workloads/laplace.cpp.
double initial_value(const workloads::LaplaceParams& p, u32 i) {
  return i == 0 ? p.hot_edge : 0.0;
}

/// The cluster configurations of workloads::run_laplace_svm and
/// run_laplace_ircce, field for field.
cluster::ClusterConfig svm_config(const workloads::LaplaceParams& p,
                                  svm::Model model, int num_cores) {
  cluster::ClusterConfig cfg;
  scc::configure_cores(cfg.chip, std::max(num_cores, 48));
  cfg.chip.sched_lanes = p.sched_lanes;
  cfg.chip.core_mhz = p.core_mhz;
  for (int c = 0; c < num_cores; ++c) cfg.members.push_back(c);
  const u64 grid_bytes = static_cast<u64>(p.ny) * p.nx * 8;
  cfg.chip.shared_dram_bytes =
      std::max<u64>({16ull << 20, 4 * grid_bytes,
                     static_cast<u64>(num_cores) << 16});
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = model;
  cfg.svm.read_replication = p.read_replication;
  cfg.use_ipi = true;
  cfg.chip.faults = p.faults;
  return cfg;
}

cluster::ClusterConfig ircce_config(const workloads::LaplaceParams& p,
                                    int num_cores) {
  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = num_cores;
  cfg.chip.core_mhz = p.core_mhz;
  cfg.chip.shared_dram_bytes = 16 << 20;
  const u64 rows_max =
      (p.ny + static_cast<u32>(num_cores) - 1) / static_cast<u32>(num_cores) +
      2;
  cfg.chip.private_dram_bytes = std::max<u64>(
      2 << 20, 4ull * (rows_max + 2) * p.nx * 8 + (1 << 20));
  return cfg;
}

/// Host-side phase boundaries and per-core bookkeeping of one run. The
/// first core to pass a phase-closing barrier stamps the host clock: no
/// core can still be in the previous phase once one has left a barrier.
struct Probe {
  explicit Probe(int n, SpanRecorder* s, int sim_id)
      : spans(s), sim(sim_id), partial(n, 0.0), elapsed(n, 0),
        place_vps(n, 0), before(n), after(n), barrier_vps(n, 0),
        exchange_vps(n, 0), bytes(n, 0) {}

  void mark(double& stamp) {
    if (stamp == 0) stamp = host_now_s();
  }

  /// Times one call on `core` in virtual time, adding it to `sum` and,
  /// when tracing, recording it as a span under the measure phase.
  template <typename F>
  void timed(const char* name, scc::Core& core, TimePs& sum, F&& call) {
    const double h0 = spans != nullptr ? host_now_s() : 0;
    const TimePs v0 = core.now();
    call();
    const TimePs v1 = core.now();
    sum += v1 - v0;
    if (spans != nullptr) {
      spans->add(name, measure_span, sim, core.id(), h0, host_now_s(), v0,
                 v1);
    }
  }

  SpanRecorder* spans;
  int sim;
  int measure_span = -1;
  double place_end = 0, measure_end = 0;
  std::vector<double> partial;
  std::vector<TimePs> elapsed;
  std::vector<TimePs> place_vps;
  std::vector<scc::CoreCounters> before, after;
  std::vector<TimePs> barrier_vps, exchange_vps;
  std::vector<u64> bytes;
};

void svm_body(const workloads::LaplaceParams& p, Probe& pr,
              cluster::Node& n) {
  svm::Svm& svm = n.svm();
  scc::Core& core = n.core();
  const auto r = static_cast<std::size_t>(n.rank());
  const TimePs t_body = core.now();
  const u64 grid_bytes = static_cast<u64>(p.ny) * p.nx * 8;
  u64 old_base = svm.alloc(grid_bytes);
  u64 new_base = svm.alloc(grid_bytes);
  const auto [r0, r1] = workloads::laplace_rows_of_rank(p.ny, n.rank(),
                                                        n.size());
  auto addr = [&](u64 base, u32 i, u32 j) {
    return base + (static_cast<u64>(i) * p.nx + j) * 8;
  };
  // First touch, one pass per array (see workloads/laplace.cpp for why).
  for (u32 i = r0; i < r1; ++i) {
    for (u32 j = 0; j < p.nx; ++j) {
      core.vstore<double>(addr(old_base, i, j), initial_value(p, i));
    }
  }
  for (u32 i = r0; i < r1; ++i) {
    for (u32 j = 0; j < p.nx; ++j) {
      core.vstore<double>(addr(new_base, i, j), initial_value(p, i));
    }
  }
  svm.barrier();
  pr.mark(pr.place_end);

  pr.before[r] = core.counters();
  const TimePs t0 = core.now();
  pr.place_vps[r] = t0 - t_body;

  for (u32 iter = 0; iter < p.iterations; ++iter) {
    const u32 lo = std::max(r0, 1u);
    const u32 hi = std::min(r1, p.ny - 1);
    for (u32 i = lo; i < hi; ++i) {
      for (u32 j = 1; j + 1 < p.nx; ++j) {
        const double north = core.vload<double>(addr(old_base, i - 1, j));
        const double south = core.vload<double>(addr(old_base, i + 1, j));
        const double west = core.vload<double>(addr(old_base, i, j - 1));
        const double east = core.vload<double>(addr(old_base, i, j + 1));
        core.compute_cycles(p.compute_cycles_per_cell);
        core.vstore<double>(addr(new_base, i, j),
                            0.25 * (north + south + west + east));
      }
    }
    std::swap(old_base, new_base);
    pr.timed("svm.barrier", core, pr.barrier_vps[r], [&] { svm.barrier(); });
  }

  pr.elapsed[r] = core.now() - t0;
  pr.after[r] = core.counters();
  pr.mark(pr.measure_end);

  double sum = 0.0;
  for (u32 i = r0; i < r1; ++i) {
    for (u32 j = 0; j < p.nx; ++j) {
      sum += core.vload<double>(addr(old_base, i, j));
    }
  }
  pr.partial[r] = sum;
  svm.barrier();
}

void ircce_body(const workloads::LaplaceParams& p, Probe& pr,
                cluster::Node& n) {
  scc::Core& core = n.core();
  rcce::Rcce& rcce = n.rcce();
  const int rank = rcce.rank();
  const int size = rcce.size();
  const auto ri = static_cast<std::size_t>(rank);
  const TimePs t_body = core.now();
  const auto [r0, r1] = workloads::laplace_rows_of_rank(p.ny, rank, size);
  const u32 rows_local = r1 - r0;
  const u64 row_bytes = static_cast<u64>(p.nx) * 8;

  // Local arrays with one ghost row above and below.
  u64 old_l = n.kernel().kmalloc((rows_local + 2) * row_bytes, 4096);
  u64 new_l = n.kernel().kmalloc((rows_local + 2) * row_bytes, 4096);
  auto addr = [&](u64 base, u32 local_i, u32 j) {
    return base + static_cast<u64>(local_i) * row_bytes + j * 8;
  };
  for (u32 i = 0; i < rows_local; ++i) {
    for (u32 j = 0; j < p.nx; ++j) {
      const double v = initial_value(p, r0 + i);
      core.vstore<double>(addr(old_l, i + 1, j), v);
      core.vstore<double>(addr(new_l, i + 1, j), v);
    }
  }
  rcce.barrier();
  pr.mark(pr.place_end);

  pr.before[ri] = core.counters();
  const TimePs t0 = core.now();
  pr.place_vps[ri] = t0 - t_body;
  const int up = rank > 0 ? rank - 1 : -1;
  const int down = rank + 1 < size ? rank + 1 : -1;

  for (u32 iter = 0; iter < p.iterations; ++iter) {
    std::vector<rcce::Rcce::RequestHandle> reqs;
    if (up >= 0) {
      reqs.push_back(rcce.irecv(addr(old_l, 0, 0), row_bytes, up));
      reqs.push_back(rcce.isend(addr(old_l, 1, 0), row_bytes, up));
    }
    if (down >= 0) {
      reqs.push_back(
          rcce.irecv(addr(old_l, rows_local + 1, 0), row_bytes, down));
      reqs.push_back(rcce.isend(addr(old_l, rows_local, 0), row_bytes, down));
    }
    pr.timed("rcce.wait_all", core, pr.exchange_vps[ri],
             [&] { rcce.wait_all(reqs); });

    const u32 lo = std::max(r0, 1u);
    const u32 hi = std::min(r1, p.ny - 1);
    for (u32 gi = lo; gi < hi; ++gi) {
      const u32 li = gi - r0 + 1;
      for (u32 j = 1; j + 1 < p.nx; ++j) {
        const double north = core.vload<double>(addr(old_l, li - 1, j));
        const double south = core.vload<double>(addr(old_l, li + 1, j));
        const double west = core.vload<double>(addr(old_l, li, j - 1));
        const double east = core.vload<double>(addr(old_l, li, j + 1));
        core.compute_cycles(p.compute_cycles_per_cell);
        core.vstore<double>(addr(new_l, li, j),
                            0.25 * (north + south + west + east));
      }
    }
    std::swap(old_l, new_l);
    pr.timed("rcce.barrier", core, pr.barrier_vps[ri],
             [&] { rcce.barrier(); });
  }

  pr.elapsed[ri] = core.now() - t0;
  pr.after[ri] = core.counters();
  pr.bytes[ri] = rcce.stats().bytes_sent;
  pr.mark(pr.measure_end);

  double sum = 0.0;
  for (u32 i = 0; i < rows_local; ++i) {
    for (u32 j = 0; j < p.nx; ++j) {
      sum += core.vload<double>(addr(old_l, i + 1, j));
    }
  }
  pr.partial[ri] = sum;
  rcce.barrier();
}

}  // namespace

LaplaceRun run_laplace(const workloads::LaplaceParams& p,
                       LaplaceVariant variant, int num_cores,
                       SpanRecorder* spans) {
  const bool is_svm = variant != LaplaceVariant::kIrcce;
  const cluster::ClusterConfig cfg =
      is_svm ? svm_config(p,
                          variant == LaplaceVariant::kStrong
                              ? svm::Model::kStrong
                              : svm::Model::kLazyRelease,
                          num_cores)
             : ircce_config(p, num_cores);

  const int sim = spans != nullptr ? spans->next_sim() : -1;
  int sim_span = -1;
  if (spans != nullptr) {
    spans->label_sim(sim, std::string("laplace_") + variant_name(variant) +
                              "_c" + std::to_string(num_cores));
    sim_span = spans->open(std::string("laplace.") + variant_name(variant),
                           spans->scope, sim, -1);
  }
  auto open_phase = [&](const char* name) {
    return spans != nullptr ? spans->open(name, sim_span, sim, -1) : -1;
  };

  LaplaceRun run;
  Probe pr(num_cores, spans, sim);
  const double t_build = host_now_s();
  const double rss0 = rss_mb();
  const int build_span = open_phase("build");
  const int place_span = open_phase("place");
  pr.measure_span = open_phase("measure");
  const int verify_span = open_phase("verify");
  TimePs makespan = 0;
  double t_run = 0;
  {
    cluster::Cluster cl(cfg);
    run.build_mb = rss_mb() - rss0;
    t_run = host_now_s();
    cl.run([&](cluster::Node& n) {
      if (is_svm) {
        svm_body(p, pr, n);
      } else {
        ircce_body(p, pr, n);
      }
    });
    makespan = cl.makespan();

    sim::Scheduler& sched = cl.chip().scheduler();
    u64 busiest = 0;
    for (int l = 0; l < sched.num_lanes(); ++l) {
      run.events += sched.lane_dispatched(l);
      busiest = std::max(busiest, sched.lane_dispatched(l));
    }
    run.lane_max_share = run.events > 0 ? static_cast<double>(busiest) /
                                              static_cast<double>(run.events)
                                        : 0.0;
    run.windows = sched.windows_opened();
    if (is_svm) {
      for (const int c : cl.members()) {
        run.result.ownership_acquires +=
            cl.node(c).svm().stats().ownership_acquires;
        run.result.invalidations +=
            cl.node(c).svm().stats().invalidations_sent;
      }
    }
  }
  const double t_end = host_now_s();

  TimePs place_vmax = 0, measure_vmax = 0;
  for (int r = 0; r < num_cores; ++r) {
    const auto i = static_cast<std::size_t>(r);
    workloads::LaplaceResult& res = run.result;
    res.elapsed = std::max(res.elapsed, pr.elapsed[i]);
    res.checksum += pr.partial[i];
    const scc::CoreCounters d = pr.after[i] - pr.before[i];
    res.page_faults += d.page_faults;
    res.wcb_flushes += d.wcb_flushes;
    res.l2_hits += d.l2_hits;
    res.l1_misses += d.l1_misses;
    res.dram_reads += d.dram_reads;
    res.dram_writes += d.dram_writes;
    if (is_svm) {
      res.mail_roundtrips += d.svm_mail_roundtrips;
    } else {
      res.bytes_messaged += pr.bytes[i];
    }
    run.measured += d;
    run.barrier_vps += pr.barrier_vps[i];
    run.exchange_vps += pr.exchange_vps[i];
    place_vmax = std::max(place_vmax, pr.place_vps[i]);
    measure_vmax = std::max(measure_vmax, pr.place_vps[i] + pr.elapsed[i]);
  }
  run.place_vps = place_vmax;
  run.build_s = t_run - t_build;
  run.place_s = pr.place_end - t_run;
  run.measure_s = pr.measure_end - pr.place_end;
  run.verify_s = t_end - pr.measure_end;

  if (spans != nullptr) {
    spans->set(build_span, t_build, t_run, 0, 0);
    spans->set(place_span, t_run, pr.place_end, 0, place_vmax);
    spans->set(pr.measure_span, pr.place_end, pr.measure_end, place_vmax,
               measure_vmax);
    spans->set(verify_span, pr.measure_end, t_end, measure_vmax, makespan);
    spans->close(sim_span, makespan);
  }
  return run;
}

}  // namespace perfbench
