#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "laplace_driver.hpp"
#include "obs/bus.hpp"
#include "obs/metrics.hpp"
#include "serve/kv_serving.hpp"
#include "workloads/laplace.hpp"
#include "workloads/svm_overhead.hpp"

namespace perfbench {

using namespace msvm;

namespace {

/// The metrics registry's counters (core.*, sched.*, svm.*, mailbox.*),
/// summed over one repetition's simulations.
using Counts = std::map<std::string, u64>;

/// Moves the registry's totals of the simulation that just ended into
/// `into` and clears the registry for the next one.
void drain_registry(Counts& into) {
  obs::MetricsRegistry& m = obs::global_metrics();
  for (const auto& [name, value] : m.counters()) into[name] += value;
  m.clear();
}

double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double ps_to_vms(u64 ps) { return static_cast<double>(ps) / 1e9; }

/// What the Laplace driver measures beyond the registry, summed over a
/// repetition's Laplace simulations.
struct LaplaceTotals {
  double build_s = 0, place_s = 0, measure_s = 0, verify_s = 0;
  double build_mb = 0;  // largest single constructor
  TimePs place_vps = 0, barrier_vps = 0, exchange_vps = 0;
  u64 measured_mem_ops = 0;
  u64 rcce_bytes = 0;
  u64 events = 0, windows = 0;
  double lane_max_share = 0;  // largest over the simulations

  void add(const LaplaceRun& r) {
    build_s += r.build_s;
    place_s += r.place_s;
    measure_s += r.measure_s;
    verify_s += r.verify_s;
    build_mb = std::max(build_mb, r.build_mb);
    place_vps += r.place_vps;
    barrier_vps += r.barrier_vps;
    exchange_vps += r.exchange_vps;
    measured_mem_ops += r.measured.loads + r.measured.stores;
    rcce_bytes += r.result.bytes_messaged;
    events += r.events;
    windows += r.windows;
    lane_max_share = std::max(lane_max_share, r.lane_max_share);
  }
};

/// Every per-layer metric the registry and the Laplace driver give. A
/// layer a workload does not exercise reads 0 (see perfbench/README.md).
void fill_layers(Rep& rep, const Counts& c, const LaplaceTotals& l) {
  auto at = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? u64{0} : it->second;
  };
  auto& x = rep.exact;
  x["svm.place_vms"] = ps_to_vms(l.place_vps);
  x["svm.first_touch_allocs"] = static_cast<double>(at("svm.first_touch_allocs"));
  x["svm.ownership_acquires"] = static_cast<double>(at("svm.ownership_acquires"));
  x["svm.mail_roundtrips"] = static_cast<double>(at("core.svm_mail_roundtrips"));
  x["svm.fault_stall_vms"] = ps_to_vms(at("core.svm_fault_stall_ps"));
  x["svm.barrier_vms"] = ps_to_vms(l.barrier_vps);
  x["svm.lock_acquires"] = static_cast<double>(at("svm.lock_acquires"));
  x["svm.replica_grants"] = static_cast<double>(at("svm.replica_grants"));
  x["svm.invalidations_sent"] = static_cast<double>(at("svm.invalidations_sent"));

  const u64 mem_ops = at("core.loads") + at("core.stores");
  x["sccsim.mem_ops"] = static_cast<double>(mem_ops);
  x["sccsim.l1_hit_ratio"] =
      ratio(at("core.l1_hits"), at("core.l1_hits") + at("core.l1_misses"));
  x["sccsim.tlb_miss_ratio"] =
      ratio(at("core.tlb_misses"), at("core.tlb_hits") + at("core.tlb_misses"));
  x["sccsim.l2_hits"] = static_cast<double>(at("core.l2_hits"));
  x["sccsim.wcb_flushes"] = static_cast<double>(at("core.wcb_flushes"));
  x["sccsim.dram_reads"] = static_cast<double>(at("core.dram_reads"));
  x["sccsim.dram_writes"] = static_cast<double>(at("core.dram_writes"));
  x["sccsim.busy_vms"] = ps_to_vms(at("core.busy_ps"));

  x["kernel.timer_irqs"] = static_cast<double>(at("core.timer_irqs"));
  x["kernel.ipi_irqs"] = static_cast<double>(at("core.ipi_irqs"));
  x["kernel.tas_acquires"] = static_cast<double>(at("core.tas_acquires"));
  x["kernel.spins_per_acquire"] =
      ratio(at("core.tas_spins"), at("core.tas_acquires"));

  x["mailbox.sent"] = static_cast<double>(at("mailbox.sent"));
  x["mailbox.checks_per_recv"] =
      ratio(at("mailbox.slot_checks"), at("mailbox.received"));
  x["mailbox.send_stalls"] = static_cast<double>(at("mailbox.send_stalls"));
  x["mailbox.send_stall_vms"] = ps_to_vms(at("mailbox.send_stall_ps"));
  x["mailbox.recv_wait_vms"] = ps_to_vms(at("mailbox.recv_wait_ps"));

  x["rcce.bytes_sent"] = static_cast<double>(l.rcce_bytes);
  x["rcce.exchange_vms"] = ps_to_vms(l.exchange_vps);

  x["sim.events"] = static_cast<double>(l.events);
  x["sim.lane_max_share"] = l.lane_max_share;
  x["sim.windows"] = static_cast<double>(l.windows);

  auto& h = rep.host;
  h["cluster.build_s"] = l.build_s;
  h["cluster.build_mb"] = l.build_mb;
  h["svm.place_s"] = l.place_s;
  h["sccsim.host_ns_per_mem_op"] =
      l.measured_mem_ops == 0
          ? 0.0
          : l.measure_s * 1e9 / static_cast<double>(l.measured_mem_ops);
  h["sim.host_ns_per_event"] =
      l.events == 0 ? 0.0
                    : (l.place_s + l.measure_s + l.verify_s) * 1e9 /
                          static_cast<double>(l.events);
}

// ---------------------------------------------------------------------------
// Laplace (paper24, scale256)

/// Runs one Laplace simulation and checks its checksum against the
/// host-side reference.
void laplace_sim(Rep& rep, const workloads::LaplaceParams& p,
                 LaplaceVariant v, int cores, double reference,
                 const char* metric, LaplaceTotals& totals, Counts& counts,
                 SpanRecorder* spans) {
  const LaplaceRun r = run_laplace(p, v, cores, spans);
  if (spans != nullptr) drain_registry(counts);
  totals.add(r);
  rep.setup_s += r.build_s + r.place_s;
  ++rep.attempted;
  const double err = std::fabs(r.result.checksum - reference) /
                     std::max(1.0, std::fabs(reference));
  if (!(err <= 1e-9) || r.result.elapsed == 0) {
    ++rep.failed;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "laplace %s on %d cores: checksum %.12g, reference %.12g",
                  variant_name(v), cores, r.result.checksum, reference);
    rep.fail(buf);
  }
  rep.exact[metric] = ps_to_vms(r.result.elapsed);
}

/// Table 1's rows 3 and 4, which the cost model was not calibrated on.
constexpr double kPaperMapStrongUs = 10.198;
constexpr double kPaperMapLazyUs = 2.418;
constexpr double kPaperRetrieveStrongUs = 8.990;

void table1(Rep& rep) {
  workloads::SvmOverheadParams p;
  p.model = svm::Model::kStrong;
  const workloads::SvmOverheadResult strong = workloads::run_svm_overhead(p);
  p.model = svm::Model::kLazyRelease;
  const workloads::SvmOverheadResult lazy = workloads::run_svm_overhead(p);
  rep.attempted += 2;

  auto us = [](TimePs t) { return static_cast<double>(t) / 1e6; };
  auto rel = [](double got, double paper) {
    return std::fabs(got - paper) / paper;
  };
  const double err = std::max(
      {rel(us(strong.map_per_page), kPaperMapStrongUs),
       rel(us(lazy.map_per_page), kPaperMapLazyUs),
       rel(us(strong.retrieve_per_page), kPaperRetrieveStrongUs)});
  rep.exact["table1_err_pct"] = 100.0 * err;

  // The paper's shape: rows 1-2 do not depend on the model; Strong maps
  // several times slower than Lazy; permission retrieval costs only
  // under Strong.
  const bool shape =
      strong.pages == 1024 && lazy.pages == 1024 &&
      rel(us(strong.alloc_total), us(lazy.alloc_total)) < 0.01 &&
      rel(us(strong.phys_alloc_per_page), us(lazy.phys_alloc_per_page)) <
          0.01 &&
      strong.map_per_page > 2 * lazy.map_per_page &&
      strong.retrieve_per_page > 2 * lazy.retrieve_per_page;
  if (!shape) {
    rep.failed += 2;
    rep.fail("table 1 does not have the paper's shape");
  }
}

Rep paper24(SpanRecorder* spans) {
  Rep rep;
  Counts counts;
  LaplaceTotals totals;
  table1(rep);
  if (spans != nullptr) drain_registry(counts);

  workloads::LaplaceParams p;  // Figure 9: 1024 x 512, 10 iterations
  p.iterations = 10;
  const double reference = workloads::laplace_reference_checksum(p);
  laplace_sim(rep, p, LaplaceVariant::kIrcce, 24, reference, "ircce_vms",
              totals, counts, spans);
  laplace_sim(rep, p, LaplaceVariant::kStrong, 24, reference, "strong_vms",
              totals, counts, spans);
  laplace_sim(rep, p, LaplaceVariant::kLrc, 24, reference, "lrc_vms",
              totals, counts, spans);
  if (spans != nullptr) fill_layers(rep, counts, totals);
  return rep;
}

Rep scale256(SpanRecorder* spans) {
  Rep rep;
  Counts counts;
  LaplaceTotals totals;
  workloads::LaplaceParams p;  // the scaling bench's grid, 3 iterations
  p.iterations = 3;
  p.sched_lanes = 4;
  const double reference = workloads::laplace_reference_checksum(p);
  laplace_sim(rep, p, LaplaceVariant::kStrong, 256, reference, "strong_vms",
              totals, counts, spans);
  laplace_sim(rep, p, LaplaceVariant::kLrc, 256, reference, "lrc_vms",
              totals, counts, spans);
  if (spans != nullptr) fill_layers(rep, counts, totals);
  return rep;
}

// ---------------------------------------------------------------------------
// kv48

constexpr int kKvCores = 48;
constexpr double kKvRefRps = 2'000'000.0;
constexpr double kKvLimitUs = 100.0;
/// The slo_rps search: bisection over [reference, kKvSearchHi] down to
/// kKvSearchStep, every probe a fresh tier.
constexpr double kKvSearchHi = 6'000'000.0;
constexpr double kKvSearchStep = 62'500.0;
/// Load window per tier: 40 000 requests at the reference rate, so p99
/// has 400 samples beyond it and moves little from seed to seed.
constexpr TimePs kKvLoadPs = 20 * kPsPerMs;

serve::KvServingParams kv_params(u64 seed, double agg_rps) {
  serve::KvServingParams p;
  p.seed = seed;
  p.store.seed = seed;
  p.gen.num_keys = 4096;
  p.gen.zipf_theta = 0.99;
  p.gen.read_fraction = 0.90;
  p.gen.scan_fraction = 0.02;
  p.gen.scan_len = 8;
  p.gen.rate_rps = agg_rps / kKvCores;
  p.gen.load_ps = kKvLoadPs;
  return p;
}

/// One tier at one offered rate, as the latency limit sees it.
struct Tier {
  serve::KvServingResult r;
  u64 attempted = 0;
  u64 failed = 0;
  /// p99 in us with every failed request counted above any limit
  /// (infinite when more than 1% failed).
  double p99_us = 0;
  bool meets_slo = false;
  double host_s = 0;
};

serve::KvServingResult kv_run(u64 seed, double agg_rps, const char* name,
                              SpanRecorder* spans) {
  const int sim = spans != nullptr ? spans->next_sim() : -1;
  int span = -1;
  if (spans != nullptr) {
    char label[64];
    std::snprintf(label, sizeof(label), "%s_%.0f_rps", name, agg_rps);
    spans->label_sim(sim, label);
    span = spans->open(name, spans->scope, sim, -1);
  }
  serve::KvServingResult r = serve::run_kv_serving(
      kv_params(seed, agg_rps), svm::Model::kStrong, kKvCores);
  if (spans != nullptr) spans->close(span, r.makespan);
  return r;
}

/// Stands a fresh tier up at `agg_rps`. Its set-up time is taken from an
/// identical tier run first with no traffic. With `counts` set, the
/// tier's registry totals are added to it.
Tier kv_tier(Rep& rep, u64 seed, double agg_rps, SpanRecorder* spans,
             Counts* counts) {
  const double t_setup = host_now_s();
  kv_run(seed, 0.0, "kv.setup", spans);
  const double t_serve = host_now_s();
  rep.setup_s += t_serve - t_setup;
  obs::global_metrics().clear();

  Tier t;
  t.r = kv_run(seed, agg_rps, "kv.serve", spans);
  t.host_s = host_now_s() - t_serve;
  if (counts != nullptr) drain_registry(*counts);
  obs::global_metrics().clear();

  const serve::KvServingResult& r = t.r;
  t.failed = r.timeouts + r.dead_shed + r.unfinished + r.wrong;
  t.attempted = r.completed + r.timeouts + r.dead_shed + r.unfinished;
  const double target = 0.99 * static_cast<double>(t.attempted);
  const double good = static_cast<double>(r.completed - r.wrong);
  t.p99_us = good >= target && r.latency.count() > 0
                 ? static_cast<double>(r.latency.percentile(std::min(
                       1.0, target / static_cast<double>(r.latency.count())))) /
                       1e6
                 : INFINITY;
  // No growing backlog: under 1% of the offered requests still queued or
  // in flight when the drain ends. A stranded request is a failure that
  // p99_us already counts above the limit; a backlog is thousands.
  t.meets_slo = t.p99_us <= kKvLimitUs && r.unfinished * 100 < t.attempted;
  ++rep.attempted;
  if (r.wrong != 0) {
    ++rep.failed;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "kv48 at %.0f req/s: %llu wrong replies",
                  agg_rps, static_cast<unsigned long long>(r.wrong));
    rep.fail(buf);
  }
  return t;
}

Rep kv48(u64 seed, SpanRecorder* spans) {
  Rep rep;
  Counts counts;
  const Tier ref = kv_tier(rep, seed, kKvRefRps, spans, &counts);
  rep.exact["p50_us"] = static_cast<double>(ref.r.latency.p50()) / 1e6;
  rep.exact["p99_us"] = ref.p99_us;
  rep.exact["ok_frac"] = ratio(ref.attempted - ref.failed, ref.attempted);
  if (!std::isfinite(ref.p99_us) || ref.r.latency.count() < 1000) {
    rep.fail("kv48 reference rate: too few completions for a p99");
  }

  // Highest offered rate meeting the limit, on a kKvSearchStep grid.
  double lo = ref.meets_slo ? kKvRefRps : 0.0;
  double hi = kKvSearchHi;
  while (hi - lo > kKvSearchStep) {
    const double mid =
        lo + std::floor((hi - lo) / (2 * kKvSearchStep)) * kKvSearchStep;
    (kv_tier(rep, seed, mid, spans, nullptr).meets_slo ? lo : hi) = mid;
  }
  rep.exact["slo_rps"] = lo;

  if (spans != nullptr) {
    fill_layers(rep, counts, LaplaceTotals{});
    const serve::KvServingResult& r = ref.r;
    rep.exact["serve.issued"] = static_cast<double>(r.issued);
    rep.exact["serve.completed"] = static_cast<double>(r.completed);
    rep.exact["serve.timeouts"] = static_cast<double>(r.timeouts);
    rep.exact["serve.unfinished"] = static_cast<double>(r.unfinished);
    rep.exact["serve.retransmits"] = static_cast<double>(r.retransmits);
    rep.exact["serve.local_share"] =
        ratio(r.local_ops, r.local_ops + r.served_ops);
    rep.exact["serve.late_starts"] = static_cast<double>(r.late_starts);
    rep.exact["serve.p999_us"] = static_cast<double>(r.latency.p999()) / 1e6;
    const double mem_ops = rep.exact["sccsim.mem_ops"];
    rep.host["sccsim.host_ns_per_mem_op"] =
        mem_ops == 0 ? 0.0 : ref.host_s * 1e9 / mem_ops;
  }
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper24", "kv48",
                                                 "scale256"};
  return names;
}

Rep run_workload(const std::string& workload, u64 seed,
                 SpanRecorder* spans) {
  obs::runtime_config().metrics = spans != nullptr;
  obs::global_metrics().clear();
  if (spans != nullptr) spans->scope = spans->open(workload, -1, -1, -1);
  const double t0 = host_now_s();
  Rep rep;
  if (workload == "paper24") {
    rep = paper24(spans);
  } else if (workload == "kv48") {
    rep = kv48(seed, spans);
  } else {
    rep = scale256(spans);
  }
  rep.wall_s = host_now_s() - t0;
  if (spans != nullptr) spans->close(spans->scope);
  obs::runtime_config().metrics = false;
  if (rep.exact.count("ok_frac") == 0) {
    rep.exact["ok_frac"] = ratio(rep.attempted - rep.failed, rep.attempted);
  }
  return rep;
}

}  // namespace perfbench
