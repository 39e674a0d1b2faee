// Chaos campaign: run the three shared-memory workloads (Laplace,
// matmul, histogram) under a matrix of seeded fault-injection plans and
// assert the system's robustness contract — every run either completes
// with bit-correct data or fails *cleanly* with a typed HangError
// carrying a structured hang report. A silent hang, a bare deadlock
// abort, or silently corrupted results all fail the campaign.
//
// Each plan draws its injection probabilities from a small set (so the
// matrix covers single-fault and compound-fault runs) and fixes the
// recovery envelope: an armed watchdog, an IPI-mode poll sweep (the only
// recovery for a dropped wake-up IPI — the receiver halts and would
// never re-check its slots otherwise), degradation to poll mode after
// repeated loss, and a short retransmission timeout so slot-stuck
// requests retry within the campaign's small workloads.
//
//   ./chaos_campaign --plans=20 --seed=42 --cores=4
//   ./chaos_campaign --faults='ipi_drop=0.2,watchdog=500ms,sweep=2'
//
// With --faults the given plan replaces the random matrix (one plan,
// still run across all workloads and both delivery modes).
//
// Kill mode (`--kill`) runs the fail-stop campaign instead: seeded
// slot-mosaic runs cycling {48, 96, 256} cores (multi-lane scheduling
// at and above 96) x {strong, strong+rr, lrc}, each killing 1..3
// random cores at random virtual times under the heartbeat-lease
// recovery envelope. Every run must end as correct-surviving-cores, a
// typed data loss, or a clean HangError — never wrong data, never a
// crash. `--audit` attaches the ShadowDirectory coherence auditor and
// fails the campaign on any invariant violation.
//
//   ./chaos_campaign --kill --plans=126 --audit
//   ./chaos_campaign --kill --plans=9 --cores=96 --lanes=4
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>

#include "bench/bench_common.hpp"
#include "sim/faults.hpp"
#include "workloads/histogram.hpp"
#include "workloads/kill_mosaic.hpp"
#include "workloads/laplace.hpp"
#include "workloads/matmul.hpp"

namespace {

using namespace msvm;

enum class Outcome { kCorrect, kCleanHang, kDataLoss, kWrong };

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kCorrect: return "correct";
    case Outcome::kCleanHang: return "clean-hang";
    case Outcome::kDataLoss: return "data-loss";
    case Outcome::kWrong: return "WRONG";
  }
  return "?";
}

bool close_enough(double got, double want) {
  const double scale = std::max(1.0, std::fabs(want));
  return std::fabs(got - want) <= 1e-9 * scale;
}

/// One random plan: injection knobs from {off, rare, common, heavy},
/// recovery envelope fixed (watchdog + sweep + degrade + fast retry).
sim::FaultPlan random_plan(sim::Rng& rng, u64 plan_seed) {
  static constexpr double kProbs[] = {0.0, 0.02, 0.1, 0.3};
  auto draw = [&rng] { return kProbs[rng.next_below(4)]; };
  sim::FaultPlan plan;
  plan.seed = plan_seed;
  plan.ipi_drop = draw();
  plan.ipi_delay = draw();
  plan.mail_delay = draw();
  plan.mail_dup = draw();
  plan.stall = draw();
  plan.spurious = draw();
  plan.watchdog_ps = 500 * kPsPerMs;
  plan.sweep_period = 2;
  plan.degrade_after = 6;
  plan.retry_ps = 2 * kPsPerMs;
  return plan;
}

bool g_print_reports = false;

Outcome guard(const char* what, const std::string& spec,
              Outcome (*body)(const sim::FaultPlan&, bool, int),
              const sim::FaultPlan& plan, bool use_ipi, int cores) {
  try {
    return body(plan, use_ipi, cores);
  } catch (const sim::HangError& e) {
    // The robustness contract: a hang must surface as a typed error
    // with a non-empty structured report, never a silent wedge.
    if (e.report().empty()) {
      std::fprintf(stderr, "%s [%s]: HangError with empty report\n", what,
                   spec.c_str());
      return Outcome::kWrong;
    }
    if (g_print_reports) {
      std::printf("  --- %s [%s]: %s ---\n%s", what, spec.c_str(),
                  e.what(), e.report().c_str());
    }
    return Outcome::kCleanHang;
  }
}

Outcome laplace_once(const sim::FaultPlan& plan, bool use_ipi, int cores) {
  workloads::LaplaceParams p;
  p.ny = 32;
  p.nx = 64;
  p.iterations = 3;
  p.faults = plan;
  const double want = workloads::laplace_reference_checksum(p);
  const workloads::LaplaceResult r =
      workloads::run_laplace_svm(p, svm::Model::kStrong, cores, use_ipi);
  return close_enough(r.checksum, want) ? Outcome::kCorrect
                                        : Outcome::kWrong;
}

Outcome matmul_once(const sim::FaultPlan& plan, bool use_ipi, int cores) {
  workloads::MatmulParams p;
  p.n = 20;
  p.use_ipi = use_ipi;
  p.faults = plan;
  const double want = workloads::matmul_reference_checksum(p);
  const workloads::MatmulResult r =
      workloads::run_matmul(p, svm::Model::kStrong, cores);
  return close_enough(r.checksum, want) ? Outcome::kCorrect
                                        : Outcome::kWrong;
}

Outcome histogram_once(const sim::FaultPlan& plan, bool use_ipi,
                       int cores) {
  workloads::HistogramParams p;
  p.bins = 64;
  p.samples_per_core = 512;
  p.use_ipi = use_ipi;
  p.faults = plan;
  const std::vector<u64> want = workloads::histogram_reference(p, cores);
  const workloads::HistogramResult r =
      workloads::run_histogram(p, svm::Model::kLazyRelease, cores);
  return r.bins == want ? Outcome::kCorrect : Outcome::kWrong;
}

// ---------------------------------------------------------------------------
// Kill mode: the fail-stop campaign.

struct KillCombo {
  int cores;
  int lanes;
  svm::Model model;
  bool read_replication;
  const char* name;
};

/// {48, 96, 256} cores x {strong, strong+rr, lrc}; 96+ runs the sharded
/// multi-lane scheduler.
constexpr KillCombo kKillCombos[] = {
    {48, 1, svm::Model::kStrong, false, "strong"},
    {48, 1, svm::Model::kStrong, true, "strong+rr"},
    {48, 1, svm::Model::kLazyRelease, false, "lrc"},
    {96, 4, svm::Model::kStrong, false, "strong"},
    {96, 4, svm::Model::kStrong, true, "strong+rr"},
    {96, 4, svm::Model::kLazyRelease, false, "lrc"},
    {256, 8, svm::Model::kStrong, false, "strong"},
    {256, 8, svm::Model::kStrong, true, "strong+rr"},
    {256, 8, svm::Model::kLazyRelease, false, "lrc"},
};

/// 1..3 distinct victims at random ns-aligned virtual times; the times
/// stay ns-aligned so plan.to_spec() round-trips through parse().
sim::FaultPlan random_kill_plan(sim::Rng& rng, u64 plan_seed, int cores) {
  sim::FaultPlan plan;
  plan.seed = plan_seed;
  const u64 nkills = 1 + rng.next_below(3);
  for (u64 k = 0; k < nkills; ++k) {
    sim::KillSpec spec;
    for (;;) {
      spec.core = static_cast<int>(rng.next_below(static_cast<u64>(cores)));
      bool dup = false;
      for (const sim::KillSpec& prev : plan.kills) {
        if (prev.core == spec.core) dup = true;
      }
      if (!dup) break;
    }
    spec.at_ps =
        (200'000 + static_cast<TimePs>(rng.next_below(4'800'000))) * kPsPerNs;
    plan.kills.push_back(spec);
  }
  // Recovery envelope: armed watchdog (hangs must be typed), heartbeat
  // lease (detection), poll sweep + degrade + fast retry as usual.
  plan.watchdog_ps = 500 * kPsPerMs;
  plan.sweep_period = 2;
  plan.degrade_after = 6;
  plan.retry_ps = 2 * kPsPerMs;
  plan.lease_ps = 500 * kPsPerUs;
  return plan;
}

int kill_campaign(int argc, char** argv, u64 seed, u64 num_plans) {
  const int fixed_cores =
      static_cast<int>(bench::arg_u64(argc, argv, "cores", 0));
  const int fixed_lanes =
      static_cast<int>(bench::arg_u64(argc, argv, "lanes", 0));
  const bool audit = bench::arg_flag(argc, argv, "audit");

  bench::print_header(
      "chaos campaign (kill mode): fail-stop deaths under recovery",
      "contract: surviving cores correct, losses typed, hangs clean");

  bench::JsonReport json("chaos_campaign_kill", argc, argv);
  json.config("plans", num_plans);
  if (audit) json.config("audit", u64{1});

  sim::Rng rng = bench::seeded_rng(seed);
  u64 correct = 0;
  u64 clean_hangs = 0;
  u64 data_loss = 0;
  u64 wrong = 0;
  u64 audit_violations = 0;
  u64 recoveries = 0;

  for (u64 i = 0; i < num_plans; ++i) {
    const KillCombo& combo = kKillCombos[i % std::size(kKillCombos)];
    const int cores = fixed_cores > 0 ? fixed_cores : combo.cores;
    workloads::KillMosaicParams p;
    p.sched_lanes = fixed_lanes > 0
                        ? fixed_lanes
                        : (fixed_cores > 0 ? (cores >= 96 ? 4 : 1)
                                           : combo.lanes);
    p.seed = seed * 1000 + i;
    p.read_replication = combo.read_replication;
    p.use_ipi = (i % 2) == 0;
    p.audit = audit;
    p.faults = random_kill_plan(rng, p.seed, cores);
    const std::string spec = p.faults.to_spec();

    std::printf("run %3llu/%llu: %3d cores x%d %-9s %s\n",
                static_cast<unsigned long long>(i + 1),
                static_cast<unsigned long long>(num_plans), cores,
                p.sched_lanes, combo.name, spec.c_str());

    Outcome o = Outcome::kCorrect;
    workloads::KillMosaicResult r;
    try {
      r = workloads::run_kill_mosaic(p, combo.model, cores);
      if (r.slot_mismatches > 0) {
        std::fprintf(stderr, "  WRONG: %llu slot mismatch(es)\n",
                     static_cast<unsigned long long>(r.slot_mismatches));
        o = Outcome::kWrong;
      } else if (r.ranks_lost > 0) {
        o = Outcome::kDataLoss;
      }
      if (audit && r.audit_violations > 0) {
        std::fprintf(stderr, "  AUDIT: %s", r.audit_report.c_str());
        audit_violations += r.audit_violations;
        o = Outcome::kWrong;
      }
      recoveries += r.recoveries;
    } catch (const sim::HangError& e) {
      if (e.report().empty()) {
        std::fprintf(stderr, "  HangError with empty report\n");
        o = Outcome::kWrong;
      } else {
        if (g_print_reports) {
          std::printf("  --- hang report ---\n%s", e.report().c_str());
        }
        o = Outcome::kCleanHang;
      }
    }

    std::printf("  -> %-10s verified=%d lost=%d recoveries=%llu "
                "(rehomed=%llu refetched=%llu poisoned=%llu) "
                "locks_broken=%llu%s\n",
                outcome_name(o), r.ranks_verified, r.ranks_lost,
                static_cast<unsigned long long>(r.recoveries),
                static_cast<unsigned long long>(r.pages_rehomed),
                static_cast<unsigned long long>(r.pages_refetched),
                static_cast<unsigned long long>(r.pages_lost),
                static_cast<unsigned long long>(r.locks_broken),
                audit ? (r.audit_violations == 0 ? " audit=clean"
                                                 : " audit=VIOLATED")
                      : "");
    switch (o) {
      case Outcome::kCorrect: ++correct; break;
      case Outcome::kCleanHang: ++clean_hangs; break;
      case Outcome::kDataLoss: ++data_loss; break;
      case Outcome::kWrong: ++wrong; break;
    }
  }

  const u64 total = correct + clean_hangs + data_loss + wrong;
  bench::print_row_sep();
  std::printf("kill campaign: %llu run(s): %llu correct, %llu typed "
              "data-loss, %llu clean hang(s), %llu WRONG\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(correct),
              static_cast<unsigned long long>(data_loss),
              static_cast<unsigned long long>(clean_hangs),
              static_cast<unsigned long long>(wrong));
  json.sample("correct", static_cast<double>(correct));
  json.sample("data_loss", static_cast<double>(data_loss));
  json.sample("clean_hangs", static_cast<double>(clean_hangs));
  json.sample("wrong", static_cast<double>(wrong));
  json.sample("recoveries", static_cast<double>(recoveries));
  if (audit) json.sample("audit_violations",
                         static_cast<double>(audit_violations));
  if (wrong != 0) {
    std::fprintf(stderr,
                 "kill campaign FAILED: %llu run(s) broke the contract\n",
                 static_cast<unsigned long long>(wrong));
    return 1;
  }
  std::printf("kill campaign passed: every death ended in surviving-core "
              "correctness, a typed loss, or a clean hang%s\n",
              audit ? " (auditor clean)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msvm;
  const u64 seed = bench::arg_seed(argc, argv);
  const u64 num_plans = bench::arg_u64(argc, argv, "plans", 20);
  if (bench::arg_flag(argc, argv, "kill")) {
    g_print_reports = bench::arg_flag(argc, argv, "report");
    return kill_campaign(argc, argv, seed, num_plans);
  }
  const int cores =
      static_cast<int>(bench::arg_u64(argc, argv, "cores", 4));
  const std::string fixed_spec = bench::arg_str(argc, argv, "faults");
  g_print_reports = bench::arg_flag(argc, argv, "report");

  bench::print_header(
      "chaos campaign: workloads under deterministic fault injection",
      "robustness contract: correct data or a typed, reported failure");

  bench::JsonReport json("chaos_campaign", argc, argv);
  json.config("plans", num_plans);
  json.config("cores", static_cast<u64>(cores));
  if (!fixed_spec.empty()) json.config("faults", fixed_spec);

  struct Case {
    const char* name;
    Outcome (*body)(const sim::FaultPlan&, bool, int);
  };
  static constexpr Case kCases[] = {
      {"laplace", laplace_once},
      {"matmul", matmul_once},
      {"histogram", histogram_once},
  };

  sim::Rng rng = bench::seeded_rng(seed);
  u64 correct = 0;
  u64 clean_hangs = 0;
  u64 wrong = 0;

  for (u64 i = 0; i < num_plans; ++i) {
    sim::FaultPlan plan;
    if (!fixed_spec.empty()) {
      plan = bench::arg_faults(argc, argv);
    } else {
      plan = random_plan(rng, seed * 1000 + i);
    }
    const std::string spec = plan.to_spec();
    std::printf("plan %2llu/%llu: %s\n",
                static_cast<unsigned long long>(i + 1),
                static_cast<unsigned long long>(num_plans),
                spec.empty() ? "(no faults)" : spec.c_str());
    for (const Case& c : kCases) {
      for (const bool use_ipi : {true, false}) {
        const Outcome o = guard(c.name, spec, c.body, plan, use_ipi, cores);
        std::printf("  %-9s %-4s -> %s\n", c.name,
                    use_ipi ? "ipi" : "poll", outcome_name(o));
        switch (o) {
          case Outcome::kCorrect: ++correct; break;
          case Outcome::kCleanHang: ++clean_hangs; break;
          // No core dies in this campaign: lost data is a wrong result.
          case Outcome::kDataLoss:
          case Outcome::kWrong: ++wrong; break;
        }
      }
    }
  }

  const u64 total = correct + clean_hangs + wrong;
  bench::print_row_sep();
  std::printf("campaign: %llu run(s): %llu correct, %llu clean hang(s), "
              "%llu WRONG\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(correct),
              static_cast<unsigned long long>(clean_hangs),
              static_cast<unsigned long long>(wrong));
  json.sample("correct", static_cast<double>(correct));
  json.sample("clean_hangs", static_cast<double>(clean_hangs));
  json.sample("wrong", static_cast<double>(wrong));
  if (wrong != 0) {
    std::fprintf(stderr,
                 "chaos campaign FAILED: %llu run(s) broke the "
                 "correct-or-fail-cleanly contract\n",
                 static_cast<unsigned long long>(wrong));
    return 1;
  }
  std::printf("chaos campaign passed: every run completed correctly or "
              "failed cleanly\n");
  return 0;
}
