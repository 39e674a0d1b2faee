// Core::tas_spin against a reference spin loop kept only here: the
// exponential-backoff loop over tas_try_acquire() + relax() that every TAS
// lock used before the scheduler learned to replay failed polls in place
// (Core::replay). The replay must be invisible: for cores contending on
// one register, acquisition order and clocks, every per-core counter the
// spin touches and the dispatched event count must match the reference
// exactly — with holds longer than the timer period, IPIs landing
// mid-backoff, spins with IRQs masked, an armed watchdog, and a caller
// turn every 64 failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "sccsim/chip.hpp"
#include "sim/faults.hpp"
#include "sim/rng.hpp"

namespace msvm::scc {
namespace {

constexpr int kReg = 5;
constexpr const char* kSite = "tas.test";

struct Case {
  int rounds = 16;
  u64 max_think_cycles = 5'000;
  u64 max_hold_cycles = 40'000;
  bool ipis = false;          // a ninth core raises IPIs at the spinners
  bool masked = false;        // every other acquire runs with IRQs masked
  u64 warn_every = 0;         // caller turn every N failed polls
  TimePs watchdog_ps = 0;     // armed watchdog
  bool desert = false;        // the first holder never releases
  u64 seed = 1;
};

struct CoreResult {
  TimePs clock;
  u64 busy_ps, tas_acquires, tas_spins, timer_irqs, ipi_irqs;
  bool operator==(const CoreResult&) const = default;
};

struct Result {
  std::vector<std::tuple<int, TimePs>> acquisitions;  // (core, clock)
  std::vector<std::tuple<int, u64, TimePs>> turns;    // (core, spins, clock)
  std::vector<CoreResult> cores;
  u64 events = 0;  // scheduler pops, replayed ones included
  std::string hang_report;
  bool operator==(const Result&) const = default;
};

// Contenders spread over all four mesh quadrants, plus the IPI source.
const std::vector<int> kContenders = {0, 7, 13, 18, 25, 31, 38, 46};
constexpr int kPinger = 20;

// The spin loop as it stood before poll replay: try, count, warn, check
// the watchdog, relax, double the backoff.
void reference_spin(Core& core, u64 warn_every, Result& out) {
  Chip& chip = core.chip();
  sim::BlockScope scope(chip.scheduler().current(), kSite, kReg,
                        static_cast<u64>(core.id()));
  const TimePs t0 = core.now();
  u64 spins = 0;
  u64 backoff_cycles = TasSpin::kStartCycles;
  while (!core.tas_try_acquire(kReg)) {
    ++spins;
    if (warn_every != 0 && spins % warn_every == 0) {
      core.compute_cycles(7);
      out.turns.emplace_back(core.id(), spins, core.now());
    }
    if (chip.watchdog().check(core.now(), t0, kSite, core.id())) {
      chip.scheduler().block();
    }
    core.relax(backoff_cycles * chip.config().core_cycle_ps());
    backoff_cycles = std::min(backoff_cycles * 2, TasSpin::kCapCycles);
  }
}

void replayed_spin(Core& core, u64 warn_every, Result& out) {
  TasSpin spin(core, kReg, kSite, kReg, warn_every);
  while (!core.tas_spin(spin)) {
    core.compute_cycles(7);
    out.turns.emplace_back(core.id(), spin.spins(), core.now());
  }
}

Result run_case(const Case& c, bool reference) {
  ChipConfig cfg;
  cfg.shared_dram_bytes = 4 << 20;
  cfg.private_dram_bytes = 1 << 20;
  cfg.faults.watchdog_ps = c.watchdog_ps;
  Chip chip(cfg);
  Result out;
  for (const int id : kContenders) {
    chip.spawn_program(id, [&c, &out, id, reference](Core& core) {
      sim::Rng rng(c.seed * 1000 + static_cast<u64>(id));
      for (int r = 0; r < c.rounds; ++r) {
        core.compute_cycles(rng.next_range(1, c.max_think_cycles));
        const bool masked = c.masked && (r + id) % 2 == 0;
        if (masked) core.irq_disable();
        if (reference) {
          reference_spin(core, c.warn_every, out);
        } else {
          replayed_spin(core, c.warn_every, out);
        }
        if (masked) core.irq_enable();
        out.acquisitions.emplace_back(id, core.now());
        if (c.desert) return;  // holds the register forever
        core.compute_cycles(rng.next_range(1, c.max_hold_cycles));
        core.tas_release(kReg);
      }
    });
  }
  if (c.ipis) {
    chip.spawn_program(kPinger, [&c](Core& core) {
      sim::Rng rng(c.seed);
      for (int i = 0; i < 300; ++i) {
        core.compute_cycles(rng.next_range(500, 5'000));
        core.raise_ipi(kContenders[rng.next_below(kContenders.size())]);
      }
    });
  }
  try {
    chip.run();
  } catch (const sim::HangError& e) {
    out.hang_report = e.report();
  }
  for (const int id : kContenders) {
    const Core& core = chip.core(id);
    const CoreCounters& k = core.counters();
    out.cores.push_back({chip.core(id).now(), k.busy_ps, k.tas_acquires,
                         k.tas_spins, k.timer_irqs, k.ipi_irqs});
  }
  out.events = chip.scheduler().lane_dispatched(0);
  return out;
}

u64 total(const Result& r, u64 CoreResult::*field) {
  u64 sum = 0;
  for (const CoreResult& c : r.cores) sum += c.*field;
  return sum;
}

// Runs both loops and checks they agree field by field (so a mismatch
// names what drifted), then that the case really contended.
Result expect_identical(const Case& c) {
  const Result ref = run_case(c, /*reference=*/true);
  const Result got = run_case(c, /*reference=*/false);
  EXPECT_EQ(got.acquisitions, ref.acquisitions);
  EXPECT_EQ(got.turns, ref.turns);
  for (std::size_t i = 0; i < ref.cores.size(); ++i) {
    SCOPED_TRACE("core " + std::to_string(kContenders[i]));
    EXPECT_EQ(got.cores[i].clock, ref.cores[i].clock);
    EXPECT_EQ(got.cores[i].busy_ps, ref.cores[i].busy_ps);
    EXPECT_EQ(got.cores[i].tas_acquires, ref.cores[i].tas_acquires);
    EXPECT_EQ(got.cores[i].tas_spins, ref.cores[i].tas_spins);
    EXPECT_EQ(got.cores[i].timer_irqs, ref.cores[i].timer_irqs);
    EXPECT_EQ(got.cores[i].ipi_irqs, ref.cores[i].ipi_irqs);
  }
  EXPECT_EQ(got.events, ref.events);
  EXPECT_EQ(got.hang_report, ref.hang_report);
  EXPECT_TRUE(got == ref);
  EXPECT_GT(total(ref, &CoreResult::tas_spins), 1000u);
  return ref;
}

TEST(TasSpin, MatchesReferenceOneLane) { expect_identical({}); }

TEST(TasSpin, MatchesReferenceWithHoldsPastTheTimerPeriod) {
  // Up to ~2.5 ms per hold at 533 MHz: spinners sleep through ticks.
  const Result r =
      expect_identical({.rounds = 3, .max_hold_cycles = 1'300'000});
  EXPECT_GT(total(r, &CoreResult::timer_irqs), 20u);
}

TEST(TasSpin, MatchesReferenceWithShortWaitsAcrossManyTicks) {
  // Short waits keep the backoff small, so sleeps often end between a
  // tick falling due and the next boundary: the wake must deliver it.
  const Result r = expect_identical(
      {.rounds = 300, .max_think_cycles = 20'000, .max_hold_cycles = 2'000});
  EXPECT_GT(total(r, &CoreResult::timer_irqs), 40u);
}

TEST(TasSpin, MatchesReferenceWithIpisMidBackoff) {
  const Result r = expect_identical({.ipis = true});
  EXPECT_GT(total(r, &CoreResult::ipi_irqs), 100u);
}

TEST(TasSpin, MatchesReferenceWithIrqsMasked) {
  expect_identical({.ipis = true, .masked = true});
}

TEST(TasSpin, MatchesReferenceWithCallerTurns) {
  const Result r =
      expect_identical({.max_hold_cycles = 100'000, .warn_every = 64});
  EXPECT_GT(r.turns.size(), 10u);
}

TEST(TasSpin, WatchdogHangReportMatchesAndNamesTheSite) {
  const Result r =
      expect_identical({.watchdog_ps = 2500 * kPsPerUs, .desert = true});
  EXPECT_NE(r.hang_report.find("watchdog hang report"), std::string::npos);
  EXPECT_NE(r.hang_report.find("at site tas.test"), std::string::npos);
  EXPECT_NE(r.hang_report.find("waiting at tas.test(5,"), std::string::npos);
}

}  // namespace
}  // namespace msvm::scc
