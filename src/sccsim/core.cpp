#include "sccsim/core.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sccsim/chip.hpp"
#include "sim/log.hpp"

namespace msvm::scc {

namespace {

// Stack buffer bound for one cache line (config asserts line_bytes <= 64).
constexpr u32 kMaxLineBytes = 64;

[[noreturn]] void die(const char* msg, u64 addr) {
  std::fprintf(stderr, "msvm::scc::Core fatal: %s (addr=0x%llx)\n", msg,
               static_cast<unsigned long long>(addr));
  std::abort();
}

}  // namespace

Core::Core(Chip& chip, int id)
    : chip_(chip),
      cfg_(chip.config()),
      topo_(&chip.topology()),
      id_(id),
      l1_(cfg_.l1_bytes, cfg_.l1_assoc, cfg_.line_bytes),
      l2_(cfg_.l2_bytes, cfg_.l2_assoc, cfg_.line_bytes),
      wcb_(cfg_.line_bytes),
      pagetable_(cfg_.page_bytes) {
  timer_period_ps_ = cfg_.timer_period_us * kPsPerUs;
  boundary_interval_ps_ =
      cfg_.boundary_check_cycles * cfg_.core_cycle_ps();
  lat_l1_hit_ps_ = chip.latency().l1_hit();
  lat_store_hit_ps_ = chip.latency().store_hit();
  lat_wcb_merge_ps_ = chip.latency().wcb_merge();
  line_off_mask_ = cfg_.line_bytes - 1;
  page_off_mask_ = cfg_.page_bytes - 1;
  page_shift_ = pagetable_.page_shift();
}

void Core::bind_actor(sim::Actor* actor) {
  actor_ = actor;
  next_timer_ = actor->clock() + timer_period_ps_;
  next_boundary_ = actor->clock() + boundary_interval_ps_;
}

// ---------------------------------------------------------------------------
// time & interrupts

void Core::tick(TimePs cost) {
  actor_->advance(cost);
  counters_.busy_ps += cost;
  if (actor_->clock() >= next_boundary_) boundary();
}

void Core::boundary() {
  boundary_work();
  chip_.scheduler().maybe_yield();
}

void Core::boundary_work() {
  if (chip_.faults().enabled()) {
    // Scheduled fail-stop: the core dies between two instructions —
    // mid-protocol, mid-handler, locks held, WCB dirty, whatever the
    // moment happened to be. fail_stop() parks the fiber and never
    // returns. Checked even inside handlers and masked sections: death
    // does not wait for sti.
    if (actor_->clock() >= chip_.kill_time(id_)) {
      chip_.fail_stop(*this);
    }
    // Bounded virtual-time stall: the core simply loses time, as if the
    // hardware thread was starved. Delivered work resumes afterwards.
    const TimePs stall = chip_.faults().stall_ps();
    if (stall > 0) {
      actor_->advance(stall);
      counters_.busy_ps += stall;
      obs::EventBus& bus = chip_.bus();
      if (bus.enabled(obs::kCatChaos)) {
        bus.publish(obs::Event{
            actor_->clock(), static_cast<u64>(obs::InjectKind::kStall),
            stall, 0, obs::EventKind::kFaultInject, id_});
      }
    }
  }
  next_boundary_ = actor_->clock() + boundary_interval_ps_;
  if (in_irq_) {
    // Handlers run with interrupts masked; re-delivery happens when the
    // outer deliver_interrupts() loop finishes.
  } else if (irq_mask_depth_ > 0) {
    // Masked (an access commit or an explicit cli section): remember
    // that a delivery opportunity passed so the unmask point can make up
    // for it even if every subsequent tick is masked too.
    pending_irq_check_ = true;
  } else {
    deliver_interrupts();
  }
}

void Core::deliver_interrupts() {
  // Interrupt handlers themselves perform modelled memory accesses which
  // tick(); the in_irq_ flag keeps delivery non-reentrant, the same way a
  // kernel runs handlers with interrupts masked.
  in_irq_ = true;
  if (chip_.gic().has_pending(id_)) {
    const IpiSourceSet sources = chip_.gic().take_pending(id_);
    ++counters_.ipi_irqs;
    tick(chip_.latency().irq_entry());
    if (ipi_handler_) ipi_handler_(*this, sources);
    tick(chip_.latency().irq_exit());
  }
  if (actor_->clock() >= next_timer_) {
    // Catch up without replaying every missed period (a long halt should
    // deliver one tick, not a burst).
    while (next_timer_ <= actor_->clock()) next_timer_ += timer_period_ps_;
    ++counters_.timer_irqs;
    tick(chip_.latency().irq_entry());
    if (timer_handler_) timer_handler_(*this);
    tick(chip_.latency().irq_exit());
  }
  in_irq_ = false;
}

void Core::compute_cycles(u64 core_cycles) {
  // Slice long computations at the boundary-check granularity so
  // interrupts are delivered *during* the work, not after it — a single
  // bulk tick would make a 1 ms computation an uninterruptible block.
  while (core_cycles > 0) {
    const u64 step = std::min<u64>(core_cycles, cfg_.boundary_check_cycles);
    tick(step * cfg_.core_cycle_ps());
    core_cycles -= step;
  }
}

void Core::yield() { chip_.scheduler().maybe_yield(); }

void Core::relax(TimePs gap) {
  if (in_irq_ || irq_mask_depth_ > 0) {
    // Cannot sleep inside a handler or a masked section; fall back to a
    // plain cooperative pause.
    tick(gap);
    chip_.scheduler().maybe_yield();
    return;
  }
  const TimePs t0 = actor_->clock();
  chip_.scheduler().block_until(t0 + gap);
  counters_.busy_ps += actor_->clock() - t0;  // account like spin time
  deliver_interrupts();
}

void Core::halt() {
  assert(irq_mask_depth_ == 0 && "halt with interrupts masked");
  // Sleep until the next timer tick unless an IPI arrives first. The GIC
  // wake goes through Chip, which calls scheduler().wake on our actor.
  if (!chip_.gic().has_pending(id_)) {
    TimePs deadline = next_timer_;
    if (chip_.faults().enabled() && deadline > actor_->clock()) {
      // Spurious wakeup: resume early for no reason. Callers of halt()
      // already re-check their wake condition in a loop, so this only
      // probes that the loops really are condition-driven.
      deadline -= chip_.faults().spurious_wake_ps(deadline - actor_->clock());
    }
    chip_.scheduler().block_until(deadline);
  }
  if (!in_irq_) deliver_interrupts();
}

// ---------------------------------------------------------------------------
// translation

MemPolicy Core::policy_of(const Pte& pte) {
  if (pte.mpbt) return MemPolicy::kMpbt;
  if (pte.l2_enable) return MemPolicy::kCachedWT;
  // Present, non-MPBT, no-L2 pages behave as L1+L2 write-through on the
  // real part; private memory uses this default.
  return MemPolicy::kCachedWT;
}

// Returns WITH interrupts masked: the caller commits the access and then
// unmasks. This makes the translation+commit pair atomic against served
// ownership transfers (which may unmap the page) — the same guarantee a
// real instruction has.
Core::Translation Core::translate(u64 vaddr, bool is_write) {
  irq_disable();
  // Host-side translation cache, invalidated on page-table epoch change.
  if (tlb_epoch_ != pagetable_.epoch()) {
    for (auto& e : tlb_) e.vpage = ~u64{0};
    tlb_epoch_ = pagetable_.epoch();
  }
  const u64 vpage = pagetable_.vpage_of(vaddr);
  TlbEntry& slot = tlb_[vpage % kTlbEntries];
  if (slot.vpage == vpage && slot.pte.present &&
      (!is_write || slot.pte.writable)) {
    ++counters_.tlb_hits;
    return {slot.pte.frame_paddr + pagetable_.page_offset(vaddr),
            policy_of(slot.pte)};
  }
  // TLB miss: the hardware walks the page table (the walk itself is
  // charged; the entries are private-memory resident).
  ++counters_.tlb_misses;
  tick(cfg_.tlb_miss_cycles * cfg_.core_cycle_ps());

  int guard = 0;
  for (;;) {
    const Pte* pte = pagetable_.find(vaddr);
    if (pte != nullptr && pte->present && (!is_write || pte->writable)) {
      // Re-sync the TLB slot (the epoch may have moved inside a handler).
      if (tlb_epoch_ != pagetable_.epoch()) {
        for (auto& e : tlb_) e.vpage = ~u64{0};
        tlb_epoch_ = pagetable_.epoch();
      }
      TlbEntry& fresh = tlb_[vpage % kTlbEntries];
      fresh.vpage = vpage;
      fresh.pte = *pte;
      return {pte->frame_paddr + pagetable_.page_offset(vaddr),
              policy_of(*pte)};
    }
    if (!fault_handler_) die("page fault with no handler installed", vaddr);
    if (++guard > 1024) die("page fault not resolved by handler", vaddr);
    ++counters_.page_faults;
    // Exception entry cost: trap + kernel prologue. The handler itself
    // runs with interrupts live (it may wait on the mailbox system and
    // must keep serving incoming requests).
    irq_enable();
    tick(chip_.latency().irq_entry());
    fault_handler_(*this, vaddr, is_write);
    irq_disable();
  }
}

// ---------------------------------------------------------------------------
// virtual plane

void Core::vread(u64 vaddr, void* out, u32 size) {
  ++counters_.loads;
  u8* dst = static_cast<u8*>(out);
  while (size > 0) {
    const u32 line_off = static_cast<u32>(vaddr & (cfg_.line_bytes - 1));
    const u32 seg = std::min(size, cfg_.line_bytes - line_off);
    // translate() returns with interrupts masked; the commit below is
    // therefore atomic against interrupt handlers, the way a real load
    // instruction is. Without this, an ownership transfer served
    // mid-commit could unmap the page between translation and the data
    // movement.
    const Translation tr = translate(vaddr, /*is_write=*/false);
    read_path(tr.paddr, dst, seg, tr.policy);
    irq_enable();
    vaddr += seg;
    dst += seg;
    size -= seg;
  }
}

void Core::vwrite(u64 vaddr, const void* src, u32 size) {
  ++counters_.stores;
  const u8* s = static_cast<const u8*>(src);
  while (size > 0) {
    const u32 line_off = static_cast<u32>(vaddr & (cfg_.line_bytes - 1));
    const u32 seg = std::min(size, cfg_.line_bytes - line_off);
    const Translation tr = translate(vaddr, /*is_write=*/true);
    write_path(tr.paddr, s, seg, tr.policy);
    irq_enable();
    vaddr += seg;
    s += seg;
    size -= seg;
  }
}

void Core::irq_enable() {
  assert(irq_mask_depth_ > 0);
  --irq_mask_depth_;
  deliver_deferred();
}

void Core::deliver_deferred() {
  if (pending_irq_check_ && irq_mask_depth_ == 0 && !in_irq_) {
    pending_irq_check_ = false;
    deliver_interrupts();
  }
}

// ---------------------------------------------------------------------------
// physical plane

void Core::pread(u64 paddr, void* out, u32 size, MemPolicy pol) {
  u8* dst = static_cast<u8*>(out);
  while (size > 0) {
    const u32 line_off = static_cast<u32>(paddr & (cfg_.line_bytes - 1));
    const u32 seg = std::min(size, cfg_.line_bytes - line_off);
    read_path(paddr, dst, seg, pol);
    paddr += seg;
    dst += seg;
    size -= seg;
  }
}

void Core::pwrite(u64 paddr, const void* src, u32 size, MemPolicy pol) {
  const u8* s = static_cast<const u8*>(src);
  while (size > 0) {
    const u32 line_off = static_cast<u32>(paddr & (cfg_.line_bytes - 1));
    const u32 seg = std::min(size, cfg_.line_bytes - line_off);
    write_path(paddr, s, seg, pol);
    paddr += seg;
    s += seg;
    size -= seg;
  }
}

// ---------------------------------------------------------------------------
// cache pipeline (per-segment: never straddles a line)

void Core::read_path(u64 paddr, void* out, u32 size, MemPolicy pol) {
  switch (pol) {
    case MemPolicy::kUncached: {
      ++counters_.uncached_ops;
      tick(device_read(paddr, out, size));
      return;
    }
    case MemPolicy::kMpbt: {
      // Loads must observe this core's own buffered stores: forward when
      // fully dirty, otherwise drain the buffer first.
      if (wcb_.overlaps(paddr, size)) {
        if (wcb_.forward(paddr, out, size)) {
          tick(chip_.latency().l1_hit());
          return;
        }
        flush_wcb();
      }
      if (l1_.read(paddr, out, size)) {
        ++counters_.l1_hits;
        tick(chip_.latency().l1_hit());
        return;
      }
      ++counters_.l1_misses;
      // Read-allocate the full line from the device; MPBT bypasses L2.
      u8 line[kMaxLineBytes];
      const u64 la = l1_.line_addr(paddr);
      tick(device_read(la, line, cfg_.line_bytes));
      l1_.fill(la, line, /*mpbt=*/true);
      std::memcpy(out, line + (paddr - la), size);
      return;
    }
    case MemPolicy::kCachedWT: {
      if (l1_.read(paddr, out, size)) {
        ++counters_.l1_hits;
        tick(chip_.latency().l1_hit());
        return;
      }
      ++counters_.l1_misses;
      u8 line[kMaxLineBytes];
      const u64 la = l1_.line_addr(paddr);
      if (l2_.read(la, line, cfg_.line_bytes)) {
        ++counters_.l2_hits;
        tick(chip_.latency().l2_hit());
      } else {
        ++counters_.l2_misses;
        tick(device_read(la, line, cfg_.line_bytes));
        l2_.fill(la, line, /*mpbt=*/false);
      }
      l1_.fill(la, line, /*mpbt=*/false);
      std::memcpy(out, line + (paddr - la), size);
      return;
    }
  }
}

void Core::write_path(u64 paddr, const void* src, u32 size, MemPolicy pol) {
  switch (pol) {
    case MemPolicy::kUncached: {
      ++counters_.uncached_ops;
      tick(device_write(paddr, src, size));
      return;
    }
    case MemPolicy::kMpbt: {
      // Write-through into a present L1 line keeps our own reads coherent
      // with the combine buffer (no allocate on miss).
      if (l1_.write(paddr, src, size)) {
        tick(chip_.latency().store_hit());
      }
      auto flush = wcb_.store(paddr, src, size);
      if (flush.has_value()) {
        ++counters_.wcb_flushes;
        tick(device_write_masked(flush->line_addr, flush->data,
                                 flush->size, flush->dirty_mask));
        flush = wcb_.store(paddr, src, size);
        assert(!flush.has_value());
      }
      ++counters_.wcb_merges;
      tick(chip_.latency().wcb_merge());
      return;
    }
    case MemPolicy::kCachedWT: {
      // Plain write-through: update any present copies, pay the full
      // downstream write (this is the "like uncachable memory" store path
      // of Section 7.2.2 — no combine buffer without the MPBT type).
      if (l1_.write(paddr, src, size)) {
        tick(chip_.latency().store_hit());
      }
      l2_.write(paddr, src, size);
      tick(device_write(paddr, src, size));
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// devices

TimePs Core::device_latency(u64 paddr, bool is_write) {
  const PhysTarget t = chip_.map().decode(paddr);
  const LatencyModel& lat = chip_.latency();
  switch (t.kind) {
    case MemKind::kSharedDram:
    case MemKind::kPrivateDram: {
      const int hops = topo_->hops_core_to_mc(id_, t.owner);
      const TimePs queue = chip_.mc_queue_delay(t.owner, actor_->clock());
      if (is_write) {
        ++counters_.dram_writes;
        return lat.dram_write(hops) + queue;
      }
      ++counters_.dram_reads;
      return lat.dram_access(hops) + queue;
    }
    case MemKind::kMpb: {
      const int hops = topo_->hops_between_cores(id_, t.owner);
      if (is_write) {
        ++counters_.mpb_writes;
        return lat.mpb_write(hops);
      }
      ++counters_.mpb_reads;
      return lat.mpb_access(hops);
    }
    case MemKind::kTas:
    case MemKind::kInvalid:
      break;
  }
  die("access to unmapped physical address", paddr);
}

void Core::publish_mem_event(u64 paddr, u32 size, bool is_write) {
  const PhysTarget t = chip_.map().decode(paddr);
  chip_.bus().publish(obs::Event{
      actor_->clock(), paddr, size,
      (static_cast<u64>(t.kind) << 8) | static_cast<u64>(t.owner & 0xff),
      is_write ? obs::EventKind::kMemWrite : obs::EventKind::kMemRead,
      id_});
}

TimePs Core::device_read(u64 paddr, void* out, u32 size) {
  const TimePs cost = device_latency(paddr, /*is_write=*/false);
  chip_.memory().read(paddr, out, size);
  // kCatMem is the firehose category (--trace-mem): off even under a
  // plain --trace, so the decode+publish never runs by default.
  if (chip_.bus().enabled(obs::kCatMem)) {
    publish_mem_event(paddr, size, /*is_write=*/false);
  }
  return cost;
}

TimePs Core::device_write(u64 paddr, const void* src, u32 size) {
  const TimePs cost = device_latency(paddr, /*is_write=*/true);
  chip_.memory().write(paddr, src, size);
  if (chip_.bus().enabled(obs::kCatMem)) {
    publish_mem_event(paddr, size, /*is_write=*/true);
  }
  return cost;
}

TimePs Core::device_write_masked(u64 paddr, const void* src, u32 size,
                                 u64 mask) {
  const TimePs cost = device_latency(paddr, /*is_write=*/true);
  chip_.memory().write_masked(paddr, src, size, mask);
  return cost;
}

// ---------------------------------------------------------------------------
// special ops

void Core::cl1invmb() {
  ++counters_.cl1invmb_count;
  l1_.invalidate_mpbt();
  tick(chip_.latency().cl1invmb());
}

void Core::flush_wcb() {
  auto flush = wcb_.flush();
  if (!flush.has_value()) return;
  ++counters_.wcb_flushes;
  tick(device_write_masked(flush->line_addr, flush->data, flush->size,
                           flush->dirty_mask));
  obs::EventBus& bus = chip_.bus();
  if (bus.enabled(obs::kCatSync)) {
    bus.publish(obs::Event{actor_->clock(), flush->line_addr, flush->size,
                           0, obs::EventKind::kWcbFlush, id_});
  }
}

TimePs Core::tas_latency(int reg) const {
  return chip_.latency().tas_access(
      topo_->hops(topo_->coord_of_core(id_), topo_->coord_of_core(reg)));
}

bool Core::tas_try_acquire(int reg) {
  tick(tas_latency(reg));
  ++counters_.tas_acquires;
  const bool got = chip_.memory().tas_read_acquire(reg);
  if (!got) ++counters_.tas_spins;
  // Host-side holder note (only in kill-enabled runs): lets recovery
  // identify and break locks orphaned by a dead holder.
  if (got && chip_.tracking_deaths()) chip_.note_tas_owner(reg, id_);
  return got;
}

void Core::tas_release(int reg) {
  tick(tas_latency(reg));
  if (chip_.tracking_deaths()) chip_.clear_tas_owner(reg);
  chip_.memory().tas_write_release(reg);
}

// ---------------------------------------------------------------------------
// TAS lock wait and its poll replay

TasSpin::TasSpin(Core& core, int reg, const char* site, u64 site_arg,
                 u64 warn_every)
    : scope_(core.actor(), site, site_arg, static_cast<u64>(core.id())),
      reg_(reg),
      site_(site),
      warn_every_(warn_every),
      lat_ps_(core.tas_latency(reg)),
      t0_(core.now()) {}

template <typename Suspend>
void Core::park(TasSpin& spin, Suspend&& suspend) {
  struct Unpark {
    Core& core;
    ~Unpark() {  // also on the CancelledError unwind
      core.actor_->set_poll_hook(nullptr);
      core.parked_spin_ = nullptr;
    }
  } unpark{*this};
  parked_spin_ = &spin;
  actor_->set_poll_hook(this);
  suspend();
}

bool Core::tas_spin(TasSpin& s) {
  using Phase = TasSpin::Phase;
  sim::Scheduler& sched = chip_.scheduler();
  // Each step reads the phase afresh: while the fiber is parked, the
  // replay may have moved the wait on by any number of polls.
  for (;;) {
    switch (s.phase_) {
      case Phase::kPoll:
        // tick(), with boundary()'s yield as a parking point.
        actor_->advance(s.lat_ps_);
        counters_.busy_ps += s.lat_ps_;
        s.phase_ = Phase::kRead;
        if (actor_->clock() >= next_boundary_) {
          boundary_work();
          park(s, [&] { sched.maybe_yield(); });
        }
        break;
      case Phase::kRead:
        ++counters_.tas_acquires;
        if (chip_.memory().tas_read_acquire(s.reg_)) {
          if (chip_.tracking_deaths()) chip_.note_tas_owner(s.reg_, id_);
          return true;
        }
        ++counters_.tas_spins;
        ++s.spins_;
        s.phase_ = Phase::kBackoff;
        if (chip_.dead_count() > 0 ||
            (s.warn_every_ != 0 && s.spins_ % s.warn_every_ == 0)) {
          return false;  // the caller's turn
        }
        break;
      case Phase::kBackoff: {
        if (chip_.watchdog().check(now(), s.t0_, s.site_, id_)) {
          sched.block();  // parked; teardown unwinds via cancel
        }
        const TimePs gap = s.backoff_cycles_ * cfg_.core_cycle_ps();
        if (in_irq_ || irq_mask_depth_ > 0) {
          relax(gap);  // cannot sleep here: a plain pause
          s.backoff_cycles_ =
              std::min(s.backoff_cycles_ * 2, TasSpin::kCapCycles);
          s.phase_ = Phase::kPoll;
          break;
        }
        // relax(gap), split at its sleep so the replay can take over.
        s.sleep_t0_ = actor_->clock();
        s.phase_ = Phase::kWake;
        park(s, [&] { sched.block_until(s.sleep_t0_ + gap); });
        break;
      }
      case Phase::kWake:
        counters_.busy_ps += actor_->clock() - s.sleep_t0_;
        deliver_interrupts();
        s.backoff_cycles_ =
            std::min(s.backoff_cycles_ * 2, TasSpin::kCapCycles);
        s.phase_ = Phase::kPoll;
        break;
    }
  }
}

bool Core::replay(const Pop& pop, Requeue& out) {
  using Phase = TasSpin::Phase;
  TasSpin& s = *parked_spin_;
  if (chip_.faults().enabled() || chip_.dead_count() > 0 || in_irq_ ||
      irq_mask_depth_ > 0 || chip_.gic().has_pending(id_)) {
    return false;
  }
  TimePs t = pop.at;  // the clock once the pop is taken
  TimePs busy = 0;
  u64 backoff = s.backoff_cycles_;
  bool crossed = false;
  bool read = true;
  if (s.phase_ == Phase::kWake) {
    // The sleep must have timed out (an IPI wake has work to deliver),
    // and deliver_interrupts() must find no timer due.
    if (!pop.timed_out || t >= next_timer_) return false;
    busy = t - s.sleep_t0_ + s.lat_ps_;
    backoff = std::min(backoff * 2, TasSpin::kCapCycles);
    t += s.lat_ps_;  // the poll's access tick
    crossed = t >= next_boundary_;
    if (crossed) {
      if (t >= next_timer_) return false;
      // boundary()'s maybe_yield against the rest of the heap: a yield
      // re-queues the core at t, and the read is the next pop.
      read = pop.runner_up >= t;
    }
  }
  const u64 spins = s.spins_ + 1;
  if (read && (chip_.memory().tas_peek(s.reg_) == 0 ||
               (s.warn_every_ != 0 && spins % s.warn_every_ == 0) ||
               chip_.watchdog().due(t, s.t0_))) {
    return false;  // the poll wins, or the caller or watchdog acts
  }
  actor_->advance_to(t);
  counters_.busy_ps += busy;
  if (crossed) next_boundary_ = t + boundary_interval_ps_;
  s.backoff_cycles_ = backoff;
  if (!read) {
    s.phase_ = Phase::kRead;
    out = {t, /*blocked=*/false};
    return true;
  }
  ++counters_.tas_acquires;
  ++counters_.tas_spins;
  s.spins_ = spins;
  s.sleep_t0_ = t;
  s.phase_ = Phase::kWake;
  out = {t + backoff * cfg_.core_cycle_ps(), /*blocked=*/true};
  return true;
}

void Core::raise_ipi(int target) {
  const int hops = topo_->hops_core_to_system_if(id_);
  tick(chip_.latency().gic_access(hops));
  ++counters_.ipis_sent;
  obs::EventBus& bus = chip_.bus();
  if (bus.enabled(obs::kCatSync)) {
    bus.publish(obs::Event{actor_->clock(), static_cast<u64>(target), 0, 0,
                           obs::EventKind::kIpiRaise, id_});
  }
  sim::FaultInjector& faults = chip_.faults();
  if (faults.enabled()) {
    if (faults.drop_ipi()) {  // lost on the wire: no pending bit
      if (bus.enabled(obs::kCatChaos)) {
        bus.publish(obs::Event{
            actor_->clock(), static_cast<u64>(obs::InjectKind::kIpiDrop), 0,
            0, obs::EventKind::kFaultInject, id_});
      }
      return;
    }
    const TimePs extra = faults.ipi_extra_delay_ps();
    if (extra > 0) {
      if (bus.enabled(obs::kCatChaos)) {
        bus.publish(obs::Event{
            actor_->clock(), static_cast<u64>(obs::InjectKind::kIpiDelay),
            extra, 0, obs::EventKind::kFaultInject, id_});
      }
      chip_.gic().raise_delayed(target, id_, actor_->clock(), extra);
      return;
    }
  }
  chip_.gic().raise(target, id_, actor_->clock());
}

}  // namespace msvm::scc
