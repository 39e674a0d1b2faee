// One simulated SCC core: the P54C-style memory pipeline (L1, L2, write-
// combine buffer, page-table translation) plus interrupt delivery and the
// binding to its scheduler actor.
//
// Two access planes are exposed:
//   - vload/vstore/vread/vwrite: *virtual* addresses, translated through
//     this core's private page table; a missing/forbidden mapping vectors
//     into the registered fault handler (the SVM layer) exactly like a
//     hardware page fault, at any call depth.
//   - pread/pwrite: *physical* addresses with an explicit memory policy;
//     this is the plane kernel code (mailboxes, scratchpad, owner vector)
//     uses, mirroring MetalSVM's kernel running on identity mappings.
//
// All latency accounting funnels through tick(), which also delivers
// timer/IPI interrupts at access boundaries and bounds virtual-time skew
// between cores via the scheduler's maybe_yield.
#pragma once

#include <array>
#include <cstring>
#include <functional>
#include <string>

#include "sccsim/cache.hpp"
#include "sccsim/config.hpp"
#include "sccsim/counters.hpp"
#include "sccsim/gic.hpp"
#include "sccsim/pagetable.hpp"
#include "sccsim/wcb.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace msvm::scc {

class Chip;
class TasSpin;

/// How an access moves through the cache hierarchy.
enum class MemPolicy : u8 {
  kUncached,   // straight to the device, no caching
  kMpbt,       // MPBT type: L1 write-through + WCB, bypasses L2
  kCachedWT,   // L1 + L2, write-through, read-allocate only
};

class Core : private sim::PollHook {
 public:
  Core(Chip& chip, int id);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  int id() const { return id_; }
  Chip& chip() { return chip_; }

  // ---- virtual-address (application) plane ----

  template <typename T>
  T vload(u64 vaddr) {
    T out;
    if (!vread_fast(vaddr, &out)) vread(vaddr, &out, sizeof(T));
    return out;
  }

  template <typename T>
  void vstore(u64 vaddr, T value) {
    if (!vwrite_fast(vaddr, &value)) vwrite(vaddr, &value, sizeof(T));
  }

  void vread(u64 vaddr, void* out, u32 size);
  void vwrite(u64 vaddr, const void* src, u32 size);

  // ---- physical (kernel) plane ----

  template <typename T>
  T pload(u64 paddr, MemPolicy pol) {
    T out;
    pread(paddr, &out, sizeof(T), pol);
    return out;
  }

  template <typename T>
  void pstore(u64 paddr, T value, MemPolicy pol) {
    pwrite(paddr, &value, sizeof(T), pol);
  }

  void pread(u64 paddr, void* out, u32 size, MemPolicy pol);
  void pwrite(u64 paddr, const void* src, u32 size, MemPolicy pol);

  // ---- special instructions / registers ----

  /// CL1INVMB: invalidates every MPBT-tagged L1 line.
  void cl1invmb();

  /// Drains the write-combine buffer to memory.
  void flush_wcb();

  /// One attempt on the Test-and-Set register `reg` (a read): true when
  /// the lock was free and is now held by this core.
  bool tas_try_acquire(int reg);

  /// The one TAS lock wait: poll the register, back off (sleeping, so
  /// the holder can run), double the backoff up to a cap, repeat. Returns
  /// true once the register is held. Returns false after a failed poll
  /// when the caller has work to do: every `warn_every`th failure, and
  /// after each failure while some core is dead (to break a lock its
  /// dead holder orphaned). Calling again resumes the same wait.
  ///
  /// While the fiber sleeps between polls, the scheduler replays failed
  /// polls in place (PollHook) instead of resuming it; see replay().
  bool tas_spin(TasSpin& spin);

  /// Virtual time of one access to TAS register `reg` from this core.
  TimePs tas_latency(int reg) const;

  /// Releases Test-and-Set register `reg` (a write).
  void tas_release(int reg);

  /// Raises an IPI on `target` through the Global Interrupt Controller.
  void raise_ipi(int target);

  // ---- time ----

  TimePs now() const { return actor_->clock(); }

  /// Charges pure compute time (ALU/FPU work between memory accesses).
  void compute_cycles(u64 core_cycles);

  /// Cooperatively yields to earlier cores (cheap when already earliest).
  void yield();

  /// Halts until the next interrupt (IPI or timer) is delivered, then
  /// returns. Models the kernel idle "hlt".
  void halt();

  /// Sleeps for `gap` of virtual time (or until an IPI arrives, whichever
  /// is first), then delivers pending interrupts. Used by spin loops as a
  /// scheduler-friendly backoff: semantically a bounded pause, but it
  /// releases the host scheduler instead of churning through yields.
  void relax(TimePs gap);

  // ---- kernel integration ----

  using FaultHandler = std::function<void(Core&, u64 vaddr, bool is_write)>;
  using TimerHandler = std::function<void(Core&)>;
  using IpiHandler = std::function<void(Core&, const IpiSourceSet& sources)>;

  void set_fault_handler(FaultHandler h) { fault_handler_ = std::move(h); }
  void set_timer_handler(TimerHandler h) { timer_handler_ = std::move(h); }
  void set_ipi_handler(IpiHandler h) { ipi_handler_ = std::move(h); }

  bool in_interrupt() const { return in_irq_; }

  /// Masks interrupt delivery (cli/sti, nestable). A delivery opportunity
  /// that passes while masked fires at the final irq_enable(), like a
  /// pending interrupt after sti. Used to make memory-access commits and
  /// mailbox slot claims atomic against handlers, the way instructions
  /// are on real hardware.
  void irq_disable() { ++irq_mask_depth_; }
  void irq_enable();
  bool irqs_masked() const { return irq_mask_depth_ > 0; }

  PageTable& pagetable() { return pagetable_; }
  const PageTable& pagetable() const { return pagetable_; }
  CoreCounters& counters() { return counters_; }
  const CoreCounters& counters() const { return counters_; }
  Cache& l1() { return l1_; }
  Cache& l2() { return l2_; }
  WriteCombineBuffer& wcb() { return wcb_; }

  /// Scheduler binding (installed by Chip::spawn_program).
  void bind_actor(sim::Actor* actor);
  sim::Actor* actor() { return actor_; }

  /// Charges `cost` picoseconds and performs boundary work (interrupt
  /// delivery, cooperative yield) when due. Public so that higher layers
  /// (mailbox slot checks, kernel entry costs) can charge modelled
  /// software overheads.
  void tick(TimePs cost);

 private:
  // ---- inlined cache-hit fast path ----------------------------------
  //
  // An L1 hit whose cost fits inside the current boundary interval is a
  // pure header-only operation: TLB-slot check, tag check, LRU stamp,
  // byte copy, clock advance. It never touches the Mesh/latency
  // machinery, never masks interrupts (no boundary can fall inside the
  // access, so masking would be a no-op), and publishes no bus events
  // (only device transactions do). Every pre-condition is checked before
  // any state is mutated, so a bail-out to the slow path is free — and
  // the slow path then performs the access bit- and cycle-identically.
  //
  // Invariant (pinned by tests/sccsim/core_fastpath_test.cpp): for any
  // access, fast path taken or not, counters, clocks, cache/LRU state
  // and data movement are identical to the slow path's.

  template <typename T>
  [[gnu::always_inline]] inline bool vread_fast(u64 vaddr, T* out) {
    constexpr u32 size = sizeof(T);
    const u32 off = static_cast<u32>(vaddr & line_off_mask_);
    if (off + size > line_off_mask_ + 1) return false;  // straddles a line
    if (tlb_epoch_ != pagetable_.epoch()) return false;
    const u64 vpage = vaddr >> page_shift_;
    const TlbEntry& slot = tlb_[vpage % kTlbEntries];
    if (slot.vpage != vpage || !slot.pte.present) return false;
    const u64 paddr = slot.pte.frame_paddr + (vaddr & page_off_mask_);
    // Buffered stores must be observed; any WCB overlap is slow-path work
    // (forward or drain). Only MPBT loads consult the WCB.
    if (slot.pte.mpbt && wcb_.overlaps(paddr, size)) return false;
    if (actor_->clock() + lat_l1_hit_ps_ >= next_boundary_) return false;
    const u8* bytes = l1_.hit_bytes(paddr);
    if (bytes == nullptr) return false;
    // Commit: replicate the slow path's counters and timing exactly.
    std::memcpy(out, bytes + off, size);
    ++counters_.loads;
    ++counters_.tlb_hits;
    ++counters_.l1_hits;
    counters_.busy_ps += lat_l1_hit_ps_;
    actor_->advance(lat_l1_hit_ps_);
    return true;
  }

  template <typename T>
  [[gnu::always_inline]] inline bool vwrite_fast(u64 vaddr, const T* src) {
    constexpr u32 size = sizeof(T);
    const u32 off = static_cast<u32>(vaddr & line_off_mask_);
    if (off + size > line_off_mask_ + 1) return false;  // straddles a line
    if (tlb_epoch_ != pagetable_.epoch()) return false;
    const u64 vpage = vaddr >> page_shift_;
    const TlbEntry& slot = tlb_[vpage % kTlbEntries];
    if (slot.vpage != vpage || !slot.pte.present || !slot.pte.writable) {
      return false;
    }
    // Only the MPBT write path stays on-core (WCB merge); write-through
    // CachedWT stores always pay a device transaction — slow path.
    if (!slot.pte.mpbt) return false;
    const u64 paddr = slot.pte.frame_paddr + (vaddr & page_off_mask_);
    // Mergeable only when the WCB is empty or already holds this line;
    // anything else must flush downstream first — slow path.
    if (wcb_.valid() && wcb_.line_addr() != (paddr & ~line_off_mask_)) {
      return false;
    }
    // Bound the cost by the worst case (store-hit + merge) so the check
    // is independent of whether L1 holds the line; a near-boundary store
    // that would still have fit simply takes the slow path.
    if (actor_->clock() + lat_store_hit_ps_ + lat_wcb_merge_ps_ >=
        next_boundary_) {
      return false;
    }
    TimePs cost = lat_wcb_merge_ps_;
    if (u8* bytes = l1_.hit_bytes(paddr)) {  // write-through into L1
      std::memcpy(bytes + off, src, size);
      cost += lat_store_hit_ps_;
    }
    wcb_.merge(paddr & ~line_off_mask_, off, src, size);
    ++counters_.stores;
    ++counters_.tlb_hits;
    ++counters_.wcb_merges;
    counters_.busy_ps += cost;
    actor_->advance(cost);
    return true;
  }

  // Translation outcome for one access segment.
  struct Translation {
    u64 paddr;
    MemPolicy policy;
  };

  Translation translate(u64 vaddr, bool is_write);
  static MemPolicy policy_of(const Pte& pte);

  void read_path(u64 paddr, void* out, u32 size, MemPolicy pol);
  void write_path(u64 paddr, const void* src, u32 size, MemPolicy pol);

  /// One device transaction (<= one line). Returns its latency.
  TimePs device_read(u64 paddr, void* out, u32 size);
  TimePs device_write(u64 paddr, const void* src, u32 size);
  TimePs device_write_masked(u64 paddr, const void* src, u32 size,
                             u64 mask);
  TimePs device_latency(u64 paddr, bool is_write);

  /// Emits a kMemRead/kMemWrite bus event for one device transaction
  /// (--trace-mem firehose; callers gate on obs::kCatMem first).
  void publish_mem_event(u64 paddr, u32 size, bool is_write);

  void deliver_interrupts();
  void deliver_deferred();
  void boundary();
  void boundary_work();  // boundary() minus its closing maybe_yield

  // ---- TAS poll replay ----------------------------------------------
  //
  // Like the L1-hit fast path above: every precondition is checked
  // before anything is mutated, so declining a pop is free, and a
  // replayed pop leaves clocks, counters, next_boundary_ and the event
  // queue exactly as the resumed fiber would have.

  /// Runs `suspend` with this core offered as the actor's poll hook for
  /// `spin`; the replay may advance `spin` while the fiber is parked.
  template <typename Suspend>
  void park(TasSpin& spin, Suspend&& suspend);

  /// sim::PollHook: replays one pop of a parked tas_spin() — the wake
  /// from a backoff sleep and the poll's access tick, then (unless the
  /// tick yields, in which case a second pop reads) the failed read and
  /// the next backoff sleep. Declines whenever anything else could
  /// happen: IRQs masked, an IPI pending, a timer due, faults or dead
  /// cores, a watchdog trip or a caller turn due, an IPI wake, or a free
  /// register.
  bool replay(const Pop& pop, Requeue& out) override;

  Chip& chip_;
  const ChipConfig& cfg_;
  const Topology* topo_;  // cached for the device-latency hot path
  int id_;
  sim::Actor* actor_ = nullptr;
  TasSpin* parked_spin_ = nullptr;  // the tas_spin() parked in park()

  Cache l1_;
  Cache l2_;
  WriteCombineBuffer wcb_;
  PageTable pagetable_;
  CoreCounters counters_;

  FaultHandler fault_handler_;
  TimerHandler timer_handler_;
  IpiHandler ipi_handler_;

  bool in_irq_ = false;
  bool pending_irq_check_ = false;
  int irq_mask_depth_ = 0;
  TimePs next_timer_ = 0;
  TimePs next_boundary_ = 0;
  TimePs timer_period_ps_ = 0;
  TimePs boundary_interval_ps_ = 0;

  // Constants cached at construction for the inlined fast path (the
  // latency model composes them from ChipConfig once; they never change
  // during a run).
  TimePs lat_l1_hit_ps_ = 0;
  TimePs lat_store_hit_ps_ = 0;
  TimePs lat_wcb_merge_ps_ = 0;
  u64 line_off_mask_ = 0;  // line_bytes - 1
  u64 page_off_mask_ = 0;  // page_bytes - 1
  u32 page_shift_ = 0;

  // The data TLB: 64 entries, direct-mapped on the page number (the
  // P54C's 64-entry data TLB is 4-way set-associative). A hit costs
  // nothing extra, a miss charges ChipConfig::tlb_miss_cycles. Flushed
  // whenever the page table's epoch moves.
  struct TlbEntry {
    u64 vpage = ~u64{0};
    Pte pte;
  };
  static constexpr std::size_t kTlbEntries = 64;
  std::array<TlbEntry, kTlbEntries> tlb_;
  u64 tlb_epoch_ = ~u64{0};
};

/// One TAS lock wait (Core::tas_spin). Holds the loop's state outside the
/// loop's stack frame, so the scheduler's poll replay can advance it
/// while the fiber stays parked, and annotates the wait site for hang
/// reports for as long as it lives.
class TasSpin {
 public:
  /// Backoff between polls in core cycles: 16, doubling to 4096.
  static constexpr u64 kStartCycles = 16;
  static constexpr u64 kCapCycles = 4096;

  /// `site`/`site_arg` name the wait (e.g. "svm.transfer_lock", page);
  /// `warn_every` != 0 hands the caller every warn_every-th failure.
  TasSpin(Core& core, int reg, const char* site, u64 site_arg,
          u64 warn_every = 0);

  /// Failed polls so far.
  u64 spins() const { return spins_; }

 private:
  friend class Core;

  // Where the wait stands: the next step tas_spin (or the replay) takes.
  enum class Phase : u8 {
    kPoll,     // charge the poll's access tick
    kRead,     // read the register
    kBackoff,  // watchdog check, then sleep
    kWake,     // back from the sleep: account it, take interrupts
  };

  sim::BlockScope scope_;
  int reg_;
  const char* site_;
  u64 warn_every_;
  TimePs lat_ps_;        // one poll of reg_ from this core
  TimePs t0_;            // wait start (watchdog)
  TimePs sleep_t0_ = 0;  // current backoff sleep's start
  u64 spins_ = 0;
  u64 backoff_cycles_ = kStartCycles;
  Phase phase_ = Phase::kPoll;
};

}  // namespace msvm::scc
