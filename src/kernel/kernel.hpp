// The per-core MetalSVM kernel substrate.
//
// MetalSVM runs a small bare-metal kernel on every SCC core (Section 4);
// this class is that kernel's simulated counterpart. It owns the boot-time
// memory setup (identity mapping of the core's private DRAM, L1+L2
// cached), a private-heap allocator, and the interrupt dispatch fabric
// that the mailbox system plugs into: "at every interrupt the kernel
// checks all receiving buffers for incoming messages" (Section 5) is
// realised by registering a timer callback, and the GIC path by an IPI
// callback.
#pragma once

#include <functional>
#include <vector>

#include "sccsim/chip.hpp"
#include "sccsim/core.hpp"

namespace msvm::kernel {

class Kernel {
 public:
  explicit Kernel(scc::Core& core);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  scc::Core& core() { return core_; }
  int core_id() const { return core_.id(); }

  /// Boot-time setup: maps the private region and installs the interrupt
  /// and fault dispatchers on the core. Must run before any other use.
  void boot();

  // ---- private-memory heap (virtual addresses) ----

  /// Allocates `bytes` from this core's private region; returns a virtual
  /// address mapped cacheable (L1 + L2). Never freed (kernel bump heap).
  u64 kmalloc(u64 bytes, u64 align = 8);

  /// Bytes still available in the private heap.
  u64 kheap_remaining() const;

  // ---- interrupt clients ----

  using IpiCallback = std::function<void(const scc::IpiSourceSet& sources)>;
  using TimerCallback = std::function<void()>;

  void add_ipi_handler(IpiCallback cb) {
    ipi_handlers_.push_back(std::move(cb));
  }
  void add_timer_handler(TimerCallback cb) {
    timer_handlers_.push_back(std::move(cb));
  }

  /// SVM page-fault entry: invoked for faults on addresses at or above
  /// kSvmVBase. Faults elsewhere are fatal (a wild access in "kernel"
  /// code).
  using SvmFaultHandler =
      std::function<void(u64 vaddr, bool is_write)>;
  void set_svm_fault_handler(SvmFaultHandler h) {
    svm_fault_handler_ = std::move(h);
  }

  /// Idle step: halts until the next interrupt is delivered.
  void idle_once() { core_.halt(); }

 private:
  scc::Core& core_;
  u64 heap_next_ = 0;
  u64 heap_end_ = 0;
  std::vector<IpiCallback> ipi_handlers_;
  std::vector<TimerCallback> timer_handlers_;
  SvmFaultHandler svm_fault_handler_;
  bool booted_ = false;
};

/// Spin lock over an SCC Test-and-Set register. The register index
/// doubles as the lock identity chip-wide, mirroring how MetalSVM guards
/// its scratch pad "by a lock, which is realized by the SCC-specific
/// Test-And-Set-Registers" (Section 6.3).
class TasSpinlock {
 public:
  explicit TasSpinlock(int reg) : reg_(reg) {}

  int reg() const { return reg_; }

  /// Acquires, sleeping with exponential backoff between failed attempts
  /// so other simulated cores can make progress and release (see
  /// scc::Core::tas_spin). The backoff keeps a contended register from
  /// hammering the mesh.
  void lock(scc::Core& core) {
    scc::TasSpin spin(core, reg_, "tas.lock", static_cast<u64>(reg_));
    while (!core.tas_spin(spin)) {
      // Handed back only for the caller's dead-holder check: none here.
    }
  }

  void unlock(scc::Core& core) { core.tas_release(reg_); }

 private:
  int reg_;
};

/// RAII guard for TasSpinlock.
class TasLockGuard {
 public:
  TasLockGuard(TasSpinlock& lock, scc::Core& core)
      : lock_(lock), core_(core) {
    lock_.lock(core_);
  }
  ~TasLockGuard() { lock_.unlock(core_); }
  TasLockGuard(const TasLockGuard&) = delete;
  TasLockGuard& operator=(const TasLockGuard&) = delete;

 private:
  TasSpinlock& lock_;
  scc::Core& core_;
};

}  // namespace msvm::kernel
