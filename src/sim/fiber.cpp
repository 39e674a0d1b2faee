#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

namespace msvm::sim {

namespace {

/// The fiber currently executing on this thread (nullptr in main context).
/// The whole simulator is single-threaded by design, but thread_local keeps
/// independent simulations on different host threads (e.g. parallel gtest
/// shards) from interfering.
thread_local Fiber* g_current_fiber = nullptr;

// AddressSanitizer must be told about every stack switch: otherwise the
// first throw (or other no-return call) on a fiber stack makes it try to
// unpoison the span between the fiber's and the thread's stacks, which
// reports a bogus stack-buffer-overflow. Each switch is bracketed: the
// context being left calls an asan_leave*() with the destination stack,
// and the context being entered calls an asan_enter*() right after the
// swap. All of them compile to nothing in a build without ASan.
#if defined(__SANITIZE_ADDRESS__)
thread_local const void* g_main_stack_bottom = nullptr;
thread_local std::size_t g_main_stack_size = 0;
thread_local void* g_main_fake_stack = nullptr;
thread_local bool g_entering_from_main = false;

/// `fake_stack_save` receives the leaving context's fake stack, or is
/// nullptr when the leaving context never runs again.
void asan_leave(void** fake_stack_save, const void* dest_bottom,
                std::size_t dest_size) {
  __sanitizer_start_switch_fiber(fake_stack_save, dest_bottom, dest_size);
}

void asan_leave_main(const void* fiber_bottom, std::size_t fiber_size) {
  g_entering_from_main = true;
  asan_leave(&g_main_fake_stack, fiber_bottom, fiber_size);
}

void asan_leave_to_main(void** fake_stack_save) {
  asan_leave(fake_stack_save, g_main_stack_bottom, g_main_stack_size);
}

/// Called on the entered fiber stack. A fiber entered from main learns the
/// main stack's bounds here, which every later switch back to main needs.
void asan_enter(void* fake_stack) {
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &from_bottom, &from_size);
  if (g_entering_from_main) {
    g_entering_from_main = false;
    g_main_stack_bottom = from_bottom;
    g_main_stack_size = from_size;
  }
}

void asan_enter_main() {
  __sanitizer_finish_switch_fiber(g_main_fake_stack, nullptr, nullptr);
}
#else
void asan_leave(void**, const void*, std::size_t) {}
void asan_leave_main(const void*, std::size_t) {}
void asan_leave_to_main(void**) {}
void asan_enter(void*) {}
void asan_enter_main() {}
#endif

}  // namespace

// msvm_fiber_swap(save, load): saves callee-saved registers and the stack
// pointer into *save, then installs *load as the new stack pointer and
// restores registers from it. SysV x86-64: rbx, rbp, r12-r15 are the only
// callee-saved GPRs; xmm registers are caller-saved and the simulator never
// changes mxcsr/x87 control words.
extern "C" void msvm_fiber_swap(void** save_rsp, void* const* load_rsp);

asm(R"asm(
.text
.globl msvm_fiber_swap
.type msvm_fiber_swap, @function
.align 16
msvm_fiber_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq %rsp, (%rdi)
    movq (%rsi), %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
.size msvm_fiber_swap, .-msvm_fiber_swap
)asm");

Fiber::Fiber(Entry entry, std::size_t stack_bytes)
    : entry_(std::move(entry)) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  // Round the stack up to whole pages and add one guard page below it.
  stack_bytes = (stack_bytes + page - 1) / page * page;
  map_bytes_ = stack_bytes + page;
  void* map = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc{};
  stack_base_ = map;
  if (mprotect(map, page, PROT_NONE) != 0) {
    munmap(map, map_bytes_);
    throw std::bad_alloc{};
  }

  // Build the initial frame so that the first msvm_fiber_swap() into this
  // fiber pops six zeroed callee-saved registers and "returns" into
  // trampoline(). Layout (low -> high): r15 r14 r13 r12 rbx rbp ret pad.
  // The pad qword keeps rsp % 16 == 8 at trampoline entry, matching the
  // SysV alignment contract for a function entered via call/ret.
  auto top = reinterpret_cast<std::uintptr_t>(map) + map_bytes_;
  top &= ~std::uintptr_t{15};
  auto* slots = reinterpret_cast<void**>(top) - 8;
  for (int i = 0; i < 6; ++i) slots[i] = nullptr;
  slots[6] = reinterpret_cast<void*>(&Fiber::trampoline);
  slots[7] = nullptr;
  fiber_rsp_ = slots;
}

Fiber::~Fiber() {
  if (started_ && !finished_) {
    // Destroying a suspended fiber would leak the objects on its stack.
    // This indicates a scheduler bug; fail loudly.
    std::fprintf(stderr,
                 "msvm::sim::Fiber destroyed while suspended mid-execution\n");
    std::abort();
  }
  if (stack_base_ != nullptr) munmap(stack_base_, map_bytes_);
}

void Fiber::resume() {
  assert(g_current_fiber == nullptr && "resume() must come from main");
  assert(!finished_ && "cannot resume a finished fiber");
  started_ = true;
  g_current_fiber = this;
  asan_leave_main(stack_base_, map_bytes_);
  msvm_fiber_swap(&main_rsp_, &fiber_rsp_);
  asan_enter_main();
  g_current_fiber = nullptr;
}

void Fiber::yield_to_main() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr && "yield_to_main() called outside any fiber");
  asan_leave_to_main(&self->asan_fake_stack_);
  msvm_fiber_swap(&self->fiber_rsp_, &self->main_rsp_);
  asan_enter(self->asan_fake_stack_);
}

void Fiber::transfer(Fiber& from, Fiber& to) {
  assert(g_current_fiber == &from && "transfer() must come from `from`");
  assert(!to.finished_ && "cannot transfer to a finished fiber");
  // Whoever later yields to main must land in the resume() frame that
  // started this chain of transfers.
  to.main_rsp_ = from.main_rsp_;
  to.started_ = true;
  g_current_fiber = &to;
  asan_leave(&from.asan_fake_stack_, to.stack_base_, to.map_bytes_);
  msvm_fiber_swap(&from.fiber_rsp_, &to.fiber_rsp_);
  // Control returns here when some context switches back into `from`;
  // that resumer (resume() or another transfer()) has already updated
  // g_current_fiber, so nothing but the sanitizer bookkeeping of this
  // stack may be touched after the swap.
  asan_enter(from.asan_fake_stack_);
}

Fiber* Fiber::current() { return g_current_fiber; }

void Fiber::trampoline() {
  asan_enter(nullptr);  // first entry: no fake stack to restore yet
  Fiber* self = g_current_fiber;
  assert(self != nullptr);
  self->entry_();
  self->finished_ = true;
  // Release the closure eagerly: it may own captures whose destructors the
  // caller expects to run when the fiber completes, not when destroyed.
  self->entry_ = nullptr;
  // Leaving for good: a null save slot lets ASan free this fiber's fake
  // stack. Switch directly rather than via yield_to_main(), which would
  // keep it.
  asan_leave_to_main(nullptr);
  msvm_fiber_swap(&self->fiber_rsp_, &self->main_rsp_);
  // A finished fiber must never be resumed again.
  std::fprintf(stderr, "msvm::sim::Fiber resumed after completion\n");
  std::abort();
}

}  // namespace msvm::sim
