#include "sim/fiber.hpp"

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

// Two context-switch backends:
//
//  * UPCWS_FAST_FIBER (x86-64, no sanitizers): a ~20-instruction assembly
//    switch that saves the callee-saved registers on the suspending stack
//    and swaps %rsp. POSIX swapcontext makes an rt_sigprocmask syscall on
//    every switch (it must preserve the signal mask); at the simulator's
//    switch rates that syscall dominates the entire engine, and fibers
//    never touch the signal mask, so the engine skips it. The fibers also
//    never change the FP control/MXCSR modes, so those are not saved
//    either.
//
//  * ucontext fallback everywhere else. Under ASan the switch must be
//    announced via __sanitizer_*_switch_fiber or fake-stack bookkeeping
//    corrupts; under TSan each fiber carries its own shadow state and the
//    switch is announced via __tsan_switch_to_fiber (without it, TSan
//    attributes post-switch accesses to the pre-switch context and reports
//    phantom races). Sanitizer builds therefore always take this path.
//
// Both backends implement the same three switches: resume() (resumer ->
// fiber), yield_current() and the final return (fiber -> resumer), and
// switch_to() (fiber -> fiber, handing over the resumer).
#if defined(__x86_64__) && !defined(UPCWS_ASAN_FIBERS) &&      \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define UPCWS_FAST_FIBER 1
#endif
#else
#define UPCWS_FAST_FIBER 1
#endif
#endif

#ifndef UPCWS_FAST_FIBER
#include <ucontext.h>
#ifdef UPCWS_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef UPCWS_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#endif

namespace upcws::sim {

namespace {
// The fiber currently executing on this OS thread (nullptr in scheduler
// context). thread_local so independent schedulers may run on different
// OS threads concurrently.
thread_local Fiber* g_current_fiber = nullptr;

// A fiber call stack. The buffer is allocated without initialisation, so
// the kernel commits only the pages the fiber actually touches (a few per
// fiber) rather than all of them.
struct Stack {
  std::unique_ptr<std::uint8_t[]> mem;
  std::size_t bytes = 0;
};

// Stack coloring: the stack top moves down by `color` cache lines, modulo
// one page. Without it every stack top sits at the same page offset, and
// the hot top frames of hundreds of fibers compete for the same L1 sets.
constexpr std::size_t kCacheLine = 64;
constexpr std::size_t kColors = 4096 / kCacheLine;

std::size_t color_offset(unsigned color) {
  return (color % kColors) * kCacheLine;
}

// Stack pool: schedule checking and the benches construct thousands of
// short-lived Schedulers with identically sized fiber stacks; recycling
// the buffers through a small thread-local free list turns per-run stack
// allocation into a pointer swap.
class StackPool {
 public:
  Stack acquire(std::size_t bytes) {
    for (std::size_t i = free_.size(); i-- > 0;) {
      if (free_[i].bytes == bytes) {
        Stack s = std::move(free_[i]);
        free_[i] = std::move(free_.back());
        free_.pop_back();
        cached_bytes_ -= bytes;
        return s;
      }
    }
    return {std::make_unique_for_overwrite<std::uint8_t[]>(bytes), bytes};
  }

  void release(Stack&& s) {
    if (cached_bytes_ + s.bytes > kMaxCachedBytes) return;  // drop it
    cached_bytes_ += s.bytes;
    free_.push_back(std::move(s));
  }

 private:
  // Enough for several hundred default-size (256 KiB) stacks; a bound so
  // an unusual mix of stack sizes cannot pin memory forever.
  static constexpr std::size_t kMaxCachedBytes = 128u << 20;
  std::vector<Stack> free_;
  std::size_t cached_bytes_ = 0;
};

thread_local StackPool g_stack_pool;

/// The running fiber, or logic_error naming `what` off-fiber.
Fiber& running(const char* what) {
  if (g_current_fiber == nullptr)
    throw std::logic_error(std::string("Fiber::") + what +
                           " outside fiber context");
  return *g_current_fiber;
}
}  // namespace

void Fiber::on_wake() {
  if (!cancel_) return;
  // Throwing here is only safe from a plain yield: if the fiber suspended
  // mid-unwind of another exception, or inside a shielded region (a lock
  // release reached from a noexcept destructor), a second throw terminates
  // the process. Leave the cancel pending; the next safe yield delivers it.
  if (unwind_depth_ > 0 || shield_) return;
  unwinding_ = true;
  throw Cancelled{};
}

#ifdef UPCWS_FAST_FIBER

// upcws_fiber_switch(void** save_sp, void* restore_sp):
// push callee-saved registers, publish %rsp through save_sp, adopt
// restore_sp, pop, return "into" the restored context.
asm(R"(
.text
.align 16
.globl upcws_fiber_switch
.hidden upcws_fiber_switch
.type upcws_fiber_switch, @function
upcws_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
.size upcws_fiber_switch, .-upcws_fiber_switch
)");

extern "C" {
void upcws_fiber_switch(void** save_sp, void* restore_sp);

// First activation target: the prepared frame parks the Fiber* in the %r12
// slot, and a tiny thunk moves it into %rdi for the C++ entry below.
asm(R"(
.text
.align 16
.globl upcws_fiber_entry_thunk
.hidden upcws_fiber_entry_thunk
.type upcws_fiber_entry_thunk, @function
upcws_fiber_entry_thunk:
  movq %r12, %rdi
  xorl %ebp, %ebp
  call upcws_fiber_entry
.size upcws_fiber_entry_thunk, .-upcws_fiber_entry_thunk
)");
void upcws_fiber_entry_thunk();
void upcws_fiber_entry(void* fiber);
}

struct Fiber::Impl {
  void* self_sp = nullptr;     // fiber's saved %rsp while suspended
  void* resumer_sp = nullptr;  // resumer's saved %rsp while fiber runs
  Stack stack;
  std::size_t top_offset = 0;  // stack color, in bytes below the top

  /// Build the initial frame so the first switch "returns" into the entry
  /// thunk with `f` in %r12 and the ABI-required stack alignment (%rsp
  /// ≡ 0 mod 16 at the thunk, hence ≡ 8 at upcws_fiber_entry's entry).
  void prepare(Fiber* f) {
    auto top_addr = reinterpret_cast<std::uintptr_t>(stack.mem.get() +
                                                     stack.bytes - top_offset);
    top_addr &= ~std::uintptr_t{15};
    auto* top = reinterpret_cast<void**>(top_addr);
    top[-1] = reinterpret_cast<void*>(&upcws_fiber_entry_thunk);  // ret addr
    top[-2] = nullptr;                     // rbp
    top[-3] = nullptr;                     // rbx
    top[-4] = reinterpret_cast<void*>(f);  // r12
    top[-5] = nullptr;                     // r13
    top[-6] = nullptr;                     // r14
    top[-7] = nullptr;                     // r15
    self_sp = &top[-7];
  }
};

}  // namespace upcws::sim

// Global scope: must be the same declaration the header befriended
// (::upcws_fiber_entry), not a namespace-qualified twin.
extern "C" void upcws_fiber_entry(void* fiber) {
  auto* f = static_cast<upcws::sim::Fiber*>(fiber);
  f->entry();
  // entry() switches away for good and never comes back here.
  std::abort();
}

namespace upcws::sim {

/// Body of the first activation (shared shape with the ucontext
/// trampoline): run the task, mark finished, switch to the resumer.
void Fiber::entry() {
  try {
    fn_();
  } catch (const Cancelled&) {
    // cancel() unwound the fiber stack; destructors have run.
  }
  finished_ = true;
  g_current_fiber = nullptr;
  void* dead_sp = nullptr;  // this context is never re-entered
  upcws_fiber_switch(&dead_sp, impl_->resumer_sp);
}

Fiber::Fiber(Fn fn, std::size_t stack_bytes, unsigned color)
    : impl_(std::make_unique<Impl>()), fn_(std::move(fn)) {
  impl_->stack = g_stack_pool.acquire(stack_bytes);
  impl_->top_offset = color_offset(color);
}

Fiber::~Fiber() {
  // Destroying a suspended (started, unfinished) fiber would leak whatever
  // is on its stack; the scheduler cancel()s unfinished fibers before
  // destroying them (abnormal teardown after TimeLimitExceeded or
  // HangDetected), so destructors on fiber stacks always run.
  g_stack_pool.release(std::move(impl_->stack));
}

void Fiber::enter() {
  g_current_fiber = this;
  eh_base_ = std::uncaught_exceptions();
  if (!started_) {
    started_ = true;
    impl_->prepare(this);
  }
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("Fiber::resume on finished fiber");
  Fiber* prev = g_current_fiber;
  enter();
  upcws_fiber_switch(&impl_->resumer_sp, impl_->self_sp);
  g_current_fiber = prev;
}

void Fiber::yield_current() {
  Fiber& f = running("yield_current");
  if (f.unwinding_) return;  // mid-cancel: destructors must not suspend
  f.unwind_depth_ = std::uncaught_exceptions() - f.eh_base_;
  g_current_fiber = nullptr;
  upcws_fiber_switch(&f.impl_->self_sp, f.impl_->resumer_sp);
  g_current_fiber = &f;
  f.on_wake();
}

void Fiber::switch_to(Fiber& next) {
  Fiber& f = running("switch_to");
  if (next.finished_ || &next == &f)
    throw std::logic_error("Fiber::switch_to on finished or running fiber");
  f.unwind_depth_ = std::uncaught_exceptions() - f.eh_base_;
  // The resumer's saved %rsp stays valid until someone switches back to
  // it, which is now next's job.
  next.impl_->resumer_sp = f.impl_->resumer_sp;
  next.enter();
  upcws_fiber_switch(&f.impl_->self_sp, next.impl_->self_sp);
  g_current_fiber = &f;
  f.on_wake();
}

#else  // !UPCWS_FAST_FIBER — ucontext backend (sanitizers, other arches)

struct Fiber::Impl {
  ucontext_t self{};  // context of the fiber
  // Context to return to on yield/finish. It lives in the frame of the
  // resume() call that entered the chain of fibers, and switch_to() hands
  // the pointer on, so whichever fiber yields last returns there.
  ucontext_t* resumer = nullptr;
  Stack stack;
  std::size_t top_offset = 0;  // stack color, in bytes below the top
#ifdef UPCWS_ASAN_FIBERS
  void* fiber_fake = nullptr;          // fiber's fake stack while suspended
  const void* sched_bottom = nullptr;  // the resumer's stack
  std::size_t sched_size = 0;
  // Set by resume(): on wake, the stack switched from is the resumer's and
  // must be learned. switch_to() hands the resumer's stack over instead.
  bool learn_sched = false;

  /// First thing on this fiber's stack after any switch into it.
  void finish_switch() {
    const void* from_bottom = nullptr;
    std::size_t from_size = 0;
    __sanitizer_finish_switch_fiber(fiber_fake, &from_bottom, &from_size);
    if (learn_sched) {
      sched_bottom = from_bottom;
      sched_size = from_size;
    }
  }
#endif
#ifdef UPCWS_TSAN_FIBERS
  // TSan keeps per-fiber shadow state (clock, shadow stack); every
  // swapcontext must be announced via __tsan_switch_to_fiber or TSan
  // attributes the new stack's accesses to the old context and reports
  // phantom races / use-after-free. Switches synchronize (flag 0):
  // cooperative scheduling is a happens-before edge.
  void* tsan_self = nullptr;     // this fiber's TSan state
  void* tsan_resumer = nullptr;  // the resumer's state
#endif
};

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* f = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                     static_cast<std::uintptr_t>(lo));
#ifdef UPCWS_ASAN_FIBERS
  f->impl_->finish_switch();
#endif
  f->entry();
}

/// Shared finishing shape with the fast backend: run the task, mark
/// finished, switch to the resumer. Do NOT fall off the end: the linked
/// uc_link is unset, so returning would terminate the process.
void Fiber::entry() {
  try {
    fn_();
  } catch (const Cancelled&) {
    // cancel() unwound the fiber stack; destructors have run.
  }
  finished_ = true;
  g_current_fiber = nullptr;
#ifdef UPCWS_ASAN_FIBERS
  // nullptr fake-stack save: this fiber's fake stack is destroyed.
  __sanitizer_start_switch_fiber(nullptr, impl_->sched_bottom,
                                 impl_->sched_size);
#endif
#ifdef UPCWS_TSAN_FIBERS
  __tsan_switch_to_fiber(impl_->tsan_resumer, 0);
#endif
  swapcontext(&impl_->self, impl_->resumer);
}

Fiber::Fiber(Fn fn, std::size_t stack_bytes, unsigned color)
    : impl_(std::make_unique<Impl>()), fn_(std::move(fn)) {
  impl_->stack = g_stack_pool.acquire(stack_bytes);
  impl_->top_offset = color_offset(color);
#ifdef UPCWS_TSAN_FIBERS
  impl_->tsan_self = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // See the fast-backend note: unfinished fibers are cancel()ed by the
  // scheduler before destruction, so their stacks are clean by now.
#ifdef UPCWS_TSAN_FIBERS
  __tsan_destroy_fiber(impl_->tsan_self);
#endif
  g_stack_pool.release(std::move(impl_->stack));
}

void Fiber::enter() {
  g_current_fiber = this;
  eh_base_ = std::uncaught_exceptions();
  if (!started_) {
    started_ = true;
    getcontext(&impl_->self);
    impl_->self.uc_stack.ss_sp = impl_->stack.mem.get();
    impl_->self.uc_stack.ss_size = impl_->stack.bytes - impl_->top_offset;
    impl_->self.uc_link = nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&impl_->self, reinterpret_cast<void (*)()>(&Fiber::trampoline),
                2, static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xFFFFFFFFu));
  }
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("Fiber::resume on finished fiber");
  Fiber* prev = g_current_fiber;
  ucontext_t here;
  impl_->resumer = &here;
  enter();
#ifdef UPCWS_ASAN_FIBERS
  void* sched_fake = nullptr;
  impl_->learn_sched = true;
  __sanitizer_start_switch_fiber(&sched_fake, impl_->stack.mem.get(),
                                 impl_->stack.bytes);
#endif
#ifdef UPCWS_TSAN_FIBERS
  impl_->tsan_resumer = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(impl_->tsan_self, 0);
#endif
  swapcontext(&here, &impl_->self);
#ifdef UPCWS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(sched_fake, nullptr, nullptr);
#endif
  g_current_fiber = prev;
}

void Fiber::yield_current() {
  Fiber& f = running("yield_current");
  if (f.unwinding_) return;  // mid-cancel: destructors must not suspend
  f.unwind_depth_ = std::uncaught_exceptions() - f.eh_base_;
  g_current_fiber = nullptr;
#ifdef UPCWS_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&f.impl_->fiber_fake, f.impl_->sched_bottom,
                                 f.impl_->sched_size);
#endif
#ifdef UPCWS_TSAN_FIBERS
  __tsan_switch_to_fiber(f.impl_->tsan_resumer, 0);
#endif
  swapcontext(&f.impl_->self, f.impl_->resumer);
#ifdef UPCWS_ASAN_FIBERS
  f.impl_->finish_switch();
#endif
  g_current_fiber = &f;
  f.on_wake();
}

void Fiber::switch_to(Fiber& next) {
  Fiber& f = running("switch_to");
  if (next.finished_ || &next == &f)
    throw std::logic_error("Fiber::switch_to on finished or running fiber");
  f.unwind_depth_ = std::uncaught_exceptions() - f.eh_base_;
  next.impl_->resumer = f.impl_->resumer;
  next.enter();
#ifdef UPCWS_ASAN_FIBERS
  next.impl_->sched_bottom = f.impl_->sched_bottom;
  next.impl_->sched_size = f.impl_->sched_size;
  next.impl_->learn_sched = false;
  __sanitizer_start_switch_fiber(&f.impl_->fiber_fake,
                                 next.impl_->stack.mem.get(),
                                 next.impl_->stack.bytes);
#endif
#ifdef UPCWS_TSAN_FIBERS
  next.impl_->tsan_resumer = f.impl_->tsan_resumer;
  __tsan_switch_to_fiber(next.impl_->tsan_self, 0);
#endif
  swapcontext(&f.impl_->self, &next.impl_->self);
#ifdef UPCWS_ASAN_FIBERS
  f.impl_->finish_switch();
#endif
  g_current_fiber = &f;
  f.on_wake();
}

#endif  // UPCWS_FAST_FIBER

void Fiber::shield_current(bool on) {
  if (g_current_fiber != nullptr) g_current_fiber->shield_ = on;
}

void Fiber::cancel() {
  if (!started_ || finished_) return;
  cancel_ = true;
  // One resume normally suffices: the fiber wakes at its suspended yield,
  // throws Cancelled, and unwinds to the trampoline. Loop regardless in
  // case a destructor on the unwinding stack suspends again.
  while (!finished_) resume();
}

}  // namespace upcws::sim
