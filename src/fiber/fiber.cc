#include "fiber.h"

#include <cstdint>
#include <sys/mman.h>
#include <unistd.h>

#include "common/logging.h"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#ifdef GPULP_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef GPULP_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// Assembly routines (context_x86_64.S).
extern "C" {
#if defined(__x86_64__)
void gpulp_context_switch(void **save_sp, void *restore_sp);
void gpulp_context_trampoline();
#endif
/** C entry reached from the trampoline; defined below. */
[[noreturn]] void gpulp_fiber_entry_thunk(void *fiber);
}

namespace gpulp {

namespace {

/** Fiber currently running on this OS thread (nullptr = main stack). */
thread_local Fiber *tls_current_fiber = nullptr;

size_t
pageSize()
{
    static const size_t size = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return size;
}

size_t
roundUpToPage(size_t bytes)
{
    size_t page = pageSize();
    return (bytes + page - 1) / page * page;
}

/** mmap a stack with a PROT_NONE guard page at the low end. */
void *
mapStack(size_t usable, size_t *total_out)
{
    size_t total = roundUpToPage(usable) + pageSize();
    void *base = ::mmap(nullptr, total, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        GPULP_FATAL("fiber stack mmap of %zu bytes failed", total);
    if (::mprotect(static_cast<char *>(base) + pageSize(),
                   total - pageSize(), PROT_READ | PROT_WRITE) != 0) {
        GPULP_FATAL("fiber stack mprotect failed");
    }
    *total_out = total;
    return base;
}

void
unmapStack(void *base, size_t total)
{
    if (::munmap(base, total) != 0)
        GPULP_WARN("fiber stack munmap failed");
}

#if !defined(__x86_64__)
// ---------------------------------------------------------------------
// Portable ucontext fallback. A fiber's saved_sp_ points at the
// heap-allocated ucontext_t it owns; resumer_sp_ points at a
// ucontext_t in the frame of the resume() that entered the run, which
// stays live until a fiber switches back to it, just as the assembly
// routine's saved stack pointer does.
// ---------------------------------------------------------------------

thread_local void *ucontext_entry_arg = nullptr;

void
ucontextEntry()
{
    gpulp_fiber_entry_thunk(ucontext_entry_arg);
}
#endif

/** Panic unless @p next may take over from the running fiber @p self. */
void
checkHandOff(const Fiber *self, const Fiber &next)
{
    GPULP_ASSERT(&next != self, "fiber handing off to itself");
    GPULP_ASSERT(!next.finished(), "handing off to a finished fiber");
}

/**
 * Save the running context through @p save and continue in @p restore:
 * *save receives the stack pointer on x86-64, and on the ucontext
 * fallback already points at the ucontext_t that receives the context.
 */
inline void
switchContext(void **save, void *restore)
{
#if defined(__x86_64__)
    gpulp_context_switch(save, restore);
#else
    swapcontext(static_cast<ucontext_t *>(*save),
                static_cast<ucontext_t *>(restore));
#endif
}

} // namespace

// ---------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------

Fiber::Fiber(Entry entry, size_t stack_size)
    : entry_(std::move(entry))
{
    GPULP_ASSERT(entry_ != nullptr, "fiber needs an entry function");
    stack_base_ = mapStack(stack_size, &stack_total_);

#if defined(__x86_64__)
    // Prepare the initial frame the context switch will "return" into:
    // six callee-saved register slots (the Fiber* parked in the rbx
    // slot) followed by the trampoline address. See context_x86_64.S.
    uintptr_t top = reinterpret_cast<uintptr_t>(stack_base_) + stack_total_;
    top &= ~static_cast<uintptr_t>(15);
    auto *slots = reinterpret_cast<uint64_t *>(top - 7 * 8);
    slots[0] = 0;                                           // r15
    slots[1] = 0;                                           // r14
    slots[2] = 0;                                           // r13
    slots[3] = 0;                                           // r12
    slots[4] = reinterpret_cast<uint64_t>(this);            // rbx
    slots[5] = 0;                                           // rbp
    slots[6] =
        reinterpret_cast<uint64_t>(&gpulp_context_trampoline); // ret
    saved_sp_ = slots;
#else
    auto *ctx = new ucontext_t;
    getcontext(ctx);
    ctx->uc_stack.ss_sp = static_cast<char *>(stack_base_) + pageSize();
    ctx->uc_stack.ss_size = stack_total_ - pageSize();
    ctx->uc_link = nullptr;
    // The Fiber* is delivered through a thread-local set just before
    // the first swap; makecontext's int-argument interface cannot carry
    // a 64-bit pointer portably.
    makecontext(ctx, reinterpret_cast<void (*)()>(&ucontextEntry), 0);
    saved_sp_ = ctx;
#endif

#ifdef GPULP_FIBER_TSAN
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
    GPULP_ASSERT(!started_ || finished_,
                 "destroying a suspended fiber mid-execution");
#if !defined(__x86_64__)
    delete static_cast<ucontext_t *>(saved_sp_);
#endif
#ifdef GPULP_FIBER_TSAN
    __tsan_destroy_fiber(tsan_fiber_);
#endif
    unpoisonStack();
    unmapStack(stack_base_, stack_total_);
}

void
Fiber::unpoisonStack()
{
#ifdef GPULP_FIBER_ASAN
    // Frames left on the stack (the parked runEntry loop, or ones an
    // unwind skipped) keep their redzones, which would otherwise
    // survive into the stack's next user: a new run, or whatever maps
    // these pages next. Clear the whole usable region.
    __asan_unpoison_memory_region(
        static_cast<char *>(stack_base_) + pageSize(),
        stack_total_ - pageSize());
#endif
}

void
Fiber::rearm()
{
    GPULP_ASSERT(!started_ || finished_,
                 "re-arming a suspended fiber mid-execution");
    unpoisonStack();
    started_ = false;
    finished_ = false;
}

void
Fiber::resume()
{
    GPULP_ASSERT(!finished_, "resuming a finished fiber");
    GPULP_ASSERT(tls_current_fiber != this, "fiber resuming itself");
    Fiber *prev = tls_current_fiber;
    tls_current_fiber = this;
    started_ = true;
#ifdef GPULP_FIBER_TSAN
    tsan_resumer_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef GPULP_FIBER_ASAN
    // Announce the stack change; `fake` parks this context's fake-stack
    // frames until control returns here (right after the switch call).
    // The cleared bounds tell the switch in to capture this stack's.
    asan_resumer_bottom_ = nullptr;
    void *fake = nullptr;
    __sanitizer_start_switch_fiber(
        &fake, static_cast<char *>(stack_base_) + pageSize(),
        stack_total_ - pageSize());
#endif
#if !defined(__x86_64__)
    ucontext_t resumer;
    resumer_sp_ = &resumer;
    ucontext_entry_arg = this;
#endif
    // Control comes back from whichever fiber of the run's hand-off
    // chain switches to the resumer.
    switchContext(&resumer_sp_, saved_sp_);
#ifdef GPULP_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
    tls_current_fiber = prev;
}

void
Fiber::yield()
{
    Fiber *self = tls_current_fiber;
    GPULP_ASSERT(self != nullptr, "Fiber::yield outside any fiber");
    void *fake = nullptr;
    self->switchToResumer(&fake);
    self->finishSwitchIn(fake);
}

void
Fiber::switchTo(Fiber &next)
{
    Fiber *self = tls_current_fiber;
    GPULP_ASSERT(self != nullptr, "Fiber::switchTo outside any fiber");
    checkHandOff(self, next);
    void *fake = nullptr;
    self->handOff(next, &fake);
    self->finishSwitchIn(fake);
}

void
Fiber::switchToResumer([[maybe_unused]] void **fake_stack_save)
{
#ifdef GPULP_FIBER_TSAN
    __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
#ifdef GPULP_FIBER_ASAN
    __sanitizer_start_switch_fiber(fake_stack_save, asan_resumer_bottom_,
                                   asan_resumer_size_);
#endif
    switchContext(&saved_sp_, resumer_sp_);
}

void
Fiber::handOff(Fiber &next, [[maybe_unused]] void **fake_stack_save)
{
    tls_current_fiber = &next;
    next.started_ = true;
    next.resumer_sp_ = resumer_sp_;
#ifdef GPULP_FIBER_TSAN
    next.tsan_resumer_ = tsan_resumer_;
    __tsan_switch_to_fiber(next.tsan_fiber_, 0);
#endif
#ifdef GPULP_FIBER_ASAN
    next.asan_resumer_bottom_ = asan_resumer_bottom_;
    next.asan_resumer_size_ = asan_resumer_size_;
    __sanitizer_start_switch_fiber(
        fake_stack_save, static_cast<char *>(next.stack_base_) + pageSize(),
        next.stack_total_ - pageSize());
#endif
#if !defined(__x86_64__)
    ucontext_entry_arg = &next;
#endif
    switchContext(&saved_sp_, next.saved_sp_);
}

void
Fiber::finishSwitchIn([[maybe_unused]] void *fake_stack_save)
{
#ifdef GPULP_FIBER_ASAN
    // Capture the stack we came from only when it is the resumer's: a
    // pooled worker other than last time's may be driving us now.
    const void *from_bottom = nullptr;
    size_t from_size = 0;
    __sanitizer_finish_switch_fiber(fake_stack_save, &from_bottom,
                                    &from_size);
    if (asan_resumer_bottom_ == nullptr) {
        asan_resumer_bottom_ = from_bottom;
        asan_resumer_size_ = from_size;
    }
#endif
}

Fiber *
Fiber::current()
{
    return tls_current_fiber;
}

void
Fiber::runEntry()
{
    for (;;) {
        // First instant of a run: complete the switch that started it
        // (no fake stack to restore).
        finishSwitchIn(nullptr);
        Fiber *next = entry_();
        finished_ = true;
        // Park here until rearm() and resume() start the next run; the
        // entry's frames are gone, so ASan may free the fake stack.
        // Looping instead of rebuilding the initial frame keeps TSan's
        // shadow call stack for this fiber balanced across runs.
        if (next != nullptr) {
            checkHandOff(this, *next);
            handOff(*next, nullptr);
        } else {
            switchToResumer(nullptr);
        }
    }
}

void
fiberEntryThunk(Fiber *fiber)
{
    fiber->runEntry();
}

} // namespace gpulp

extern "C" void
gpulp_fiber_entry_thunk(void *fiber)
{
    gpulp::fiberEntryThunk(static_cast<gpulp::Fiber *>(fiber));
    GPULP_PANIC("fiber entry thunk returned");
}
