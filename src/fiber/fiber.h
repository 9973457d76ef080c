/**
 * @file
 * Stackful fibers (cooperatively scheduled user-level threads).
 *
 * The GPU simulator runs every thread of a thread block as a fiber so
 * that CUDA-like collectives — __syncthreads(), warp shuffles — can
 * block a thread mid-kernel and hand control to its siblings, exactly
 * as SIMT hardware interleaves warps. Fibers are resumed only by the
 * block executor and are not thread-safe (see Fiber for which OS
 * thread may resume one).
 *
 * On x86-64 the context switch is a 12-instruction assembly routine
 * (callee-saved registers + stack pointer), roughly an order of
 * magnitude cheaper than swapcontext(3) which performs a sigprocmask
 * system call per switch. Other architectures fall back to ucontext.
 * Stacks are mmap'd with a PROT_NONE guard page below the usable area
 * so overflow faults loudly instead of corrupting a neighbour.
 *
 * A fiber is built once and re-armed for every later run: rearm()
 * makes a finished fiber run its entry again from the top, on the
 * stack it already owns. The block executor keeps one fiber per
 * simulated thread slot per worker and re-arms it for each thread
 * block, so no stack is mapped, no entry is allocated and no
 * sanitizer fiber handle is created per block.
 */

#ifndef GPULP_FIBER_FIBER_H
#define GPULP_FIBER_FIBER_H

#include <cstddef>
#include <functional>

/*
 * Sanitizer support: ASan tracks stack bounds (and fake-stack frames)
 * per context, TSan keeps a per-fiber shadow state. A hand-rolled
 * stack switch is invisible to both, producing false stack-overflow
 * and race reports unless every switch is announced through the
 * sanitizer fiber APIs. GCC defines __SANITIZE_*; clang exposes
 * __has_feature.
 */
#if defined(__SANITIZE_ADDRESS__)
#define GPULP_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define GPULP_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GPULP_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define GPULP_FIBER_TSAN 1
#endif
#endif

namespace gpulp {

/**
 * One cooperatively scheduled fiber.
 *
 * Lifecycle: construct with an entry function, call resume() to run it
 * until the entry either calls Fiber::yield() or returns. A finished
 * fiber must not be resumed again until rearm() starts a new run.
 *
 * Threads: a suspended fiber must be resumed on the OS thread it last
 * ran on (compiled code may keep thread-local addresses across the
 * switch). A finished fiber holds no such frames, so once re-armed it
 * may run on any thread.
 */
class Fiber
{
  public:
    /**
     * Default stack size: 64 KiB of usable stack per fiber — 256 KiB
     * under sanitizers, whose instrumentation (redzones, unoptimized
     * frames) inflates stack frames several-fold.
     */
#if defined(GPULP_FIBER_ASAN) || defined(GPULP_FIBER_TSAN)
    static constexpr size_t kDefaultStackSize = 256 * 1024;
#else
    static constexpr size_t kDefaultStackSize = 64 * 1024;
#endif

    /**
     * Create a fiber.
     *
     * @param entry Function executed on the fiber's own stack, once per
     *             run.
     * @param stack_size Usable stack size in bytes (rounded up to page
     *             granularity).
     */
    explicit Fiber(std::function<void()> entry,
                   size_t stack_size = kDefaultStackSize);

    /** Destroying a suspended (unfinished) fiber is a programming error. */
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Run the fiber until it yields or finishes. Must be called from
     * outside any fiber or from a different fiber than this one.
     */
    void resume();

    /**
     * Start a new run of a finished fiber: the next resume() calls the
     * entry again from the top, on the same stack, with the same
     * sanitizer fiber handle. A fiber that never started is left as
     * is. Re-arming a suspended fiber (started, not finished) panics:
     * its frames are still live.
     */
    void rearm();

    /** Suspend the calling fiber, returning control to its resumer. */
    static void yield();

    /** The fiber currently executing on this OS thread, or nullptr. */
    static Fiber *current();

    /** True once the current run's entry function has returned. */
    bool finished() const { return finished_; }

    /** True if the fiber has been resumed since it was built or re-armed. */
    bool started() const { return started_; }

  private:
    friend void fiberEntryThunk(Fiber *fiber);

    /**
     * Body run on the fiber stack: one entry call per run, parking in
     * between. Never returns, so every run after the first starts from
     * the same frame.
     */
    [[noreturn]] void runEntry();

    /**
     * Switch back to the resumer; returns when resumed. Under ASan,
     * @p fake_stack_save receives this fiber's fake stack (nullptr: the
     * run is over, let ASan free it).
     */
    void switchToResumer(void **fake_stack_save);

    /** ASan: clear poison left on the usable stack (no-op otherwise). */
    void unpoisonStack();

    std::function<void()> entry_;
    void *stack_base_ = nullptr;   //!< mmap base (guard page included)
    size_t stack_total_ = 0;       //!< mmap length
    void *saved_sp_ = nullptr;     //!< fiber's suspended stack pointer
    void *resumer_sp_ = nullptr;   //!< resumer's suspended stack pointer
    bool started_ = false;
    bool finished_ = false;

#ifdef GPULP_FIBER_ASAN
    /** Resumer stack bounds, captured each time control enters here. */
    const void *asan_resumer_bottom_ = nullptr;
    size_t asan_resumer_size_ = 0;
#endif
#ifdef GPULP_FIBER_TSAN
    void *tsan_fiber_ = nullptr;   //!< TSan shadow state for this fiber
    void *tsan_resumer_ = nullptr; //!< shadow state to switch back to
#endif
};

} // namespace gpulp

#endif // GPULP_FIBER_FIBER_H
