/**
 * @file
 * SIMT execution state: per-block state (the block's and its warps'
 * rendezvous, shared memory) and the ThreadCtx device API that kernels
 * program against.
 *
 * Execution model: every thread of a block runs on its own fiber,
 * scheduled event-driven. Fibers suspend at exactly two places, the
 * points where SIMT hardware requires convergence or ordering:
 *
 *  - a rendezvous (struct Rendezvous), of the whole block or of one
 *    warp. __syncthreads() and a whole LP region fold (Listing 3) are
 *    block rendezvous, and a shfl_down is a warp rendezvous: every live
 *    participant deposits a value and its cycle counter, and the last
 *    to arrive runs the release, which sets the cycle every participant
 *    resumes at (and the results). An arrival never parks. The thread
 *    waits for the release at its next device operation (the wait
 *    rule, ThreadCtx::settle) instead; a shuffle's next operation is
 *    reading its result. A thread whose kernel returns first waits as a
 *    finished thread, which the scheduler retires in place when it
 *    picks it, with no context switch. Fibers are cooperative, so no
 *    other fiber runs between an arrival and the thread's next device
 *    operation: parking there makes the same picks, releases and
 *    policy calls as parking at the arrival;
 *  - the rank gate, before a block's first ordering-sensitive access.
 *
 * A fiber suspends by parking on a wait list keyed to the event that
 * will satisfy it (rendezvous generation, rank-gate frontier).
 * Releasing the event moves its waiters back to the ready set; a
 * parked fiber is never resumed just to re-poll. Ready fibers run in
 * cyclic flat-tid order, which reproduces the retired poll-everything
 * loop's interleaving exactly (minus the no-op resumes), so results
 * stay bit-identical at any worker count. The runner
 * (BlockState::run) resumes a fiber only at block start and after a
 * rank-gate wake; a fiber that parks or exits picks the next one
 * itself and switches straight to it, so each resume is one host
 * context switch. Control returns to the runner only when no fiber is
 * ready: at block end, for a rank-gate wait and for the deadlock
 * panic. All other device operations are non-blocking and charge the
 * thread's cycle counter.
 *
 * Timing: each thread carries an absolute cycle counter (its block's
 * start cycle plus its own progress). Collectives align counters to
 * the max participant; atomics serialize through MemTiming's
 * per-address table; loads/stores accumulate roofline traffic.
 */

#ifndef GPULP_SIM_EXEC_H
#define GPULP_SIM_EXEC_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/zeroed_buffer.h"
#include "mem/memory.h"
#include "mem/timing.h"
#include "nvm/nvm_cache.h"
#include "sim/sched_policy.h"
#include "sim/thread_pool.h"
#include "sim/types.h"

namespace gpulp {

class Fiber;
class ThreadCtx;

/**
 * Half-open [base, end) device address ranges whose plain loads/stores
 * must observe rank order under the parallel engine. Workloads declare
 * them (via Device::addOrderedRegion) for data structures that are
 * racy by design — e.g. MEGA-KV's optimistic pre-check load before its
 * CAS — so functional results stay bit-identical at any worker count.
 * The paper's collision-free global-array store needs none: disjoint
 * per-block slots are what make it scale.
 */
using OrderedRegions = std::vector<std::pair<Addr, Addr>>;

class BlockState;

/**
 * The deposits of a block's rendezvous, as a release function sees
 * them. A thread arriving through ThreadCtx::blockArrive or a shuffle
 * deposits its value and cycle counter in its own slot, indexed by
 * flat tid; the release function may overwrite a thread's value with
 * its result. A thread reads only its own slot, and deposits again
 * only after reading it. __syncthreads deposits nothing: its release
 * reads only the latest arrival, which every arrival updates. The
 * block's rendezvous and its warps' share the slots, since a thread
 * waits for one rendezvous at a time.
 */
struct BlockLanes {
    std::vector<uint32_t> lanes; //!< per warp: bitmask of lanes deposited
    std::vector<uint64_t> value; //!< per flat tid: deposit in, result out
    std::vector<Cycles> cycles;  //!< per flat tid: arrival cycle
};

struct Rendezvous;

/**
 * A rendezvous's release function: run once over every arrival, by the
 * last live participant to arrive or by the retirement that leaves
 * every live participant arrived. @return The cycle every participant
 * resumes at.
 */
using ReleaseFn = Cycles (*)(const Rendezvous &rv, BlockLanes &lanes,
                             BlockState &block);

/**
 * One rendezvous of a block's threads: one instance serves the whole
 * block (__syncthreads, the LP fold) and one each warp (a shuffle). Its
 * participants are the live threads of its scope, the flat tids
 * [first, first + size). Every instance takes one path: a thread
 * arrives (BlockState::arrive), waits by the wait rule
 * (ThreadCtx::settle), and the last arrival releases it, which wakes
 * the parked participants. A new generation cannot release before
 * every thread awaiting the previous one has settled or retired, since
 * each is live and has not arrived, so one release cycle serves every
 * waiter.
 */
struct Rendezvous {
    Rendezvous() = default;

    /** Instance @p index (0: the block, 1 + w: warp w) over the @p size
     *  threads from flat tid @p first. */
    Rendezvous(uint32_t index, uint32_t first, uint32_t size)
        : first(first), size(size), live(size),
          generation(uint64_t{index} << 32)
    {
    }

    /** The event the current generation's waiters park on. */
    SchedEvent
    event() const
    {
        return SchedEvent{SchedEventKind::Barrier, generation};
    }

    uint32_t first = 0;   //!< the scope's first flat tid
    uint32_t size = 0;    //!< threads in the scope
    uint32_t live = 0;    //!< of those, not retired (finished ones too)
    uint32_t arrived = 0; //!< arrivals at the current generation
    /** Bumps at each release. It starts at the instance's index << 32,
     *  so it is the event id, unique per instance and generation. */
    uint64_t generation = 0;
    ReleaseFn release = nullptr; //!< the current generation's release
    uint64_t arg = 0;            //!< the current generation's argument
    Cycles max_arrival = 0;      //!< the current generation's latest arrival
    Cycles release_cycle = 0;    //!< the last release's resume cycle
};

/**
 * Flat tids parked on one kind of event (a rendezvous, the rank gate),
 * stored as a bitmap so waking them is a word-wise OR into the ready
 * set instead of a per-thread walk. The block's rendezvous and its
 * warps' park on one set, and a release wakes the tids of its own
 * scope: every live thread of the scope has arrived at the releasing
 * rendezvous, so each one on the set waits for it.
 */
struct WaitSet {
    explicit WaitSet(uint32_t n) { reset(n); }

    /** Empty the set and size it for @p n threads, reusing its words. */
    void
    reset(uint32_t n)
    {
        bits.assign((n + 63) / 64, 0);
        count = 0;
    }

    /** Mark @p tid parked. */
    void
    park(uint32_t tid)
    {
        bits[tid >> 6] |= uint64_t{1} << (tid & 63);
        ++count;
    }

    bool empty() const { return count == 0; }

    /** Word @p i of the set, limited to the tids in [first, end). */
    uint64_t
    word(uint32_t i, uint32_t first, uint32_t end) const
    {
        const uint32_t lo = std::max(first, i * 64) - i * 64;
        const uint32_t hi = std::min(end, i * 64 + 64) - i * 64;
        uint64_t mask = ~uint64_t{0} << lo;
        if (hi < 64)
            mask &= (uint64_t{1} << hi) - 1;
        return bits[i] & mask;
    }

    std::vector<uint64_t> bits;
    uint32_t count = 0;
};

/**
 * The scheduler's ready set: a bitmap over flat tids supporting the
 * cyclic lowest-next pick the block runner resumes fibers in. The
 * bitmap (rather than a FIFO) is what makes wake order irrelevant
 * under the default deterministic pick — resume order is always
 * flat-tid-sorted from the last resumed thread, matching the retired
 * round-robin pass order bit for bit. Debug builds assert both halves
 * of that claim: absorbed waiters are disjoint from the ready bits
 * (so insertion order cannot matter) and every pick is the cyclically
 * smallest ready tid (so extraction is sorted).
 */
class ReadySet
{
  public:
    /** Sentinel returned by nextFrom() when the set is empty. */
    static constexpr uint32_t kNone = UINT32_MAX;

    explicit ReadySet(uint32_t n)
        : bits_((n + 63) / 64, 0), n_(n)
    {
    }

    /** Size the set for @p n threads, all ready, reusing its words. */
    void
    resetAllReady(uint32_t n)
    {
        n_ = n;
        bits_.assign((n + 63) / 64, ~uint64_t{0});
        if (n % 64 != 0)
            bits_.back() = (uint64_t{1} << (n % 64)) - 1;
        count_ = n;
        debugCheckCount();
    }

    /** Number of ready threads. */
    uint32_t size() const { return count_; }

    bool empty() const { return count_ == 0; }

    /** Mark @p tid ready (idempotent). */
    void
    add(uint32_t tid)
    {
        uint64_t &word = bits_[tid >> 6];
        uint64_t mask = uint64_t{1} << (tid & 63);
        if (!(word & mask)) {
            word |= mask;
            ++count_;
        }
    }

    /**
     * OR the waiters of @p ws whose tids lie in [first, end) in (they
     * become ready) and clear them from @p ws. Waiters are parked,
     * hence disjoint from the ready bits. @return The number of
     * threads woken.
     */
    uint32_t
    absorb(WaitSet &ws, uint32_t first, uint32_t end)
    {
        if (ws.count == 0)
            return 0;
        uint32_t woken = 0;
        for (uint32_t i = first >> 6; i * 64 < end; ++i) {
            const uint64_t mask = ws.word(i, first, end);
#ifndef NDEBUG
            GPULP_ASSERT((bits_[i] & mask) == 0,
                         "waiter word %u overlaps the ready set: a "
                         "parked thread is already ready, so wake "
                         "order would matter",
                         i);
#endif
            bits_[i] |= mask;
            ws.bits[i] &= ~mask;
            woken += static_cast<uint32_t>(std::popcount(mask));
        }
        count_ += woken;
        ws.count -= woken;
        debugCheckCount();
        return woken;
    }

    /**
     * Remove and return the smallest ready tid >= @p from, wrapping
     * past the end; kNone when the set is empty. Pass 0 to start a
     * fresh scan. The fast path — a ready tid in the same word as
     * @p from — is inline; it covers nearly every pick of a cyclic
     * scan over a dense set.
     */
    uint32_t
    popNextFrom(uint32_t from)
    {
        if (from >= n_)
            from = 0;
#ifndef NDEBUG
        const uint32_t expect = debugFindNextFrom(from);
#endif
        uint32_t picked;
        uint64_t word =
            bits_[from >> 6] & (~uint64_t{0} << (from & 63));
        if (word != 0) {
            bits_[from >> 6] &= ~(word & -word);
            --count_;
            picked = (from & ~uint32_t{63}) +
                     static_cast<uint32_t>(std::countr_zero(word));
        } else {
            picked = popNextSlow(from);
        }
#ifndef NDEBUG
        GPULP_ASSERT(picked == expect,
                     "resume pick from tid %u chose %u, but the "
                     "cyclically smallest ready tid is %u: picks are "
                     "no longer flat-tid-sorted",
                     from, picked, expect);
#endif
        return picked;
    }

    /**
     * Copy the ready tids, ascending, into @p out (cleared first).
     * Analysis-path helper for policies that permute the pick.
     */
    void collect(std::vector<uint32_t> &out) const;

    /**
     * Remove a specific ready tid. @return false (and no change) when
     * @p tid was not ready. Analysis-path helper for replaying a
     * recorded schedule.
     */
    bool take(uint32_t tid);

  private:
    /** Wrapping word scan for the out-of-word case. */
    uint32_t popNextSlow(uint32_t from);

    /** Debug: count_ must equal the popcount of the bitmap. */
    void
    debugCheckCount() const
    {
#ifndef NDEBUG
        uint32_t bits = 0;
        for (uint64_t w : bits_)
            bits += static_cast<uint32_t>(std::popcount(w));
        GPULP_ASSERT(bits == count_,
                     "ready-set count %u disagrees with bitmap "
                     "popcount %u",
                     count_, bits);
#endif
    }

#ifndef NDEBUG
    /**
     * Debug reference: the cyclically smallest ready tid >= @p from,
     * computed by a plain non-destructive scan. popNextFrom() must
     * return exactly this — the flat-tid-sorted resume pick that makes
     * wake order irrelevant under DeterministicPolicy.
     */
    uint32_t debugFindNextFrom(uint32_t from) const;
#endif

    std::vector<uint64_t> bits_;
    uint32_t n_;
    uint32_t count_ = 0;
};

/**
 * Per-thread-block execution state shared by the block's ThreadCtx
 * instances: the block's and its warps' rendezvous, shared memory and
 * progress/deadlock accounting.
 *
 * One instance serves a whole sequence of blocks: reset() starts the
 * next one, reusing every buffer, so a block runner that keeps its
 * BlockState allocates nothing per block once the buffers have grown
 * to the largest block it ran.
 */
class BlockState
{
  public:
    /**
     * @param mem Device global memory (for crash-state queries only).
     * @param timing Timing model the blocks charge.
     * @param shared_bytes Shared-memory capacity of each block: the
     *        size of the arena, which is mapped once and whose pages
     *        become resident only when a block claims them.
     *
     * Call reset() before running a block.
     */
    BlockState(GlobalMemory &mem, MemTiming &timing, size_t shared_bytes);

    BlockState(const BlockState &) = delete;
    BlockState &operator=(const BlockState &) = delete;

    /**
     * Start a block: every thread ready, no rendezvous pending, no
     * shared slot claimed, no policy installed.
     *
     * @param nvm NVM model, or nullptr when persistency is not modelled.
     * @param block_idx This block's index in the grid.
     * @param cfg The launch configuration.
     * @param start Absolute cycle at which this block's SM started it.
     * @param gate The launch's rank gate, which serializes
     *        ordering-sensitive accesses in block-rank order.
     * @param rank This block's flat rank in the grid.
     * @param ordered Declared ordered regions, or nullptr.
     */
    void reset(NvmCache *nvm, Dim3 block_idx, const LaunchConfig &cfg,
               Cycles start, RankGate &gate, uint64_t rank,
               const OrderedRegions *ordered = nullptr);

    /** Number of threads in the block. */
    uint32_t numThreads() const { return num_threads_; }

    /** Number of warps in the block. */
    uint32_t numWarps() const { return num_warps_; }

    /** Timing parameters of the launch. */
    const TimingParams &params() const { return timing_.params(); }

    /** True once a thread of this block hit an injected crash. */
    bool crashed() const { return crashed_; }

    // Event-driven scheduling (the block runner's interface) ----------------

    /**
     * Install a resume-order policy for this block run (nullptr
     * restores the default deterministic pick). Not owned; must
     * outlive the run. The runner installs it before run().
     */
    void setSchedulePolicy(SchedulePolicy *policy) { policy_ = policy; }

    /** The installed policy, or nullptr on the default path. */
    SchedulePolicy *schedulePolicy() { return policy_; }

    /**
     * Run the block's threads to completion (or crash) on @p fibers,
     * where fibers[t] runs @p threads[t] (flat tid t) and its entry
     * returns exitThread() of it. Resumes the first ready fiber;
     * parking and exiting fibers hand off among themselves, so this
     * regains control only when no thread is ready. It then returns
     * if every thread exited, parks the worker on the rank gate if
     * every live thread waits there (and resumes from tid 0 once the
     * frontier reaches this rank or a crash latches), and otherwise
     * panics: the block deadlocked. Adds the resumes to
     * sim.fiber_switches.
     */
    void run(std::span<const std::unique_ptr<Fiber>> fibers,
             std::span<ThreadCtx> threads);

    /**
     * End a thread whose kernel returned, or unwound on an injected
     * crash (@p crashed), and pick the fiber to hand off to: what a
     * thread's fiber entry returns. A thread still waiting for the
     * block rendezvous it arrived at stays live, parked as a finished
     * thread; the pick that claims it retires it in place. Any other
     * thread retires now.
     * @return The next ready thread's fiber, or nullptr (back to
     *         run()) when none is ready.
     */
    Fiber *exitThread(ThreadCtx &thread, bool crashed);

    /**
     * Resolve or claim the shared-memory slot @p slot_id of @p bytes
     * bytes, returning its offset in the block's shared arena. All
     * threads naming the same slot get the same storage, mirroring a
     * __shared__ array declaration. The first claim in a block zeroes
     * the slot's bytes, so every block reads zeroed shared memory
     * whatever the previous block on the arena left there. A later
     * declaration may ask for at most the first one's bytes.
     */
    size_t sharedSlot(uint32_t slot_id, size_t bytes);

    /** Raw pointer into the shared arena. */
    char *sharedRaw(size_t offset) { return shared_.data() + offset; }

    // Rank-gate plumbing for the parallel engine ----------------------------

    /** This block's flat rank in the grid. */
    uint64_t rank() const { return rank_; }

    /**
     * Block until this block is the rank leader (every lower rank has
     * completed). First ordering-sensitive access of the block pays
     * this once; leadership is kept until the block completes. Parks
     * the calling fiber (@p tid) on the gate wait list while waiting;
     * throws SimCrash if a crash latches meanwhile. A thread that
     * arrives while others are parked on the gate parks behind them,
     * even if the frontier has meanwhile reached this rank: the gate
     * wake resumes them in tid order, so which thread leads never
     * depends on when the lower ranks finished.
     */
    void gateOrdering(uint32_t tid);

    /** True when @p addr must wait for rank leadership first. */
    bool
    mustOrder(Addr addr, size_t bytes) const
    {
        return !gate_leader_ && ordered_ != nullptr &&
               inOrderedRegion(addr, bytes);
    }

  private:
    /** True when [addr, addr+bytes) overlaps a declared ordered region. */
    bool
    inOrderedRegion(Addr addr, size_t bytes) const
    {
        for (const auto &[lo, hi] : *ordered_) {
            if (addr < hi && addr + bytes > lo)
                return true;
        }
        return false;
    }

    friend class ThreadCtx;

    /** Throw SimCrash if the NVM model has a pending injected crash. */
    void
    checkCrash() const
    {
        if (nvm_ && nvm_->crashPending())
            throw SimCrash{};
    }

    /**
     * Arrive at @p rv, after any deposit, and release it if @p t is the
     * last live participant to arrive. The releaser resumes at the
     * release cycle at once; any other arriver is left awaiting the
     * release (ThreadCtx::settle). Never parks.
     */
    void arrive(ThreadCtx &t, Rendezvous &rv, ReleaseFn release,
                uint64_t arg);

    /**
     * The wait rule's slow path: park @p t until the rendezvous it
     * arrived at releases, then check for a crash and move its cycle
     * counter to the release cycle.
     */
    void awaitRelease(ThreadCtx &t);

    /**
     * Release @p rv if all its live participants arrived, moving its
     * waiters back to the ready set. @p releaser is the arriving tid
     * whose arrival may complete it, or SchedulePolicy::kNoTid when
     * called from a thread's retirement.
     */
    void maybeRelease(Rendezvous &rv, uint32_t releaser);

    /**
     * A thread's exit bookkeeping: it leaves the block's and its warp's
     * live counts, and its departure may release either rendezvous.
     */
    void retire(ThreadCtx &thread);

    /** Sentinel "no thread" tid: the scan origin at block start and
     *  after a rank-gate wake. */
    static constexpr uint32_t kNoThread = ReadySet::kNone;

    /**
     * The block's one resume decision, taken by run() and by every
     * parking or exiting thread. On the default path it claims the
     * smallest ready tid strictly after @p last in cyclic flat-tid
     * order (kNoThread: from tid 0); with a policy installed the pick
     * is the policy's. It reports the pick to the policy. A claimed
     * finished thread is retired in place, doing what resuming it
     * would have done, and the pick repeats from it (retireFinished);
     * any other claim counts one resume. @return The claimed thread's
     * fiber, or nullptr when no thread is live or none is ready.
     */
    [[gnu::always_inline]] inline Fiber *claimNext(uint32_t last);

    /** claimNext's pick, reported to the policy. @return The picked
     *  tid, or kNoThread when no thread is live or none is ready. */
    [[gnu::always_inline]] inline uint32_t pickNext(uint32_t last);

    /**
     * claimNext's slow path, kept out of the parking path: retire the
     * picked finished thread @p t in place, and each finished thread
     * picked after it. @return The first other pick, or kNoThread.
     */
    [[gnu::noinline]] uint32_t retireFinished(uint32_t t);

    /** Hand the parked running thread @p tid's turn to the next ready
     *  fiber, or return to run() when none is ready. Returns at once
     *  if the pick is @p tid itself. */
    void suspend(uint32_t tid);

    /** Park the running fiber @p tid on @p waiters (event @p ev for
     *  the policy hook) and suspend it. */
    void parkOn(WaitSet &waiters, uint32_t tid, SchedEvent ev);

    /** Move the tids in [first, end) parked on @p waiters back to the
     *  ready set, reporting release of @p ev by @p releaser to the
     *  policy (if any). */
    void wake(WaitSet &waiters, uint32_t first, uint32_t end, SchedEvent ev,
              uint32_t releaser);

    GlobalMemory &mem_;
    MemTiming &timing_;
    NvmCache *nvm_ = nullptr;
    Dim3 block_idx_;
    LaunchConfig cfg_;
    Cycles start_ = 0;

    RankGate *gate_ = nullptr;
    uint64_t rank_ = 0;
    const OrderedRegions *ordered_ = nullptr;
    bool gate_leader_ = false;

    uint32_t num_threads_ = 0;
    uint32_t num_warps_ = 0;
    bool crashed_ = false;

    // The rendezvous: the block's, whose live count is the block's
    // threads not yet retired, and one per warp. They share the
    // deposit slots and the wait set.
    Rendezvous block_rv_;
    std::vector<Rendezvous> warp_rv_;
    BlockLanes lanes_;

    /** One claimed __shared__ declaration of the running block. */
    struct SharedSlot {
        uint32_t id;
        size_t offset;
        size_t bytes;
    };

    ZeroedBuffer shared_;
    size_t shared_next_ = 0;
    std::vector<SharedSlot> shared_slots_; //!< a block claims only a few

    // Scheduler state: threads are in exactly one place — running,
    // ready, on a wait list (rv_waiters_ / gate_waiters_), or exited. A
    // finished thread waits on rv_waiters_ and then in the ready set
    // like any other.
    ReadySet ready_;
    WaitSet rv_waiters_;
    WaitSet gate_waiters_;
    std::span<const std::unique_ptr<Fiber>> fibers_; //!< during run()
    std::span<ThreadCtx> threads_;                   //!< during run()
    uint64_t resumes_ = 0; //!< this run's resumes, for sim.fiber_switches

    // Analysis hooks: null on the production path (a single untaken
    // branch per decision point / access).
    SchedulePolicy *policy_ = nullptr;
    uint64_t gate_wake_epoch_ = 0;
};

/**
 * Typed view over a block's shared-memory slot; accesses charge
 * shared-memory cycles on the owning thread.
 */
template <typename T>
class SharedRef
{
  public:
    SharedRef() = default;
    SharedRef(ThreadCtx *thread, T *data, size_t count, uint32_t slot_id)
        : thread_(thread), data_(data), count_(count), slot_id_(slot_id)
    {
    }

    /** Number of elements. */
    size_t size() const { return count_; }

    /** Timed shared-memory load. */
    inline T get(size_t index) const;

    /** Timed shared-memory store. */
    inline void set(size_t index, T value);

    /** Timed shared-memory atomic add; returns the old value. */
    inline T atomicAdd(size_t index, T delta);

  private:
    ThreadCtx *thread_ = nullptr;
    T *data_ = nullptr;
    size_t count_ = 0;
    uint32_t slot_id_ = 0;
};

/**
 * The device API visible to kernel code — the simulator's analogue of
 * the CUDA intrinsics used by the paper's kernels.
 */
class ThreadCtx
{
  public:
    ThreadCtx(BlockState &block, Dim3 thread_idx, uint32_t flat_tid);

    // Identity ---------------------------------------------------------------

    /** threadIdx. */
    const Dim3 &threadIdx() const { return thread_idx_; }

    /** blockIdx. */
    const Dim3 &blockIdx() const { return block_.block_idx_; }

    /** blockDim. */
    const Dim3 &blockDim() const { return block_.cfg_.block; }

    /** gridDim. */
    const Dim3 &gridDim() const { return block_.cfg_.grid; }

    /** Flat thread index within the block (x fastest). */
    uint32_t flatThreadIdx() const { return flat_tid_; }

    /** Lane index within the warp [0, 32). */
    uint32_t laneId() const { return flat_tid_ % kWarpSize; }

    /** Warp index within the block. */
    uint32_t warpId() const { return flat_tid_ / kWarpSize; }

    /** Flat block rank within the grid (x fastest). */
    uint64_t
    blockRank() const
    {
        const Dim3 &b = block_.block_idx_;
        const Dim3 &g = block_.cfg_.grid;
        return (static_cast<uint64_t>(b.z) * g.y + b.y) * g.x + b.x;
    }

    /** Flat global thread id. */
    uint64_t
    globalThreadIdx() const
    {
        return blockRank() * block_.num_threads_ + flat_tid_;
    }

    // Timing -----------------------------------------------------------------

    /** Charge @p ops scalar ALU operations. */
    void
    compute(uint64_t ops)
    {
        settle();
        cycles_ += ops * block_.timing_.params().compute_cycles;
    }

    /** Stall this thread for @p cycles raw cycles (dependent latency). */
    void
    stall(Cycles cycles)
    {
        settle();
        cycles_ += cycles;
    }

    /** This thread's absolute cycle counter. */
    Cycles
    now()
    {
        settle();
        return cycles_;
    }

    /**
     * The cycle a retired thread ended at, for the block runner once
     * the block ran. Never waits, so host code cannot reach the park
     * path; kernels read now().
     */
    Cycles
    endCycle() const
    {
        GPULP_ASSERT(exited_ && awaiting_ == nullptr,
                     "end cycle of tid %u read before it retired", flat_tid_);
        return cycles_;
    }

    /** Timing parameters of the launch. */
    const TimingParams &
    params() const
    {
        return block_.timing_.params();
    }

    /** Number of warps in this block. */
    uint32_t numWarps() const { return block_.num_warps_; }

    /** Lanes of this thread's warp that have not exited the kernel. */
    uint32_t
    warpLiveLanes()
    {
        settle();
        return block_.warp_rv_[warpId()].live;
    }

    // Global memory ----------------------------------------------------------

    /** Timed, observed global load at a raw device address. */
    template <typename T>
    T
    loadAddr(Addr addr)
    {
        enterOp();
        if (block_.mustOrder(addr, sizeof(T)))
            block_.gateOrdering(flat_tid_);
        if (block_.policy_ != nullptr)
            block_.policy_->onGlobalAccess(flat_tid_, addr, sizeof(T),
                                           AccessKind::Load);
        cycles_ += block_.timing_.onGlobalLoad(sizeof(T));
        return block_.mem_.read<T>(addr);
    }

    /** Timed, observed global store at a raw device address. */
    template <typename T>
    void
    storeAddr(Addr addr, T value)
    {
        enterOp();
        if (block_.mustOrder(addr, sizeof(T)))
            block_.gateOrdering(flat_tid_);
        if (block_.policy_ != nullptr)
            block_.policy_->onGlobalAccess(flat_tid_, addr, sizeof(T),
                                           AccessKind::Store);
        cycles_ += block_.timing_.onGlobalStore(sizeof(T));
        block_.mem_.write<T>(addr, value);
    }

    /** Timed, observed element load through an ArrayRef. */
    template <typename T>
    T
    load(const ArrayRef<T> &array, size_t index)
    {
        return loadAddr<T>(array.addrOf(index));
    }

    /** Timed, observed element store through an ArrayRef. */
    template <typename T>
    void
    store(ArrayRef<T> &array, size_t index, T value)
    {
        storeAddr<T>(array.addrOf(index), value);
    }

    // Atomics ----------------------------------------------------------------

    /**
     * atomicCAS on a 32-bit word: if *addr == compare, *addr = value.
     * Serializes on the address. @return the old value.
     */
    uint32_t atomicCAS(Addr addr, uint32_t compare, uint32_t value);

    /** atomicCAS on a 64-bit word. */
    uint64_t atomicCAS64(Addr addr, uint64_t compare, uint64_t value);

    /** atomicExch on a 32-bit word; returns the old value. */
    uint32_t atomicExch(Addr addr, uint32_t value);

    /** atomicExch on a 64-bit word; returns the old value. */
    uint64_t atomicExch64(Addr addr, uint64_t value);

    /** atomicAdd on a 32-bit word; returns the old value. */
    uint32_t atomicAdd(Addr addr, uint32_t delta);

    /** atomicAdd on a float; returns the old value. */
    float atomicAddF(Addr addr, float delta);

    /** atomicMax on a 32-bit word; returns the old value. */
    uint32_t atomicMax(Addr addr, uint32_t value);

    /**
     * Write back (without evicting) the cache line holding @p addr —
     * CUDA has no clwb today (the paper notes EP is not implementable
     * on current GPUs); this models the instruction EP would need.
     * The write-back completes asynchronously; persistBarrier() waits.
     */
    void clwb(Addr addr);

    /**
     * Persist barrier (sfence): stall until every clwb this thread
     * issued has reached the NVM device.
     */
    void persistBarrier();

    /**
     * Spin-lock acquire on a lock word, with the queueing delay of all
     * earlier contenders charged to this thread. Pair with
     * lockRelease() — the release extends the word's serialization
     * window so entire critical sections serialize across blocks.
     */
    void lockAcquire(Addr addr);

    /** Spin-lock release; see lockAcquire(). */
    void lockRelease(Addr addr);

    // Shared memory ----------------------------------------------------------

    /**
     * Resolve the block-level shared array for @p slot_id (a stable
     * small integer naming the __shared__ declaration) of @p count
     * elements. Every thread of the block naming the same slot sees
     * the same storage.
     */
    template <typename T>
    SharedRef<T>
    sharedArray(uint32_t slot_id, size_t count)
    {
        settle();
        size_t off = block_.sharedSlot(slot_id, count * sizeof(T));
        return SharedRef<T>(this,
                            reinterpret_cast<T *>(block_.sharedRaw(off)),
                            count, slot_id);
    }

    // Collectives ------------------------------------------------------------

    /**
     * __syncthreads(): block-wide barrier; every thread resumes at the
     * latest arrival plus barrier_cycles. A block rendezvous, so the
     * thread waits at its next device operation, not here (see
     * blockArrive() for what the code in between may not do).
     */
    void syncthreads();

    /**
     * Arrive at the block rendezvous with @p value. The last live
     * thread to arrive runs @p release once over every deposit; it
     * sets the cycle all threads resume at and may leave a result in
     * a thread's slot. An arrival never parks: the thread waits for the
     * release at its next device operation, or, if its kernel returns
     * first, as a finished thread. All live threads must arrive with
     * the same @p release and @p arg. Counts no counter.
     *
     * Host code between the arrival and the thread's next device
     * operation runs before the other threads' code before the
     * rendezvous, and also in a launch that crashes there. It must not
     * exchange host-side state with other threads of the block.
     */
    void blockArrive(uint64_t value, ReleaseFn release, uint64_t arg);

    /**
     * Wait for the rendezvous this thread last arrived at and return
     * what its release left in this thread's slot (its own deposit,
     * unless the release overwrote it).
     */
    uint64_t blockResult();

    /**
     * __shfl_down_sync over the full warp: returns the value deposited
     * by lane (laneId()+delta), or this thread's own @p value when that
     * lane is out of range or did not deposit. All live lanes of the
     * warp must call it. A warp rendezvous whose result the thread
     * waits for at once: every lane resumes one shuffle after the
     * warp's latest arrival.
     */
    uint32_t shflDown(uint32_t value, uint32_t delta);

    /** shflDown for signed int. */
    int32_t shflDownI(int32_t value, uint32_t delta);

    /** shflDown for float. */
    float shflDownF(float value, uint32_t delta);

    /** shflDown for uint64_t. */
    uint64_t shflDown64(uint64_t value, uint32_t delta);

  private:
    friend class BlockState;
    template <typename U>
    friend class SharedRef;

    /**
     * The wait rule: a thread that arrived at a rendezvous which had
     * not released when it left waits for the release here, at the
     * first device operation after the arrival. Every entry point
     * through which a kernel can observe state or its cycle counter
     * settles first.
     */
    void
    settle()
    {
        if (awaiting_ != nullptr) [[unlikely]]
            block_.awaitRelease(*this);
    }

    /**
     * The prologue of a device operation that can fault: the wait rule,
     * then the crash check (a latched crash unwinds the fiber).
     */
    void
    enterOp()
    {
        settle();
        block_.checkCrash();
    }

    /**
     * Deposit @p value in this thread's slot and arrive at @p rv, whose
     * last arrival runs @p release with @p arg.
     */
    void deposit(Rendezvous &rv, uint64_t value, ReleaseFn release,
                 uint64_t arg);

    /** Common implementation for all shuffle widths (64-bit payload). */
    uint64_t shflDownRaw(uint64_t value, uint32_t delta);

    /** Timing parameters of the launch (for SharedRef's charges). */
    const TimingParams &
    timingParams() const
    {
        return block_.timing_.params();
    }

    /**
     * The prologue of a SharedRef access: the wait rule, then the
     * policy's access hook. Both sit behind one test so that, once
     * neither applies, the compiler keeps a shared-memory loop free of
     * calls, with the cycle counter in a register. A second test
     * guarding a second call defeats that (a loop of shared loads then
     * takes about 3x as long).
     */
    void
    enterSharedOp(uint32_t slot, uint32_t offset, uint32_t bytes,
                  AccessKind kind)
    {
        const bool slow =
            (awaiting_ != nullptr) | (block_.policy_ != nullptr);
        if (slow) [[unlikely]] {
            settle();
            if (block_.policy_ != nullptr)
                block_.policy_->onSharedAccess(flat_tid_, slot, offset,
                                               bytes, kind);
        }
    }

    /** Policy hook relay for out-of-line atomic paths (exec.cc). */
    void
    noteAtomic(Addr addr, uint32_t bytes)
    {
        if (block_.policy_ != nullptr)
            block_.policy_->onGlobalAccess(flat_tid_, addr, bytes,
                                           AccessKind::AtomicRmw);
    }

    /** Functional+timed read-modify-write helper for 32-bit atomics. */
    template <typename Op>
    uint32_t
    rmw32(Addr addr, Op &&op)
    {
        enterOp();
        block_.gateOrdering(flat_tid_);
        noteAtomic(addr, 4);
        uint32_t old, next;
        {
            // Host-atomic RMW: relevant only in relaxed-order mode,
            // where concurrent blocks may race on one word.
            std::lock_guard<std::mutex> lk(block_.mem_.rmwMutex(addr));
            old = block_.mem_.read<uint32_t>(addr);
            next = op(old);
            if (next != old)
                block_.mem_.write<uint32_t>(addr, next);
        }
        cycles_ = block_.timing_.onAtomic(addr, cycles_, flat_tid_);
        return old;
    }

    BlockState &block_;
    Dim3 thread_idx_;
    uint32_t flat_tid_;
    Cycles cycles_;
    Rendezvous *awaiting_ = nullptr; //!< arrived at, not yet released
    uint32_t outstanding_flushes_ = 0;
    bool finished_ = false; //!< kernel returned while awaiting
    bool exited_ = false;
};

template <typename T>
inline T
SharedRef<T>::get(size_t index) const
{
    GPULP_ASSERT(index < count_, "shared load index %zu out of %zu", index,
                 count_);
    thread_->enterSharedOp(slot_id_,
                           static_cast<uint32_t>(index * sizeof(T)),
                           sizeof(T), AccessKind::Load);
    thread_->cycles_ += thread_->timingParams().shared_access_cycles;
    return data_[index];
}

template <typename T>
inline void
SharedRef<T>::set(size_t index, T value)
{
    GPULP_ASSERT(index < count_, "shared store index %zu out of %zu", index,
                 count_);
    thread_->enterSharedOp(slot_id_,
                           static_cast<uint32_t>(index * sizeof(T)),
                           sizeof(T), AccessKind::Store);
    thread_->cycles_ += thread_->timingParams().shared_access_cycles;
    data_[index] = value;
}

template <typename T>
inline T
SharedRef<T>::atomicAdd(size_t index, T delta)
{
    GPULP_ASSERT(index < count_, "shared atomic index %zu out of %zu", index,
                 count_);
    thread_->enterSharedOp(slot_id_,
                           static_cast<uint32_t>(index * sizeof(T)),
                           sizeof(T), AccessKind::AtomicRmw);
    // Shared atomics are fast and bank-arbitrated; charge a small
    // constant on top of the access itself.
    thread_->cycles_ += thread_->timingParams().shared_access_cycles + 2;
    T old = data_[index];
    data_[index] = old + delta;
    return old;
}

} // namespace gpulp

#endif // GPULP_SIM_EXEC_H
