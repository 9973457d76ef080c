/**
 * @file
 * SIMT execution state: per-warp collective state, per-block state
 * (barrier, shared memory) and the ThreadCtx device API that kernels
 * program against.
 *
 * Execution model: every thread of a block runs on its own fiber,
 * scheduled event-driven. Fibers suspend at exactly three places, the
 * points where SIMT hardware requires convergence or ordering:
 *
 *  - __syncthreads(), once per barrier;
 *  - a warp collective (ThreadCtx::warpCollective), once per
 *    collective. A single shfl_down is one collective, and so is a
 *    whole shuffle-tree reduction: every lane deposits once, the last
 *    arriver computes all lanes' results and cycles, and each parked
 *    lane wakes once, however many shuffle steps the tree models;
 *  - the rank gate, before a block's first ordering-sensitive access.
 *
 * A fiber suspends by parking on a wait list keyed to the event that
 * will satisfy it (barrier generation, per-warp collective
 * generation, rank-gate frontier).
 * Releasing the event moves its waiters back to the ready set; a
 * parked fiber is never resumed just to re-poll. The runner resumes
 * ready fibers in cyclic flat-tid order, which reproduces the retired
 * poll-everything loop's interleaving exactly (minus the no-op
 * resumes), so results stay bit-identical at any worker count. All
 * other device operations are non-blocking and charge the thread's
 * cycle counter.
 *
 * Timing: each thread carries an absolute cycle counter (its block's
 * start cycle plus its own progress). Collectives align counters to
 * the max participant; atomics serialize through MemTiming's
 * per-address table; loads/stores accumulate roofline traffic.
 */

#ifndef GPULP_SIM_EXEC_H
#define GPULP_SIM_EXEC_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/zeroed_buffer.h"
#include "mem/memory.h"
#include "mem/timing.h"
#include "nvm/nvm_cache.h"
#include "sim/sched_policy.h"
#include "sim/thread_pool.h"
#include "sim/types.h"

namespace gpulp {

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

/**
 * The lane slots of one warp collective, as its release function sees
 * them. Each live lane deposits its value and cycle counter in its own
 * slot; the release function overwrites every depositing lane's slot
 * with that lane's result and resume cycle. A lane reads only its own
 * slot, and deposits again only after reading it, so one pair of
 * arrays serves both directions.
 */
struct WarpLanes {
    uint32_t deposited = 0; //!< bitmask of lanes that deposited
    uint64_t arg = 0;       //!< the collective's argument (e.g. delta)
    std::array<uint64_t, kWarpSize> value{}; //!< deposit in, result out
    std::array<Cycles, kWarpSize> cycles{};  //!< arrival in, resume out

    /** Latest cycle counter over the depositing lanes. */
    Cycles
    maxCycle() const
    {
        Cycles m = 0;
        for (uint32_t bits = deposited; bits != 0; bits &= bits - 1)
            m = std::max(m, cycles[std::countr_zero(bits)]);
        return m;
    }
};

/**
 * A warp collective's release function: run once, by the last lane to
 * arrive, over every lane's deposit. It must write the result and the
 * resume cycle of every depositing lane.
 */
using WarpReleaseFn = void (*)(WarpLanes &lanes, const TimingParams &params);

/** Collective-exchange state for one warp. */
struct WarpState {
    uint32_t live = 0;           //!< lanes that have not exited
    uint32_t arrived = 0;        //!< lanes at the current collective
    uint64_t generation = 0;     //!< bumps when a collective releases
    WarpReleaseFn release = nullptr; //!< the current collective's release
    WarpLanes slots;             //!< per-lane deposits and results

    /**
     * Flat tids parked on this round, as bits positioned within the
     * ready-set word the warp's tids live in. A warp spans 32
     * consecutive tids, so (64 % kWarpSize == 0) guarantees they all
     * fall inside one 64-bit word — waking the warp is a single OR.
     */
    uint64_t wait_mask = 0;
};

/**
 * Flat tids parked on one event (block barrier, rank gate), stored as
 * a bitmap so waking the whole list is a word-wise OR into the ready
 * set instead of a per-thread walk.
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
     * OR an entire wait set in (its threads become ready) and clear
     * it. Waiters are parked, hence disjoint from the ready bits.
     * @return The number of threads woken.
     */
    uint32_t
    absorb(WaitSet &ws)
    {
        uint32_t woken = ws.count;
        if (woken == 0)
            return 0;
        for (size_t i = 0; i < bits_.size(); ++i) {
#ifndef NDEBUG
            GPULP_ASSERT((bits_[i] & ws.bits[i]) == 0,
                         "waiter word %zu overlaps the ready set: a "
                         "parked thread is already ready, so wake "
                         "order would matter",
                         i);
#endif
            bits_[i] |= ws.bits[i];
            ws.bits[i] = 0;
        }
        count_ += woken;
        ws.count = 0;
        debugCheckCount();
        return woken;
    }

    /**
     * OR @p mask into word @p word_idx (a warp's wait mask, already in
     * word coordinates). @return The number of threads woken.
     */
    uint32_t
    absorbWord(size_t word_idx, uint64_t mask)
    {
#ifndef NDEBUG
        GPULP_ASSERT((bits_[word_idx] & mask) == 0,
                     "warp wait mask overlaps the ready set");
#endif
        uint32_t woken =
            static_cast<uint32_t>(std::popcount(mask));
        bits_[word_idx] |= mask;
        count_ += woken;
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
 * instances: the barrier, warp collective slots, shared memory and
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
     * Start a block: every thread ready, no collective pending, no
     * shared slot claimed, no policy installed.
     *
     * @param nvm NVM model, or nullptr when persistency is not modelled.
     * @param block_idx This block's index in the grid.
     * @param cfg The launch configuration.
     * @param start Absolute cycle at which this block's SM started it.
     * @param gate Rank gate serializing ordering-sensitive accesses, or
     *        nullptr to run ungated (single worker / relaxed order).
     * @param rank This block's flat rank in the grid.
     * @param ordered Declared ordered regions, or nullptr.
     */
    void reset(NvmCache *nvm, Dim3 block_idx, const LaunchConfig &cfg,
               Cycles start, RankGate *gate = nullptr, uint64_t rank = 0,
               const OrderedRegions *ordered = nullptr);

    /** Number of threads in the block. */
    uint32_t numThreads() const { return num_threads_; }

    /** Number of warps in the block. */
    uint32_t numWarps() const { return num_warps_; }

    /** Threads that have not yet returned from the kernel. */
    uint32_t liveThreads() const { return live_; }

    /** Called by the runner when a thread's fiber finishes. */
    void onThreadExit(ThreadCtx &thread);

    // Event-driven scheduling (the block runner's interface) ----------------

    /**
     * Install a resume-order policy for this block run (nullptr
     * restores the default deterministic pick). Not owned; must
     * outlive the run. The runner installs it before the first
     * popReady().
     */
    void setSchedulePolicy(SchedulePolicy *policy) { policy_ = policy; }

    /** The installed policy, or nullptr on the default path. */
    SchedulePolicy *schedulePolicy() { return policy_; }

    /**
     * Claim the next thread to resume. On the default path: the
     * smallest ready tid strictly after @p last in cyclic flat-tid
     * order (pass kNoThread to start from tid 0), removed from the
     * ready set. With a policy installed the pick is delegated to it.
     * Returns kNoThread when no thread is ready — then either
     * gateParkedThreads() > 0 (the block waits on lower ranks) or the
     * block is deadlocked.
     */
    uint32_t
    popReady(uint32_t last)
    {
        if (policy_ != nullptr)
            return policy_->pick(ready_, last);
        return ready_.popNextFrom(last == kNoThread ? 0 : last + 1);
    }

    /** Sentinel tid for popReady(). */
    static constexpr uint32_t kNoThread = ReadySet::kNone;

    /** Threads parked on the rank gate (waiting for lower ranks). */
    uint32_t gateParkedThreads() const { return gate_waiters_.count; }

    /**
     * Move every gate-parked thread back to the ready set. The runner
     * calls this after RankGate::awaitLeader returns — on leadership
     * the woken fibers proceed; on crash-abort they observe the latch
     * and unwind via SimCrash. The wake is the runner's doing, not any
     * thread's arrival, so the release event carries no releaser tid.
     */
    void
    wakeGateParked()
    {
        wake(gate_waiters_,
             SchedEvent{SchedEventKind::RankGate, gate_wake_epoch_++},
             SchedulePolicy::kNoTid);
    }

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

    /** The launch's rank gate, or nullptr when ungated. */
    RankGate *gate() { return gate_; }

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
        return gate_ != nullptr && !gate_leader_ && ordered_ != nullptr &&
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
     * Release the block barrier if all live threads arrived, moving
     * its waiters back to the ready set. @p releaser is the arriving
     * tid whose arrival may complete the barrier, or
     * SchedulePolicy::kNoTid when called from a thread exit.
     */
    void maybeReleaseBarrier(uint32_t releaser);

    /**
     * Release warp @p w's collective if all its live lanes arrived:
     * run its release function, then move its waiters back to the
     * ready set. @p releaser as for maybeReleaseBarrier().
     */
    void maybeReleaseWarp(WarpState &w, uint32_t releaser);

    /** Park the running fiber @p tid on @p waiters (event @p ev for
     *  the policy hook) and yield. */
    void parkOn(WaitSet &waiters, uint32_t tid, SchedEvent ev);

    /** Park the running fiber @p tid on warp @p w's collective and
     *  yield. */
    void parkOnWarp(WarpState &w, uint32_t tid);

    /** Move every tid on @p waiters back to the ready set, reporting
     *  release of @p ev by @p releaser to the policy (if any). */
    void wake(WaitSet &waiters, SchedEvent ev, uint32_t releaser);

    /** Move warp @p w's parked lanes back to the ready set. */
    void wakeWarp(WarpState &w, SchedEvent ev, uint32_t releaser);

    /** SchedEvent for the current (pre-increment) barrier generation. */
    SchedEvent
    barrierEvent() const
    {
        return SchedEvent{SchedEventKind::Barrier, bar_generation_};
    }

    /** SchedEvent for warp @p warp_idx's current collective. */
    SchedEvent
    warpEvent(uint32_t warp_idx) const
    {
        return SchedEvent{SchedEventKind::WarpCollective,
                          (uint64_t{warp_idx} << 32) |
                              (warps_[warp_idx].generation & 0xffffffffu)};
    }

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
    uint32_t live_ = 0;

    // Block-wide barrier (generation scheme).
    uint32_t bar_arrived_ = 0;
    uint64_t bar_generation_ = 0;
    Cycles bar_max_arrival_ = 0;
    Cycles bar_release_cycle_ = 0;

    std::vector<WarpState> warps_;

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
    // ready, on a wait list (bar_waiters_ / warp.waiters /
    // gate_waiters_), or exited.
    ReadySet ready_;
    WaitSet bar_waiters_;
    WaitSet gate_waiters_;

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
        cycles_ += ops * block_.timing_.params().compute_cycles;
    }

    /** Stall this thread for @p cycles raw cycles (dependent latency). */
    void stall(Cycles cycles) { cycles_ += cycles; }

    /** This thread's absolute cycle counter. */
    Cycles now() const { return cycles_; }

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
    warpLiveLanes() const
    {
        return block_.warps_[warpId()].live;
    }

    // Global memory ----------------------------------------------------------

    /** Timed, observed global load at a raw device address. */
    template <typename T>
    T
    loadAddr(Addr addr)
    {
        block_.checkCrash();
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
        block_.checkCrash();
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
        size_t off = block_.sharedSlot(slot_id, count * sizeof(T));
        return SharedRef<T>(this,
                            reinterpret_cast<T *>(block_.sharedRaw(off)),
                            count, slot_id);
    }

    // Collectives ------------------------------------------------------------

    /** __syncthreads(): block-wide barrier; aligns cycle counters. */
    void syncthreads();

    /**
     * __shfl_down_sync over the full warp: returns the value deposited
     * by lane (laneId()+delta), or this thread's own @p value when that
     * lane is out of range. All live lanes of the warp must call it.
     */
    uint32_t shflDown(uint32_t value, uint32_t delta);

    /** shflDown for signed int. */
    int32_t shflDownI(int32_t value, uint32_t delta);

    /** shflDown for float. */
    float shflDownF(float value, uint32_t delta);

    /** shflDown for uint64_t. */
    uint64_t shflDown64(uint64_t value, uint32_t delta);

    /**
     * One warp-wide collective: deposit @p value, wait for every live
     * lane of the warp, and return this lane's result. The last lane
     * to arrive runs @p release once over all deposits; it sets every
     * lane's result and new cycle counter. Each lane parks at most
     * once. All live lanes must call it with the same @p release and
     * @p arg. @p shuffle_steps is the number of per-lane shuffle steps
     * the collective models, counted in sim.shuffles.
     */
    uint64_t warpCollective(uint64_t value, WarpReleaseFn release,
                            uint64_t arg, uint32_t shuffle_steps);

  private:
    friend class BlockState;
    template <typename U>
    friend class SharedRef;

    /** Common implementation for all shuffle widths (64-bit payload). */
    uint64_t shflDownRaw(uint64_t value, uint32_t delta);

    /** Timing parameters of the launch (for SharedRef's charges). */
    const TimingParams &
    timingParams() const
    {
        return block_.timing_.params();
    }

    /** Policy hook relay for SharedRef accesses. */
    void
    noteSharedAccess(uint32_t slot, uint32_t offset, uint32_t bytes,
                     AccessKind kind)
    {
        if (block_.policy_ != nullptr)
            block_.policy_->onSharedAccess(flat_tid_, slot, offset, bytes,
                                           kind);
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
        block_.checkCrash();
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
    uint32_t outstanding_flushes_ = 0;
    bool exited_ = false;
};

template <typename T>
inline T
SharedRef<T>::get(size_t index) const
{
    GPULP_ASSERT(index < count_, "shared load index %zu out of %zu", index,
                 count_);
    thread_->noteSharedAccess(slot_id_,
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
    thread_->noteSharedAccess(slot_id_,
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
    thread_->noteSharedAccess(slot_id_,
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
