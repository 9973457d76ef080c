#include "exec.h"

#include <algorithm>
#include <cstring>

#include "common/floatbits.h"
#include "fiber/fiber.h"
#include "obs/counters.h"

namespace gpulp {

// ---------------------------------------------------------------------
// ReadySet
// ---------------------------------------------------------------------

void
ReadySet::collect(std::vector<uint32_t> &out) const
{
    out.clear();
    for (size_t w = 0; w < bits_.size(); ++w) {
        uint64_t word = bits_[w];
        while (word != 0) {
            out.push_back(static_cast<uint32_t>(
                w * 64 + static_cast<size_t>(std::countr_zero(word))));
            word &= word - 1;
        }
    }
}

bool
ReadySet::take(uint32_t tid)
{
    if (tid >= n_)
        return false;
    uint64_t &word = bits_[tid >> 6];
    uint64_t mask = uint64_t{1} << (tid & 63);
    if (!(word & mask))
        return false;
    word &= ~mask;
    --count_;
    return true;
}

#ifndef NDEBUG
uint32_t
ReadySet::debugFindNextFrom(uint32_t from) const
{
    if (count_ == 0)
        return kNone;
    for (uint32_t i = 0; i < n_; ++i) {
        uint32_t tid = (from + i) % n_;
        if (bits_[tid >> 6] & (uint64_t{1} << (tid & 63)))
            return tid;
    }
    return kNone;
}
#endif

uint32_t
ReadySet::popNextSlow(uint32_t from)
{
    if (count_ == 0)
        return kNone;
    // The caller already cleared the word holding `from` at/above the
    // bit. Scan the later words, wrap to the earlier ones, and finish
    // with the below-the-bit remainder of the starting word.
    size_t start_word = from >> 6;
    size_t words = bits_.size();
    size_t w = start_word + 1;
    for (; w < words; ++w)
        if (bits_[w] != 0)
            break;
    if (w == words) {
        for (w = 0; w < start_word; ++w)
            if (bits_[w] != 0)
                break;
    }
    uint64_t word = bits_[w];
    if (w == start_word)
        word &= (uint64_t{1} << (from & 63)) - 1;
    if (word == 0)
        GPULP_PANIC("ReadySet count %u but no bit set", count_);
    bits_[w] &= ~(word & -word);
    --count_;
    return static_cast<uint32_t>(
        w * 64 + static_cast<size_t>(std::countr_zero(word)));
}

// ---------------------------------------------------------------------
// BlockState
// ---------------------------------------------------------------------

BlockState::BlockState(GlobalMemory &mem, MemTiming &timing,
                       size_t shared_bytes)
    : mem_(mem), timing_(timing), shared_(shared_bytes), ready_(0),
      rv_waiters_(0), gate_waiters_(0)
{
}

void
BlockState::reset(NvmCache *nvm, Dim3 block_idx, const LaunchConfig &cfg,
                  Cycles start, RankGate &gate, uint64_t rank,
                  const OrderedRegions *ordered)
{
    nvm_ = nvm;
    block_idx_ = block_idx;
    cfg_ = cfg;
    start_ = start;
    gate_ = &gate;
    rank_ = rank;
    ordered_ = ordered != nullptr && !ordered->empty() ? ordered : nullptr;
    gate_leader_ = false;
    num_threads_ = cfg.threadsPerBlock();
    num_warps_ = (num_threads_ + kWarpSize - 1) / kWarpSize;
    crashed_ = false;

    block_rv_ = Rendezvous(0, 0, num_threads_);
    warp_rv_.clear();
    for (uint32_t w = 0; w < num_warps_; ++w) {
        const uint32_t first = w * kWarpSize;
        warp_rv_.emplace_back(1 + w, first,
                              std::min(kWarpSize, num_threads_ - first));
    }
    lanes_.lanes.assign(num_warps_, 0);
    lanes_.value.resize(num_threads_);
    lanes_.cycles.resize(num_threads_);

    // Claims zero their own bytes; nothing else of the arena is visible.
    shared_next_ = 0;
    shared_slots_.clear();

    // Every thread starts ready.
    ready_.resetAllReady(num_threads_);
    rv_waiters_.reset(num_threads_);
    gate_waiters_.reset(num_threads_);

    policy_ = nullptr;
    gate_wake_epoch_ = 0;
}

namespace {

/** Expand the waiters in [first, end) into flat tids for the policy's
 *  release hook. */
void
collectWaiters(const WaitSet &waiters, uint32_t first, uint32_t end,
               std::vector<uint32_t> &out)
{
    out.clear();
    for (uint32_t i = first >> 6; i * 64 < end; ++i) {
        for (uint64_t word = waiters.word(i, first, end); word != 0;
             word &= word - 1)
            out.push_back(i * 64 +
                          static_cast<uint32_t>(std::countr_zero(word)));
    }
}

} // namespace

uint32_t
BlockState::pickNext(uint32_t last)
{
    if (block_rv_.live == 0)
        return kNoThread;
    const uint32_t t =
        policy_ != nullptr
            ? policy_->pick(ready_, last)
            : ready_.popNextFrom(last == kNoThread ? 0 : last + 1);
    if (t != kNoThread && policy_ != nullptr)
        policy_->onResume(t);
    return t;
}

Fiber *
BlockState::claimNext(uint32_t last)
{
    uint32_t t = pickNext(last);
    if (t != kNoThread && threads_[t].finished_) [[unlikely]]
        t = retireFinished(t);
    if (t == kNoThread)
        return nullptr;
    ++resumes_;
    return fibers_[t].get();
}

uint32_t
BlockState::retireFinished(uint32_t t)
{
    do {
        // Its fiber has nothing left to run: do in place what resuming
        // it would have done, in the same order. The woken thread's
        // crash check would unwind it before it took the release cycle.
        ThreadCtx &thread = threads_[t];
        const Rendezvous &rv = *thread.awaiting_;
        thread.awaiting_ = nullptr;
        if (nvm_ != nullptr && nvm_->crashPending())
            crashed_ = true;
        else
            thread.cycles_ = rv.release_cycle;
        retire(thread);
        t = pickNext(t);
    } while (t != kNoThread && threads_[t].finished_);
    return t;
}

void
BlockState::run(std::span<const std::unique_ptr<Fiber>> fibers,
                std::span<ThreadCtx> threads)
{
    GPULP_ASSERT(fibers.size() >= num_threads_ &&
                     threads.size() == num_threads_,
                 "%zu fibers and %zu thread contexts for %u threads",
                 fibers.size(), threads.size(), num_threads_);
    fibers_ = fibers;
    threads_ = threads;
    resumes_ = 0;
    for (;;) {
        if (Fiber *first = claimNext(kNoThread))
            first->resume();
        if (block_rv_.live == 0)
            break;
        if (gate_waiters_.empty())
            GPULP_PANIC("thread block (%u,%u,%u) deadlocked: %u threads "
                        "waiting on a collective that cannot release",
                        block_idx_.x, block_idx_.y, block_idx_.z,
                        block_rv_.live);
        // Every live thread waits for lower ranks. Once this rank leads
        // the woken threads proceed; on a crash abort they observe the
        // latch and unwind via SimCrash. The wake is the runner's
        // doing, not an arrival, so it names no releaser. The retired
        // poll loop restarted its pass at tid 0 after a gate wake; the
        // next claim keeps that scan origin so resume order — and
        // therefore every result — is unchanged.
        gate_->awaitLeader(rank_, [this] {
            return nvm_ != nullptr && nvm_->crashPending();
        });
        wake(gate_waiters_, 0, num_threads_,
             SchedEvent{SchedEventKind::RankGate, gate_wake_epoch_++},
             SchedulePolicy::kNoTid);
    }
    fibers_ = {};
    threads_ = {};
    obs::add(obs::Ctr::SimFiberSwitches, resumes_);
}

void
BlockState::suspend(uint32_t tid)
{
    Fiber *next = claimNext(tid);
    // Retiring a finished thread in the pick may release the
    // rendezvous tid parked on; tid is then the pick and runs on.
    if (next == fibers_[tid].get())
        return;
    if (next != nullptr)
        Fiber::switchTo(*next);
    else
        Fiber::yield();
}

void
BlockState::parkOn(WaitSet &waiters, uint32_t tid, SchedEvent ev)
{
    if (policy_ != nullptr)
        policy_->onPark(tid, ev);
    waiters.park(tid);
    suspend(tid);
}

void
BlockState::wake(WaitSet &waiters, uint32_t first, uint32_t end,
                 SchedEvent ev, uint32_t releaser)
{
    if (policy_ != nullptr) {
        std::vector<uint32_t> woken_tids;
        collectWaiters(waiters, first, end, woken_tids);
        if (!woken_tids.empty())
            policy_->onRelease(ev, woken_tids.data(),
                               static_cast<uint32_t>(woken_tids.size()),
                               releaser);
    }
    uint32_t woken = ready_.absorb(waiters, first, end);
    if (woken > 0)
        obs::add(obs::Ctr::SimFiberWakeups, woken);
}

Fiber *
BlockState::exitThread(ThreadCtx &thread, bool crashed)
{
    crashed_ = crashed_ || crashed;
    if (thread.awaiting_) {
        // Parked where it arrived would have left it: on the
        // rendezvous wait list, live, until a pick retires it.
        thread.finished_ = true;
        if (policy_ != nullptr)
            policy_->onPark(thread.flat_tid_, thread.awaiting_->event());
        rv_waiters_.park(thread.flat_tid_);
    } else {
        retire(thread);
    }
    return claimNext(thread.flat_tid_);
}

void
BlockState::retire(ThreadCtx &thread)
{
    GPULP_ASSERT(!thread.exited_, "thread exited twice");
    thread.exited_ = true;
    Rendezvous &warp = warp_rv_[thread.warpId()];
    GPULP_ASSERT(block_rv_.live > 0 && warp.live > 0,
                 "more exits than live threads");
    --block_rv_.live;
    --warp.live;

    if (policy_ != nullptr)
        policy_->onExit(thread.flat_tid_);

    // A departing thread may have been the last straggler the block's
    // or its warp's rendezvous was waiting for. The exit is not an
    // arrival, so no releaser tid: the departing thread's later
    // accesses (there are none) must not be ordered before the woken
    // threads'.
    maybeRelease(block_rv_, SchedulePolicy::kNoTid);
    maybeRelease(warp, SchedulePolicy::kNoTid);
}

size_t
BlockState::sharedSlot(uint32_t slot_id, size_t bytes)
{
    for (const SharedSlot &slot : shared_slots_) {
        if (slot.id == slot_id) {
            // A larger re-declaration would run into the next slot (or
            // past the arena) with every SharedRef bounds check passing.
            GPULP_ASSERT(bytes <= slot.bytes,
                         "shared slot %u re-declared with %zu bytes, "
                         "more than the %zu it was first declared with",
                         slot_id, bytes, slot.bytes);
            return slot.offset;
        }
    }
    size_t aligned = (shared_next_ + 15) & ~size_t{15};
    // Report the post-alignment watermark: when 16-byte padding is
    // what pushes the slot over, the pre-padding figure would claim
    // spare bytes that do not exist.
    GPULP_ASSERT(aligned + bytes <= shared_.size(),
                 "shared memory exhausted: slot %u needs %zu bytes, "
                 "%zu of %zu used",
                 slot_id, bytes, aligned, shared_.size());
    std::memset(shared_.data() + aligned, 0, bytes);
    shared_next_ = aligned + bytes;
    shared_slots_.push_back({slot_id, aligned, bytes});
    return aligned;
}

void
BlockState::gateOrdering(uint32_t tid)
{
    if (gate_leader_)
        return;
    // Queue behind threads already parked on the gate even when the
    // frontier has just reached this rank: letting this thread lead
    // would order its access before lower tids' depending on when the
    // lower ranks finished.
    if (gate_waiters_.empty() && gate_->isLeader(rank_)) {
        gate_leader_ = true;
        return;
    }
    if (gate_waiters_.empty())
        obs::add(obs::Ctr::SimGateWaits); // one per wait episode
    do {
        checkCrash();
        // Park on the gate wait list: the runner wakes the whole list
        // when the frontier reaches this rank (or a crash latches, in
        // which case checkCrash() unwinds the fiber on re-entry). The
        // event id is the epoch of the wake that will release us.
        parkOn(gate_waiters_, tid,
               SchedEvent{SchedEventKind::RankGate, gate_wake_epoch_});
    } while (!gate_->isLeader(rank_));
    gate_leader_ = true;
}

void
BlockState::arrive(ThreadCtx &t, Rendezvous &rv, ReleaseFn release,
                   uint64_t arg)
{
    if (rv.arrived == 0) {
        rv.release = release;
        rv.arg = arg;
    } else {
        GPULP_ASSERT(rv.release == release && rv.arg == arg,
                     "divergent rendezvous (argument %llu vs %llu)",
                     static_cast<unsigned long long>(rv.arg),
                     static_cast<unsigned long long>(arg));
    }
    rv.max_arrival = std::max(rv.max_arrival, t.cycles_);
    ++rv.arrived;
    const uint64_t gen = rv.generation;
    maybeRelease(rv, t.flat_tid_);
    if (rv.generation == gen)
        t.awaiting_ = &rv;
    else
        t.cycles_ = rv.release_cycle;
}

void
BlockState::awaitRelease(ThreadCtx &t)
{
    // No other fiber has run since t arrived, so the rendezvous is
    // still pending: park exactly where the arrival would have parked.
    Rendezvous &rv = *t.awaiting_;
    const uint64_t gen = rv.generation;
    parkOn(rv_waiters_, t.flat_tid_, rv.event());
    GPULP_ASSERT(rv.generation != gen,
                 "tid %u woke before its rendezvous released", t.flat_tid_);
    t.awaiting_ = nullptr;
    checkCrash();
    t.cycles_ = rv.release_cycle;
}

void
BlockState::maybeRelease(Rendezvous &rv, uint32_t releaser)
{
    if (rv.arrived == 0 || rv.arrived != rv.live)
        return;
    // Capture the event before the generation bump: waiters parked on
    // generation g are released by the event named g.
    const SchedEvent ev = rv.event();
    rv.release_cycle = rv.release(rv, lanes_, *this);
    rv.arrived = 0;
    rv.max_arrival = 0;
    const uint32_t end = rv.first + rv.size;
    std::fill(lanes_.lanes.begin() + rv.first / kWarpSize,
              lanes_.lanes.begin() + (end + kWarpSize - 1) / kWarpSize, 0u);
    ++rv.generation;
    wake(rv_waiters_, rv.first, end, ev, releaser);
}

// ---------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------

ThreadCtx::ThreadCtx(BlockState &block, Dim3 thread_idx, uint32_t flat_tid)
    : block_(block), thread_idx_(thread_idx), flat_tid_(flat_tid),
      cycles_(block.start_)
{
}

uint32_t
ThreadCtx::atomicCAS(Addr addr, uint32_t compare, uint32_t value)
{
    return rmw32(addr,
                 [&](uint32_t old) { return old == compare ? value : old; });
}

uint64_t
ThreadCtx::atomicCAS64(Addr addr, uint64_t compare, uint64_t value)
{
    enterOp();
    block_.gateOrdering(flat_tid_);
    noteAtomic(addr, 8);
    uint64_t old;
    {
        std::lock_guard<std::mutex> lk(block_.mem_.rmwMutex(addr));
        old = block_.mem_.read<uint64_t>(addr);
        if (old == compare)
            block_.mem_.write<uint64_t>(addr, value);
    }
    cycles_ = block_.timing_.onAtomic(addr, cycles_, flat_tid_);
    return old;
}

uint32_t
ThreadCtx::atomicExch(Addr addr, uint32_t value)
{
    return rmw32(addr, [&](uint32_t) { return value; });
}

uint64_t
ThreadCtx::atomicExch64(Addr addr, uint64_t value)
{
    enterOp();
    block_.gateOrdering(flat_tid_);
    noteAtomic(addr, 8);
    uint64_t old;
    {
        std::lock_guard<std::mutex> lk(block_.mem_.rmwMutex(addr));
        old = block_.mem_.read<uint64_t>(addr);
        block_.mem_.write<uint64_t>(addr, value);
    }
    cycles_ = block_.timing_.onAtomic(addr, cycles_, flat_tid_);
    return old;
}

uint32_t
ThreadCtx::atomicAdd(Addr addr, uint32_t delta)
{
    return rmw32(addr, [&](uint32_t old) { return old + delta; });
}

float
ThreadCtx::atomicAddF(Addr addr, float delta)
{
    enterOp();
    block_.gateOrdering(flat_tid_);
    noteAtomic(addr, 4);
    float old;
    {
        std::lock_guard<std::mutex> lk(block_.mem_.rmwMutex(addr));
        old = block_.mem_.read<float>(addr);
        block_.mem_.write<float>(addr, old + delta);
    }
    cycles_ = block_.timing_.onAtomic(addr, cycles_, flat_tid_);
    return old;
}

uint32_t
ThreadCtx::atomicMax(Addr addr, uint32_t value)
{
    return rmw32(addr,
                 [&](uint32_t old) { return std::max(old, value); });
}

void
ThreadCtx::clwb(Addr addr)
{
    enterOp();
    const TimingParams &p = block_.timing_.params();
    cycles_ += p.clwb_issue_cycles;
    if (block_.nvm_) {
        // Only lines that were actually dirty move data: charge their
        // write-back against the bandwidth roofline. A clean-line clwb
        // costs its issue cycles and nothing else, and no store
        // instruction retires either way.
        uint64_t flushed = block_.nvm_->flushRange(addr, 1);
        if (flushed > 0)
            block_.timing_.onWriteBack(flushed *
                                       block_.nvm_->params().line_bytes);
    }
    // The persist barrier waits on every *issued* clwb, dirty or not:
    // the instruction still has to drain the flush queue.
    ++outstanding_flushes_;
}

void
ThreadCtx::persistBarrier()
{
    enterOp();
    const TimingParams &p = block_.timing_.params();
    if (outstanding_flushes_ > 0) {
        cycles_ += p.persist_latency_cycles +
                   static_cast<Cycles>(outstanding_flushes_ - 1) *
                       p.persist_overlap_gap_cycles;
        outstanding_flushes_ = 0;
    } else {
        cycles_ += p.clwb_issue_cycles;
    }
}

void
ThreadCtx::lockAcquire(Addr addr)
{
    enterOp();
    block_.gateOrdering(flat_tid_);
    noteAtomic(addr, 4);
    // Functionally the lock is always free by the time this block may
    // touch it (rank ordering); the *queueing delay* of contenders is
    // modelled by MemTiming's serialization window, which
    // lockRelease() extends to cover the whole critical section.
    block_.mem_.write<uint32_t>(addr, 1);
    cycles_ = block_.timing_.onLockAcquire(addr, cycles_, flat_tid_);
}

void
ThreadCtx::lockRelease(Addr addr)
{
    enterOp();
    noteAtomic(addr, 4);
    block_.mem_.write<uint32_t>(addr, 0);
    cycles_ += block_.timing_.params().global_issue_cycles;
    block_.timing_.holdAddressUntil(addr, cycles_, flat_tid_);
}

namespace {

/** __syncthreads' release: everyone resumes after the latest arrival. */
Cycles
releaseBarrier(const Rendezvous &rv, BlockLanes &, BlockState &block)
{
    return rv.max_arrival + block.params().barrier_cycles;
}

} // namespace

void
ThreadCtx::syncthreads()
{
    enterOp();
    // The barrier's release reads only the latest arrival: no deposit.
    block_.arrive(*this, block_.block_rv_, &releaseBarrier, 0);
    obs::add(obs::Ctr::SimBarrierWaits);
}

void
ThreadCtx::deposit(Rendezvous &rv, uint64_t value, ReleaseFn release,
                   uint64_t arg)
{
    enterOp();
    BlockLanes &x = block_.lanes_;
    x.value[flat_tid_] = value;
    x.cycles[flat_tid_] = cycles_;
    x.lanes[warpId()] |= 1u << laneId();
    block_.arrive(*this, rv, release, arg);
}

void
ThreadCtx::blockArrive(uint64_t value, ReleaseFn release, uint64_t arg)
{
    deposit(block_.block_rv_, value, release, arg);
}

uint64_t
ThreadCtx::blockResult()
{
    settle();
    return block_.lanes_.value[flat_tid_];
}

namespace {

/**
 * shfl_down release: lane i takes lane i+delta's deposit, or keeps its
 * own when that lane is out of range or did not deposit; every lane
 * resumes one shuffle after the warp's latest arrival. Lanes are
 * visited in ascending order, so a source (always a higher lane) is
 * read before its own slot is overwritten.
 */
Cycles
releaseShflDown(const Rendezvous &rv, BlockLanes &x, BlockState &block)
{
    const uint32_t deposited = x.lanes[rv.first / kWarpSize];
    uint64_t *value = &x.value[rv.first];
    const uint64_t delta = rv.arg;
    for (uint32_t bits = deposited; bits != 0; bits &= bits - 1) {
        const uint32_t lane =
            static_cast<uint32_t>(std::countr_zero(bits));
        const uint64_t src = lane + delta;
        if (delta > 0 && src < kWarpSize && (deposited >> src & 1))
            value[lane] = value[src];
    }
    return rv.max_arrival + block.params().shuffle_cycles;
}

} // namespace

uint64_t
ThreadCtx::shflDownRaw(uint64_t value, uint32_t delta)
{
    deposit(block_.warp_rv_[warpId()], value, &releaseShflDown, delta);
    obs::add(obs::Ctr::SimShuffles);
    return blockResult();
}

uint32_t
ThreadCtx::shflDown(uint32_t value, uint32_t delta)
{
    return static_cast<uint32_t>(shflDownRaw(value, delta));
}

int32_t
ThreadCtx::shflDownI(int32_t value, uint32_t delta)
{
    return static_cast<int32_t>(
        static_cast<uint32_t>(shflDownRaw(
            static_cast<uint32_t>(value), delta)));
}

float
ThreadCtx::shflDownF(float value, uint32_t delta)
{
    uint64_t bits = floatToOrderedInt(value);
    return orderedIntToFloat(
        static_cast<uint32_t>(shflDownRaw(bits, delta)));
}

uint64_t
ThreadCtx::shflDown64(uint64_t value, uint32_t delta)
{
    return shflDownRaw(value, delta);
}

} // namespace gpulp
