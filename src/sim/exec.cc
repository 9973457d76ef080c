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
      bar_waiters_(0), gate_waiters_(0)
{
}

void
BlockState::reset(NvmCache *nvm, Dim3 block_idx, const LaunchConfig &cfg,
                  Cycles start, RankGate *gate, uint64_t rank,
                  const OrderedRegions *ordered)
{
    nvm_ = nvm;
    block_idx_ = block_idx;
    cfg_ = cfg;
    start_ = start;
    gate_ = gate;
    rank_ = rank;
    ordered_ = ordered != nullptr && !ordered->empty() ? ordered : nullptr;
    gate_leader_ = false;
    num_threads_ = cfg.threadsPerBlock();
    num_warps_ = (num_threads_ + kWarpSize - 1) / kWarpSize;
    live_ = num_threads_;

    bar_arrived_ = 0;
    bar_generation_ = 0;
    bar_max_arrival_ = 0;
    bar_release_cycle_ = 0;

    warps_.assign(num_warps_, WarpState{});
    for (uint32_t w = 0; w < num_warps_; ++w)
        warps_[w].live = std::min(kWarpSize, num_threads_ - w * kWarpSize);

    // Claims zero their own bytes; nothing else of the arena is visible.
    shared_next_ = 0;
    shared_slots_.clear();

    // Every thread starts ready.
    ready_.resetAllReady(num_threads_);
    bar_waiters_.reset(num_threads_);
    gate_waiters_.reset(num_threads_);

    policy_ = nullptr;
    gate_wake_epoch_ = 0;
}

namespace {

/** Expand a wait bitmap into flat tids for the policy's release hook. */
void
collectWaiters(const std::vector<uint64_t> &bits, std::vector<uint32_t> &out)
{
    out.clear();
    for (size_t w = 0; w < bits.size(); ++w) {
        uint64_t word = bits[w];
        while (word != 0) {
            out.push_back(static_cast<uint32_t>(
                w * 64 + static_cast<size_t>(std::countr_zero(word))));
            word &= word - 1;
        }
    }
}

} // namespace

void
BlockState::parkOn(WaitSet &waiters, uint32_t tid, SchedEvent ev)
{
    if (policy_ != nullptr)
        policy_->onPark(tid, ev);
    waiters.park(tid);
    Fiber::yield();
}

void
BlockState::parkOnWarp(WarpState &w, uint32_t tid)
{
    if (policy_ != nullptr) {
        size_t warp_idx = static_cast<size_t>(&w - warps_.data());
        policy_->onPark(tid, warpEvent(static_cast<uint32_t>(warp_idx)));
    }
    w.wait_mask |= uint64_t{1} << (tid & 63);
    Fiber::yield();
}

void
BlockState::wake(WaitSet &waiters, SchedEvent ev, uint32_t releaser)
{
    if (policy_ != nullptr && waiters.count > 0) {
        std::vector<uint32_t> woken_tids;
        collectWaiters(waiters.bits, woken_tids);
        policy_->onRelease(ev, woken_tids.data(),
                           static_cast<uint32_t>(woken_tids.size()),
                           releaser);
    }
    uint32_t woken = ready_.absorb(waiters);
    if (woken > 0)
        obs::add(obs::Ctr::SimFiberWakeups, woken);
}

void
BlockState::wakeWarp(WarpState &w, SchedEvent ev, uint32_t releaser)
{
    if (w.wait_mask == 0) {
        // Nobody parked, but the round still released: an arriving
        // releaser synchronized with lanes that never yielded.
        if (policy_ != nullptr)
            policy_->onRelease(ev, nullptr, 0, releaser);
        return;
    }
    static_assert(64 % kWarpSize == 0,
                  "a warp's tids must fit in one ready-set word");
    size_t warp_idx = static_cast<size_t>(&w - warps_.data());
    if (policy_ != nullptr) {
        std::vector<uint32_t> woken_tids;
        uint64_t mask = w.wait_mask;
        uint32_t base =
            static_cast<uint32_t>((warp_idx * kWarpSize) & ~size_t{63});
        while (mask != 0) {
            woken_tids.push_back(
                base + static_cast<uint32_t>(std::countr_zero(mask)));
            mask &= mask - 1;
        }
        policy_->onRelease(ev, woken_tids.data(),
                           static_cast<uint32_t>(woken_tids.size()),
                           releaser);
    }
    uint32_t woken =
        ready_.absorbWord((warp_idx * kWarpSize) >> 6, w.wait_mask);
    w.wait_mask = 0;
    obs::add(obs::Ctr::SimFiberWakeups, woken);
}

void
BlockState::onThreadExit(ThreadCtx &thread)
{
    GPULP_ASSERT(!thread.exited_, "thread exited twice");
    thread.exited_ = true;
    GPULP_ASSERT(live_ > 0, "more exits than live threads");
    --live_;

    WarpState &warp = warps_[thread.warpId()];
    GPULP_ASSERT(warp.live > 0, "more lane exits than live lanes");
    --warp.live;

    if (policy_ != nullptr)
        policy_->onExit(thread.flat_tid_);

    // A departing thread may have been the last straggler a barrier or
    // a warp collective was waiting for. The exit is not an arrival, so
    // no releaser tid: the departing thread's later accesses (there are
    // none) must not be ordered before the woken threads'.
    maybeReleaseBarrier(SchedulePolicy::kNoTid);
    maybeReleaseWarp(warp, SchedulePolicy::kNoTid);
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
    if (gate_leader_ || gate_ == nullptr)
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
BlockState::maybeReleaseBarrier(uint32_t releaser)
{
    if (bar_arrived_ == 0 || bar_arrived_ != live_)
        return;
    // Capture the event before the generation bump: waiters parked on
    // generation g are released by the event named g.
    SchedEvent ev = barrierEvent();
    bar_release_cycle_ =
        bar_max_arrival_ + timing_.params().barrier_cycles;
    bar_arrived_ = 0;
    bar_max_arrival_ = 0;
    ++bar_generation_;
    wake(bar_waiters_, ev, releaser);
}

void
BlockState::maybeReleaseWarp(WarpState &w, uint32_t releaser)
{
    if (w.arrived == 0 || w.arrived != w.live)
        return;
    SchedEvent ev =
        warpEvent(static_cast<uint32_t>(&w - warps_.data()));
    w.release(w.slots, timing_.params());
    w.arrived = 0;
    w.slots.deposited = 0;
    ++w.generation;
    wakeWarp(w, ev, releaser);
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
    block_.checkCrash();
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
    block_.checkCrash();
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
    block_.checkCrash();
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
    block_.checkCrash();
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
    block_.checkCrash();
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
    block_.checkCrash();
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
    block_.checkCrash();
    noteAtomic(addr, 4);
    block_.mem_.write<uint32_t>(addr, 0);
    cycles_ += block_.timing_.params().global_issue_cycles;
    block_.timing_.holdAddressUntil(addr, cycles_, flat_tid_);
}

void
ThreadCtx::syncthreads()
{
    BlockState &b = block_;
    b.checkCrash();
    obs::add(obs::Ctr::SimBarrierWaits);
    uint64_t gen = b.bar_generation_;
    b.bar_max_arrival_ = std::max(b.bar_max_arrival_, cycles_);
    ++b.bar_arrived_;
    b.maybeReleaseBarrier(flat_tid_);
    while (b.bar_generation_ == gen) {
        b.parkOn(b.bar_waiters_, flat_tid_,
                 SchedEvent{SchedEventKind::Barrier, gen});
        // Woken either by the release or by a crash drain; re-check so
        // a latched crash unwinds this fiber instead of re-parking.
        b.checkCrash();
    }
    cycles_ = b.bar_release_cycle_;
}

uint64_t
ThreadCtx::warpCollective(uint64_t value, WarpReleaseFn release,
                          uint64_t arg, uint32_t shuffle_steps)
{
    BlockState &b = block_;
    b.checkCrash();
    obs::add(obs::Ctr::SimWarpCollectives);
    obs::add(obs::Ctr::SimShuffles, shuffle_steps);
    WarpState &w = b.warps_[warpId()];
    WarpLanes &x = w.slots;
    const uint32_t lane = laneId();
    const uint64_t gen = w.generation;

    if (w.arrived == 0) {
        w.release = release;
        x.arg = arg;
    } else {
        GPULP_ASSERT(w.release == release && x.arg == arg,
                     "divergent collectives within a warp (argument "
                     "%llu vs %llu)",
                     static_cast<unsigned long long>(x.arg),
                     static_cast<unsigned long long>(arg));
    }
    GPULP_ASSERT((x.deposited & (1u << lane)) == 0,
                 "lane %u deposited twice in one warp collective", lane);

    x.value[lane] = value;
    x.cycles[lane] = cycles_;
    x.deposited |= 1u << lane;
    ++w.arrived;
    b.maybeReleaseWarp(w, flat_tid_);
    while (w.generation == gen) {
        b.parkOnWarp(w, flat_tid_);
        b.checkCrash();
    }
    cycles_ = x.cycles[lane];
    return x.value[lane];
}

namespace {

/**
 * shfl_down release: lane i takes lane i+delta's deposit, or keeps its
 * own when that lane is out of range or did not deposit; every lane
 * resumes one shuffle after the latest arrival. Lanes are visited in
 * ascending order, so a source (always a higher lane) is read before
 * its own slot is overwritten.
 */
void
releaseShflDown(WarpLanes &x, const TimingParams &params)
{
    const Cycles resume = x.maxCycle() + params.shuffle_cycles;
    const uint64_t delta = x.arg;
    for (uint32_t bits = x.deposited; bits != 0; bits &= bits - 1) {
        const uint32_t lane =
            static_cast<uint32_t>(std::countr_zero(bits));
        const uint64_t src = lane + delta;
        if (delta > 0 && src < kWarpSize && (x.deposited >> src & 1))
            x.value[lane] = x.value[src];
        x.cycles[lane] = resume;
    }
}

} // namespace

uint64_t
ThreadCtx::shflDownRaw(uint64_t value, uint32_t delta)
{
    return warpCollective(value, &releaseShflDown, delta,
                          /*shuffle_steps=*/1);
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
