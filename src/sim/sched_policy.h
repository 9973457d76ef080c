/**
 * @file
 * Pluggable fiber resume-order policy for the event-driven block
 * scheduler, plus the instrumentation hooks a schedule-exploration
 * engine needs to reconstruct what a given resume order did.
 *
 * The block scheduler (BlockState::claimNext) makes exactly one kind
 * of scheduling decision: which ready fiber to resume next, made at
 * block start, after a rank-gate wake and every time the running fiber
 * parks on an event or exits. By default that
 * pick is the cyclic lowest-next flat tid — the bit-identical
 * determinism contract every golden fixture pins. Installing a policy
 * (Device::setSchedulePolicyFactory) reroutes the pick through
 * SchedulePolicy::pick() and turns on the event/access hooks below, so
 * an analysis layer (src/analysis) can permute resume order at every
 * decision point and record a happens-before trace of the park/wake/
 * gate events plus the global- and shared-memory access sets of every
 * scheduling segment.
 *
 * Hooks fire on the worker thread running the block; one policy
 * instance serves exactly one block run, so implementations need no
 * internal locking. The factory itself is called concurrently from
 * all workers and must be thread-safe.
 */

#ifndef GPULP_SIM_SCHED_POLICY_H
#define GPULP_SIM_SCHED_POLICY_H

#include <cstdint>
#include <functional>
#include <memory>

#include "mem/memory.h"

namespace gpulp {

class ReadySet;

/** The event classes a fiber can park on / be woken by. */
enum class SchedEventKind : uint8_t {
    Barrier,  //!< a rendezvous generation (barrier, LP fold or shuffle)
    RankGate, //!< the parallel engine's cross-block rank gate
};

/**
 * One park/wake event instance. @c id disambiguates concurrent
 * instances: (rendezvous index << 32) | generation for a rendezvous,
 * where index 0 is the block's and 1 + w warp w's, and a per-block
 * wake epoch for the rank gate.
 */
struct SchedEvent {
    SchedEventKind kind;
    uint64_t id;
};

/** How a memory access participates in conflict analysis. */
enum class AccessKind : uint8_t {
    Load,
    Store,
    /** Serialized read-modify-write (atomics, lock words). Pairs of
     *  atomics on one address are ordered by the simulator and are
     *  treated as acquire/release synchronization; an atomic still
     *  conflicts with any plain access to the same bytes. */
    AtomicRmw,
};

/**
 * Resume-order policy for one thread block run. pick() is the single
 * decision point; everything else is passive instrumentation with
 * no-op defaults, enabled only while a policy is installed (the
 * default null-policy path stays branch-per-access cheap and
 * bit-identical to the retired poll scheduler).
 */
class SchedulePolicy
{
  public:
    virtual ~SchedulePolicy() = default;

    /** Sentinel meaning "no thread" in tid-valued hook arguments. */
    static constexpr uint32_t kNoTid = UINT32_MAX;

    /**
     * Remove and return the next tid to resume from @p ready, or
     * ReadySet::kNone when the set is empty. @p last is the previously
     * resumed tid — kNoTid at block start and after a rank-gate wake,
     * mirroring the scan-origin reset of the deterministic pick.
     */
    virtual uint32_t pick(ReadySet &ready, uint32_t last) = 0;

    /** The block is about to run with @p num_threads threads. */
    virtual void onBlockStart(uint32_t num_threads) { (void)num_threads; }

    /**
     * @p tid was chosen by pick() and is about to be resumed, or, if
     * its kernel already returned, retired in place (onExit follows).
     */
    virtual void onResume(uint32_t tid) { (void)tid; }

    /** @p tid parked on @p ev (its scheduling segment ends). */
    virtual void
    onPark(uint32_t tid, SchedEvent ev)
    {
        (void)tid;
        (void)ev;
    }

    /**
     * @p ev released, moving @p n waiters (@p woken) back to the ready
     * set. @p releaser is the tid whose arrival completed the event,
     * or kNoTid when the release was not an arrival (a thread exit
     * releasing a rendezvous, the runner waking the rank gate) — the
     * distinction matters for happens-before: only an arriving
     * releaser's prior accesses are ordered before the release.
     */
    virtual void
    onRelease(SchedEvent ev, const uint32_t *woken, uint32_t n,
              uint32_t releaser)
    {
        (void)ev;
        (void)woken;
        (void)n;
        (void)releaser;
    }

    /** @p tid's fiber returned from the kernel. */
    virtual void onExit(uint32_t tid) { (void)tid; }

    /** Global-memory access by @p tid at [addr, addr+bytes). */
    virtual void
    onGlobalAccess(uint32_t tid, Addr addr, uint32_t bytes, AccessKind kind)
    {
        (void)tid;
        (void)addr;
        (void)bytes;
        (void)kind;
    }

    /**
     * Shared-memory access by @p tid at @p offset within shared slot
     * @p slot (the __shared__ declaration id passed to sharedArray).
     */
    virtual void
    onSharedAccess(uint32_t tid, uint32_t slot, uint32_t offset,
                   uint32_t bytes, AccessKind kind)
    {
        (void)tid;
        (void)slot;
        (void)offset;
        (void)bytes;
        (void)kind;
    }
};

/**
 * Per-block policy maker: called once per block run with the block's
 * flat grid rank; may return nullptr to run that block on the default
 * deterministic path. Invoked concurrently from worker threads.
 */
using SchedulePolicyFactory =
    std::function<std::unique_ptr<SchedulePolicy>(uint64_t block_rank)>;

} // namespace gpulp

#endif // GPULP_SIM_SCHED_POLICY_H
