/**
 * @file
 * Eager Persistency (EP) — the baseline Lazy Persistency is measured
 * against throughout the paper (Sec. I/II).
 *
 * EP makes regions atomically durable the classical way: an undo log
 * entry is written and *flushed* before every persistent store, the
 * store's own line is flushed, and persist barriers order everything;
 * a committed region raises a durable commit flag. The costs the paper
 * attributes to EP all appear mechanically here:
 *
 *  - log maintenance (extra stores + memory traffic),
 *  - loss of locality from cache-line flushing,
 *  - processor stalls on persist barriers,
 *  - write amplification (every store's line plus its log entry
 *    reach the NVM, versus LP's natural evictions).
 *
 * The paper also notes EP is not even implementable on current GPUs —
 * CUDA has no clwb/persist-barrier; ThreadCtx::clwb()/persistBarrier()
 * model the instructions EP would require, making the comparison
 * possible in simulation.
 *
 * Recovery: uncommitted regions are rolled back from their undo logs
 * (host-side, as crash recovery runs before kernels restart). Recovery
 * reads commit flags and log entries through the NVM-durable view
 * (NvmCache::readPersisted): the arena may hold stores that landed
 * after the crash latch tripped and never reached the persistence
 * domain, and trusting those would "recover" from state that does not
 * exist after a real power failure. Undo-entry validity is a per-entry
 * CRC, not an in-band null-target sentinel — a torn or garbage entry
 * (including one whose target field happens to decode to the reserved
 * null address 0, which the old sentinel confused with "empty") is
 * skipped explicitly, without aborting the scan of the rest of the
 * log.
 */

#ifndef GPULP_CORE_EAGER_H
#define GPULP_CORE_EAGER_H

#include <cstdint>

#include "core/persist.h"

namespace gpulp {

/**
 * Per-kernel EP state: per-thread partitioned undo logs and per-block
 * commit flags, all resident in (persistent) device memory.
 *
 * Logs are partitioned per thread (as real GPU logging schemes do) so
 * appending needs no atomics; consequently threads of a block must not
 * EP-protect the *same* address, or undo order across threads would be
 * undefined. All kernels here write thread-disjoint addresses.
 */
class EpRuntime : public PersistStrategy
{
  public:
    /** Bytes per undo-log entry: {size|addr: 8, old bits: 4, crc: 4}. */
    static constexpr uint64_t kLogEntryBytes = 16;

    /** CRC seed for undo entries; nonzero so an all-zero (never
     *  written) slot can never validate. */
    static constexpr uint32_t kEntryCrcSeed = 0x9e3779b9u;

    /**
     * @param dev Device the protected kernel runs on.
     * @param cfg Configuration kernels see through context().
     * @param launch Grid/block shape of the protected kernel.
     * @param log_entries_per_thread Undo-log capacity per thread.
     */
    EpRuntime(Device &dev, const LpConfig &cfg, const LaunchConfig &launch,
              uint64_t log_entries_per_thread);

    // Device-side protocol ---------------------------------------------------

    /**
     * Durably log the current value of [addr, addr+bytes): write the
     * undo entry, flush it and fence — the undo-logging invariant that
     * must complete before the data mutation, atomic claims (MEGA-KV's
     * slot CAS) included. @p bytes must be 2 or 4.
     */
    void prepare(ThreadCtx &t, PersistAccum &acc, Addr addr,
                 uint32_t bytes) override;

    /** Push the mutated line eagerly toward the NVM. */
    void publish(ThreadCtx &t, Addr addr) override { t.clwb(addr); }

    /**
     * End-of-region commit: drain this thread's flushes, barrier the
     * block, and have thread 0 persist the region's commit flag.
     * Collective.
     */
    void regionEnd(ThreadCtx &t, PersistAccum &acc) override;

    // Host-side recovery -----------------------------------------------------

    /** Mark every block whose commit flag is not durable. */
    LaunchResult
    verdict(Device &, const LaunchConfig &, RecoverySet &failed,
            const ValidateFn &) override
    {
        return flags_.markUncommitted(failed);
    }

    /**
     * Undo every uncommitted region from its persisted log, newest
     * entry first, and persist the rolled-back state. Reads flags and
     * entries through the durable view; if the crash latch is still
     * pending the simulated power failure is resolved first
     * (NvmCache::crash()), since nothing recovery writes could persist
     * through a frozen domain.
     *
     * @return Number of regions rolled back.
     */
    uint64_t rollback() override;

    /** True if @p block committed *durably* (NVM view, not the arena). */
    bool
    isCommittedHost(uint64_t block) const
    {
        return flags_.isCommittedHost(block);
    }

    /**
     * Clear logs, cursors and commit flags for a fresh run, and persist
     * the cleared state: a stale durable commit flag from a previous
     * run would otherwise be resurrected by the next crash rewind and
     * mask an uncommitted region.
     */
    void reset() override;

    /** Device-memory footprint of logs + metadata. */
    uint64_t footprintBytes() const override;

    // Introspection (tests, fault injection) ---------------------------------

    /** Device address of @p slot-th undo entry of @p block. */
    Addr logEntryAddr(uint64_t block, uint64_t slot) const;

    /** Entries per block across all its threads. */
    uint64_t
    entriesPerBlock() const
    {
        return entries_per_thread_ * launch_.threadsPerBlock();
    }

    /** Tagged target word of an undo entry: store width in the top
     *  byte, device address below (addresses are far smaller). */
    static uint64_t tagAddr(Addr addr, uint32_t bytes);

    /** CRC an entry's payload ({tagged target, old bits}) validates
     *  against; seeded so a zeroed slot never matches. */
    static uint32_t entryCrc(uint64_t tagged, uint32_t old_bits);

  private:
    Device &dev_;
    LaunchConfig launch_;
    uint64_t entries_per_thread_;
    // Allocated in this order, logs first: addresses feed the NVM
    // cache's set mapping, so the order is part of the results.
    Addr logs_;         //!< blocks x threads x entries x kLogEntryBytes
    CommitFlags flags_;
};

} // namespace gpulp

#endif // GPULP_CORE_EAGER_H
