/**
 * @file
 * Crash-recovery support: the per-block failed set and the recovery
 * driver every persistency model shares (Sec. II-A, Sec. IV-A and
 * Listing 7).
 *
 * Recovery after a crash proceeds in rounds of two steps, as in the
 * paper:
 *
 *  1. a verdict marks every block whose region did not durably commit
 *     in a RecoverySet. Each model supplies its own
 *     (PersistStrategy::verdict): lazy launches the workload's
 *     validation kernel, which recomputes every block's checksum from
 *     the data found in memory and compares it with the checksum
 *     table; the flag models read their durable commit flags on the
 *     host;
 *  2. a recovery kernel re-executes only the failed (idempotent)
 *     blocks, which commit again through the same strategy.
 *
 * Each round then persists everything (whole-cache flush), the paper's
 * "eager recovery", so that forward progress is guaranteed even if
 * another crash follows.
 */

#ifndef GPULP_CORE_RECOVERY_H
#define GPULP_CORE_RECOVERY_H

#include <cstdint>
#include <functional>

#include "core/region.h"
#include "sim/device.h"

namespace gpulp {

/**
 * Device-resident array of per-block pass/fail flags produced by a
 * verdict and consumed by the recovery kernel.
 */
class RecoverySet
{
  public:
    RecoverySet(Device &dev, uint64_t num_blocks);

    /** Number of blocks tracked. */
    uint64_t numBlocks() const { return num_blocks_; }

    /** Device-side: mark this block as needing recovery. */
    void markFailed(ThreadCtx &t, uint64_t block);

    /** Host-side flag read (untimed). */
    bool isFailedHost(uint64_t block) const;

    /** Host-side: mark a block failed (the flag models' verdict). */
    void markFailedHost(uint64_t block);

    /** Host-side: clear all flags. */
    void clearAll();

    /** Host-side: number of blocks currently marked failed. */
    uint64_t failedCount() const;

  private:
    Device &dev_;
    uint64_t num_blocks_;
    Addr flags_; //!< one uint32 per block
};

/**
 * A workload's validation kernel body: recompute the block's
 * checksums from memory, call lpValidateRegion() and mark a mismatch
 * in the set (collective). Only the lazy model's verdict runs it.
 */
using ValidateFn = std::function<void(ThreadCtx &, RecoverySet &)>;

/** Outcome of a recovery run. */
struct RecoveryReport {
    uint64_t blocks_checked = 0;
    uint64_t blocks_failed = 0;   //!< marked by the first verdict
    uint64_t blocks_recovered = 0;
    Cycles validate_cycles = 0;   //!< summed over all verdict launches
    Cycles recover_cycles = 0;    //!< summed over all recovery rounds
    uint64_t rounds = 0;          //!< verdict(+recover) rounds executed
    uint64_t crashes_survived = 0;//!< crashes absorbed mid-recovery
    bool converged = false;       //!< a full verdict found 0 failures
};

class PersistStrategy; // core/persist.h

/**
 * Recover a kernel protected by @p strategy after a crash.
 *
 * The driver resolves a still-pending power failure, then loops
 * rollback -> verdict -> re-execute -> persistAll until a verdict
 * reports zero failed blocks. rollback() undoes what the model can
 * (eager's undo log; a no-op elsewhere). The recovery kernel runs
 * @p region_kernel on the blocks the verdict marked, checking the
 * mark on the host, and returns at once on every other block. A
 * crash that strikes *during* recovery (the second failure eager
 * recovery is designed for, Sec. IV-A) is absorbed: the NVM model
 * rewinds to the last persisted image and the loop reclassifies from
 * there. The persistAll() checkpoint after every round guarantees
 * forward progress — each completed round durably shrinks the failed
 * set, so the loop terminates unless crashes re-arm forever.
 *
 * @param dev The device the kernel ran on.
 * @param cfg Grid/block dimensions of the original kernel.
 * @param strategy The model the original kernel committed through.
 * @param region_kernel The original kernel body: idempotent, ending
 *        in persistRegionEnd (or lpCommitRegion) so a re-executed
 *        block commits again.
 * @param validate The workload's validation kernel; required by the
 *        lazy model's verdict, ignored by the flag models'.
 * @param max_rounds Safety cap on rounds; when it is hit the report
 *        comes back with converged == false instead of looping forever
 *        (a store that cannot round-trip a checksum — e.g. the pre-fix
 *        global-array sentinel bug — would otherwise livelock
 *        recovery).
 * @return Counts and cycle costs across all rounds. blocks_failed is
 *         the failed count of the *first complete* verdict — the
 *         damage the crash actually caused — not the sum over rounds.
 */
RecoveryReport persistRecover(Device &dev, const LaunchConfig &cfg,
                              PersistStrategy &strategy,
                              const KernelFn &region_kernel,
                              const ValidateFn &validate,
                              uint64_t max_rounds = 32);

} // namespace gpulp

#endif // GPULP_CORE_RECOVERY_H
