#include "recovery.h"

#include <cstring>

#include "core/persist.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace gpulp {

RecoverySet::RecoverySet(Device &dev, uint64_t num_blocks)
    : dev_(dev), num_blocks_(num_blocks)
{
    GPULP_ASSERT(num_blocks_ > 0, "empty recovery set");
    flags_ = dev_.mem().alloc(num_blocks_ * 4);
    clearAll();
}

void
RecoverySet::markFailed(ThreadCtx &t, uint64_t block)
{
    GPULP_ASSERT(block < num_blocks_, "block %llu out of range",
                 static_cast<unsigned long long>(block));
    t.storeAddr<uint32_t>(flags_ + block * 4, 1);
}

bool
RecoverySet::isFailedHost(uint64_t block) const
{
    GPULP_ASSERT(block < num_blocks_, "block %llu out of range",
                 static_cast<unsigned long long>(block));
    uint32_t flag;
    std::memcpy(&flag, dev_.mem().raw(flags_ + block * 4), 4);
    return flag != 0;
}

void
RecoverySet::markFailedHost(uint64_t block)
{
    GPULP_ASSERT(block < num_blocks_, "block %llu out of range",
                 static_cast<unsigned long long>(block));
    uint32_t one = 1;
    std::memcpy(dev_.mem().raw(flags_ + block * 4), &one, 4);
}

void
RecoverySet::clearAll()
{
    std::memset(dev_.mem().raw(flags_), 0, num_blocks_ * 4);
}

uint64_t
RecoverySet::failedCount() const
{
    uint64_t count = 0;
    for (uint64_t b = 0; b < num_blocks_; ++b)
        count += isFailedHost(b);
    return count;
}

RecoveryReport
persistRecover(Device &dev, const LaunchConfig &cfg,
               PersistStrategy &strategy, const KernelFn &region_kernel,
               const ValidateFn &validate, uint64_t max_rounds)
{
    RecoverySet failed(dev, cfg.numBlocks());

    RecoveryReport report;
    report.blocks_checked = cfg.numBlocks();
    bool first_verdict = true;

    // Resolve the power failure before reading any durable state (the
    // persistence domain is frozen while the latch is pending).
    if (dev.nvm() && dev.nvm()->crashPending())
        dev.nvm()->crash();

    while (report.rounds < max_rounds) {
        ++report.rounds;
        obs::add(obs::Ctr::RecoveryRounds);
        obs::TraceSpan round_span("recovery_round", "recovery",
                                  report.rounds, "round");

        // Models with logs undo uncommitted damage first (eager).
        strategy.rollback();

        failed.clearAll();
        LaunchResult verdict = [&] {
            obs::TraceSpan span("validate", "recovery", report.rounds,
                                "round");
            return strategy.verdict(dev, cfg, failed, validate);
        }();
        report.validate_cycles += verdict.cycles;
        if (verdict.crashed) {
            // A second failure hit while revalidating. Rewind to the
            // last persisted image (the eager checkpoint) and retry.
            ++report.crashes_survived;
            obs::add(obs::Ctr::RecoveryCrashesSurvived);
            dev.nvm()->crash();
            continue;
        }

        uint64_t round_failed = failed.failedCount();
        obs::add(obs::Ctr::RecoveryBlocksFlagged, round_failed);
        obs::observe(obs::Hist::RecoveryRoundFlagged, round_failed);
        if (first_verdict) {
            // The damage the original crash caused; later rounds only
            // shrink it, so this is what reports and tests care about.
            report.blocks_failed = round_failed;
            first_verdict = false;
        }
        if (round_failed == 0) {
            report.converged = true;
            obs::add(obs::Ctr::RecoveryConverged);
            break;
        }

        LaunchResult recover = [&] {
            obs::TraceSpan span("recover", "recovery", round_failed,
                                "blocks");
            return dev.launch(cfg, [&](ThreadCtx &t) {
                if (failed.isFailedHost(t.blockRank()))
                    region_kernel(t);
            });
        }();
        report.recover_cycles += recover.cycles;
        if (recover.crashed) {
            ++report.crashes_survived;
            obs::add(obs::Ctr::RecoveryCrashesSurvived);
            dev.nvm()->crash();
            continue;
        }
        report.blocks_recovered += round_failed;
        obs::add(obs::Ctr::RecoveryBlocksReexecuted, round_failed);

        // Eager recovery: persist the recovered state so forward
        // progress holds even if another crash strikes immediately.
        // (If a crash latched in the window since the recovery launch
        // completed, persistAll() is a frozen no-op and the next
        // round absorbs the crash instead.)
        if (dev.nvm())
            dev.nvm()->persistAll();
    }

    // One more checkpoint on the way out: a converged verdict may
    // itself have faulted clean lines; make the verdict durable.
    if (dev.nvm() && !dev.nvm()->crashPending())
        dev.nvm()->persistAll();
    return report;
}

} // namespace gpulp
