#include "persist.h"

#include <cstring>

#include "core/eager.h"
#include "core/runtime.h"

namespace gpulp {

PersistStrategy::PersistStrategy(const LpConfig &cfg, PersistModel model)
    : cfg_(cfg)
{
    cfg_.persist = model;
}

LpContext
PersistStrategy::context()
{
    LpContext ctx;
    ctx.cfg = &cfg_;
    ctx.strategy = this;
    return ctx;
}

void
durableRead(Device &dev, Addr addr, size_t bytes, void *out)
{
    // The arena may hold stores that landed after the crash latch
    // tripped and never reached the persistence domain; recovery must
    // only trust what the NVM actually holds.
    if (NvmCache *nvm = dev.nvm())
        nvm->readPersisted(addr, bytes, out);
    else
        std::memcpy(out, dev.mem().raw(addr), bytes);
}

CommitFlags::CommitFlags(Device &dev, uint64_t blocks)
    : dev_(dev), blocks_(blocks)
{
    flags_ = dev_.mem().alloc(blocks_ * 4);
    reset();
}

void
CommitFlags::commit(ThreadCtx &t, bool fence) const
{
    t.syncthreads();
    if (t.flatThreadIdx() != 0)
        return;
    Addr flag = flagAddr(t.blockRank());
    t.storeAddr<uint32_t>(flag, 1);
    t.clwb(flag);
    if (fence)
        t.persistBarrier();
}

bool
CommitFlags::isCommittedHost(uint64_t block) const
{
    GPULP_ASSERT(block < blocks_, "block out of range");
    uint32_t committed;
    durableRead(dev_, flagAddr(block), 4, &committed);
    return committed != 0;
}

LaunchResult
CommitFlags::markUncommitted(RecoverySet &failed) const
{
    for (uint64_t b = 0; b < blocks_; ++b) {
        if (!isCommittedHost(b))
            failed.markFailedHost(b);
    }
    return {};
}

void
CommitFlags::reset()
{
    // A committed flag from the previous run lingering in the NVM
    // shadow would be resurrected by the next crash rewind and mask an
    // uncommitted region.
    std::memset(dev_.mem().raw(flags_), 0, blocks_ * 4);
    if (NvmCache *nvm = dev_.nvm())
        nvm->persistRange(flags_, blocks_ * 4);
}

namespace {

/**
 * The flush-based models without a log: a durable commit flag per
 * block is their whole recovery state and verdict.
 */
class FlagStrategy : public PersistStrategy
{
  public:
    FlagStrategy(Device &dev, const LpConfig &cfg, PersistModel model,
                 const LaunchConfig &launch)
        : PersistStrategy(cfg, model), flags_(dev, launch.numBlocks())
    {
    }

    LaunchResult
    verdict(Device &, const LaunchConfig &, RecoverySet &failed,
            const ValidateFn &) override
    {
        return flags_.markUncommitted(failed);
    }

    void reset() override { flags_.reset(); }

    uint64_t
    footprintBytes() const override
    {
        return flags_.footprintBytes();
    }

  protected:
    CommitFlags flags_;
};

/**
 * Strict persistency: every persistent store is made durable — flush
 * *and* persist barrier — before the thread proceeds. Strongest
 * ordering, zero metadata beyond the commit flag, worst stalls.
 */
class StrictStrategy : public FlagStrategy
{
  public:
    StrictStrategy(Device &dev, const LpConfig &cfg,
                   const LaunchConfig &launch)
        : FlagStrategy(dev, cfg, PersistModel::Strict, launch)
    {
    }

    void
    publish(ThreadCtx &t, Addr addr) override
    {
        t.clwb(addr);
        t.persistBarrier();
    }

    void
    regionEnd(ThreadCtx &t, PersistAccum &) override
    {
        // Every store already drained; only the commit flag remains.
        flags_.commit(t, /*fence=*/true);
    }
};

/**
 * Epoch persistency, block-granularity epochs: stores are flushed as
 * they happen (write-backs overlap with execution) but the persist
 * barrier — the stall — is paid once, when the block's epoch closes.
 */
class EpochBlockStrategy : public FlagStrategy
{
  public:
    EpochBlockStrategy(Device &dev, const LpConfig &cfg,
                       const LaunchConfig &launch)
        : FlagStrategy(dev, cfg, PersistModel::EpochBlock, launch)
    {
    }

    void publish(ThreadCtx &t, Addr addr) override { t.clwb(addr); }

    void
    regionEnd(ThreadCtx &t, PersistAccum &) override
    {
        // Close the epoch: drain this thread's flushes, then commit.
        t.persistBarrier();
        flags_.commit(t, /*fence=*/true);
    }
};

/**
 * Epoch persistency, kernel-granularity epoch: stores are flushed but
 * no in-kernel persist barrier is ever issued; the single epoch closes
 * with the kernel. The cheapest flush-based point — and the weakest:
 * on real hardware nothing orders the commit flag after the data
 * within the epoch (see docs/PERSISTENCY_MODELS.md for the window the
 * simulator's synchronous clwb does not model).
 */
class EpochKernelStrategy : public FlagStrategy
{
  public:
    EpochKernelStrategy(Device &dev, const LpConfig &cfg,
                        const LaunchConfig &launch)
        : FlagStrategy(dev, cfg, PersistModel::EpochKernel, launch)
    {
    }

    void publish(ThreadCtx &t, Addr addr) override { t.clwb(addr); }

    void
    regionEnd(ThreadCtx &t, PersistAccum &) override
    {
        flags_.commit(t, /*fence=*/false);
    }
};

} // namespace

std::unique_ptr<PersistStrategy>
makePersistStrategy(Device &dev, const LpConfig &cfg,
                    const LaunchConfig &launch,
                    uint64_t undo_entries_per_thread)
{
    switch (cfg.persist) {
      case PersistModel::Lazy:
        return std::make_unique<LpRuntime>(dev, cfg, launch);
      case PersistModel::Eager:
        return std::make_unique<EpRuntime>(dev, cfg, launch,
                                           undo_entries_per_thread);
      case PersistModel::Strict:
        return std::make_unique<StrictStrategy>(dev, cfg, launch);
      case PersistModel::EpochBlock:
        return std::make_unique<EpochBlockStrategy>(dev, cfg, launch);
      case PersistModel::EpochKernel:
        return std::make_unique<EpochKernelStrategy>(dev, cfg, launch);
    }
    GPULP_PANIC("bad PersistModel");
}

} // namespace gpulp
