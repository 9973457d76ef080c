#include "runtime.h"

#include <cstring>

namespace gpulp {

LpRuntime::LpRuntime(Device &dev, const LpConfig &cfg,
                     const LaunchConfig &launch)
    : PersistStrategy(cfg, PersistModel::Lazy), dev_(dev)
{
    store_ = makeChecksumStore(dev_, cfg_, launch.numBlocks());
    if (cfg_.reduction == ReductionKind::SequentialGlobal) {
        scratch_ = ArrayRef<uint64_t>::allocate(
            dev_.mem(), launch.numBlocks() * launch.threadsPerBlock());
    }
}

LpContext
LpRuntime::context()
{
    LpContext ctx = PersistStrategy::context();
    ctx.store = store_.get();
    ctx.scratch = scratch_;
    return ctx;
}

void
LpRuntime::regionEnd(ThreadCtx &t, PersistAccum &acc)
{
    lpCommitRegion(t, context(), acc.checksums);
}

LaunchResult
LpRuntime::verdict(Device &dev, const LaunchConfig &launch,
                   RecoverySet &failed, const ValidateFn &validate)
{
    GPULP_ASSERT(validate, "lazy recovery needs a validation kernel");
    return dev.launch(launch,
                      [&](ThreadCtx &t) { validate(t, failed); });
}

uint64_t
LpRuntime::footprintBytes() const
{
    uint64_t bytes = store_->footprintBytes();
    if (scratch_.valid())
        bytes += scratch_.size() * sizeof(uint64_t);
    return bytes;
}

void
LpRuntime::reset()
{
    store_->clear();
    if (scratch_.valid()) {
        std::memset(dev_.mem().raw(scratch_.base()), 0,
                    scratch_.size() * sizeof(uint64_t));
    }
}

} // namespace gpulp
