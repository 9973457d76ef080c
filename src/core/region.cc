#include "region.h"

#include "obs/counters.h"

namespace gpulp {

Checksums
lpReduceBlock(ThreadCtx &t, const LpContext &lp, const ChecksumAccum &acc)
{
    GPULP_ASSERT(lp.cfg != nullptr && lp.store != nullptr,
                 "LP context not initialized");
    switch (lp.cfg->reduction) {
      case ReductionKind::ParallelShuffle:
        return blockReduceParallel(t, acc.value(), lp.cfg->checksum);
      case ReductionKind::ParallelFused:
        GPULP_ASSERT(lp.cfg->checksum == ChecksumKind::ModularParity,
                     "fused reduction carries exactly two checksums");
        return blockReduceParallelFused(t, acc.value());
      case ReductionKind::SequentialGlobal: {
        LpContext &mutable_lp = const_cast<LpContext &>(lp);
        GPULP_ASSERT(mutable_lp.scratch.valid(),
                     "sequential reduction needs a scratch array");
        return blockReduceSequentialGlobal(t, acc.value(),
                                           lp.cfg->checksum,
                                           mutable_lp.scratch);
      }
    }
    GPULP_PANIC("bad ReductionKind");
}

void
lpCommitRegion(ThreadCtx &t, const LpContext &lp, const ChecksumAccum &acc)
{
    // One counter per block region, recorded by block-thread 0. The
    // fold's own span is opened by its release (core/reduce.cc).
    Checksums cs = lpReduceBlock(t, lp, acc);
    if (t.flatThreadIdx() == 0) {
        obs::add(obs::Ctr::CoreRegionCommits);
        lp.store->insert(t, static_cast<uint32_t>(t.blockRank()), cs);
    }
}

bool
lpValidateRegion(ThreadCtx &t, const LpContext &lp,
                 const ChecksumAccum &recomputed)
{
    Checksums cs = lpReduceBlock(t, lp, recomputed);
    if (t.flatThreadIdx() != 0)
        return false;
    obs::add(obs::Ctr::CoreRegionValidates);
    Checksums stored;
    if (!lp.store->lookup(static_cast<uint32_t>(t.blockRank()), &stored))
        return false;
    return stored == cs;
}

} // namespace gpulp
