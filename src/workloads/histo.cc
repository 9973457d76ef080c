#include "histo.h"

#include <cmath>

#include "common/prng.h"

namespace gpulp {

HistoWorkload::HistoWorkload(double scale)
{
    GPULP_ASSERT(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    blocks_ = std::max<uint32_t>(
        2, static_cast<uint32_t>(std::lround(42.0 * scale)));
    items_ = uint64_t{blocks_} * kThreads * kItemsPerThread;
}

LaunchConfig
HistoWorkload::launchConfig() const
{
    return LaunchConfig(Dim3(blocks_), Dim3(kThreads));
}

void
HistoWorkload::setup(Device &dev)
{
    input_ = ArrayRef<uint32_t>::allocate(dev.mem(), items_);
    partial_ = ArrayRef<uint32_t>::allocate(dev.mem(),
                                            uint64_t{blocks_} * kBins);

    // Skewed input (Gaussian-ish around bin 128) so some bins saturate,
    // exercising the "saturating" part of the benchmark.
    Prng rng(0x6869);
    for (uint64_t i = 0; i < items_; ++i) {
        uint32_t v = static_cast<uint32_t>(
            (rng.nextBelow(kBins) + rng.nextBelow(kBins) +
             rng.nextBelow(kBins) + rng.nextBelow(kBins)) /
            4);
        input_.hostAt(i) = v;
    }

    reference_.assign(uint64_t{blocks_} * kBins, 0);
    const uint64_t per_block = uint64_t{kThreads} * kItemsPerThread;
    for (uint32_t b = 0; b < blocks_; ++b) {
        for (uint64_t i = 0; i < per_block; ++i) {
            uint32_t bin = input_.hostAt(uint64_t{b} * per_block + i);
            uint32_t &cell = reference_[uint64_t{b} * kBins + bin];
            if (cell < kSaturation)
                ++cell;
        }
    }
}

void
HistoWorkload::kernel(ThreadCtx &t, const LpContext *lp)
{
    PersistAccum acc = makePersistAccum(lp);

    chargeBlockJitter(t, kJitterSpan);
    auto sh_hist = t.sharedArray<uint32_t>(0, kBins);
    const uint32_t tid = t.flatThreadIdx();
    const uint64_t block = t.blockRank();
    const uint64_t per_block = uint64_t{kThreads} * kItemsPerThread;

    for (uint32_t bin = tid; bin < kBins; bin += kThreads)
        sh_hist.set(bin, 0);
    t.syncthreads();

    // Stream the block's chunk; coalesced stride-kThreads access.
    for (uint32_t i = 0; i < kItemsPerThread; ++i) {
        uint64_t idx = block * per_block +
                       uint64_t{i} * kThreads + tid;
        uint32_t bin = t.load(input_, idx);
        sh_hist.atomicAdd(bin, 1u);
        t.compute(kChargePerItem);
    }
    t.syncthreads();

    // Publish the saturated partial histogram.
    for (uint32_t bin = tid; bin < kBins; bin += kThreads) {
        uint32_t count = sh_hist.get(bin);
        if (count > kSaturation)
            count = kSaturation;
        persistStoreU32(t, lp, acc, partial_, block * kBins + bin, count);
    }
    persistRegionEnd(t, lp, acc);
}

void
HistoWorkload::validation(ThreadCtx &t, const LpContext &lp,
                          RecoverySet &failed)
{
    ChecksumAccum acc(lp.cfg->checksum);
    const uint32_t tid = t.flatThreadIdx();
    const uint64_t block = t.blockRank();
    for (uint32_t bin = tid; bin < kBins; bin += kThreads)
        acc.protectU32(t, t.load(partial_, block * kBins + bin));
    bool ok = lpValidateRegion(t, lp, acc);
    if (t.flatThreadIdx() == 0 && !ok)
        failed.markFailed(t, t.blockRank());
}

bool
HistoWorkload::verify(std::string *why) const
{
    for (uint64_t i = 0; i < reference_.size(); ++i) {
        if (partial_.hostAt(i) != reference_[i]) {
            if (why) {
                *why = detail::formatString(
                    "partial[%llu] = %u, want %u",
                    static_cast<unsigned long long>(i), partial_.hostAt(i),
                    reference_[i]);
            }
            return false;
        }
    }
    return true;
}

uint64_t
HistoWorkload::outputBytes() const
{
    return partial_.size() * sizeof(uint32_t);
}

std::vector<OutputSpan>
HistoWorkload::outputSpans() const
{
    return {{partial_.base(), partial_.size() * sizeof(uint32_t)}};
}

std::vector<OutputSpan>
HistoWorkload::blockOutputSpans(uint64_t rank) const
{
    // One saturated partial per block: block b owns
    // partial_[b*kBins, (b+1)*kBins).
    return {{partial_.addrOf(rank * kBins), kBins * sizeof(uint32_t)}};
}

} // namespace gpulp
