#include "tpacf.h"

#include <cmath>

#include "common/prng.h"

namespace gpulp {

TpacfWorkload::TpacfWorkload(double scale)
{
    GPULP_ASSERT(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    blocks_ = std::max<uint32_t>(
        2, static_cast<uint32_t>(std::lround(512.0 * scale)));
}

LaunchConfig
TpacfWorkload::launchConfig() const
{
    return LaunchConfig(Dim3(blocks_), Dim3(kThreads));
}

uint32_t
TpacfWorkload::binOf(float dot)
{
    // Map cos(angle) in [-1, 1] onto kBins equal-width bins.
    float clamped = std::fmin(1.0f, std::fmax(-1.0f, dot));
    uint32_t bin = static_cast<uint32_t>((clamped + 1.0f) * 0.5f *
                                         static_cast<float>(kBins));
    return bin >= kBins ? kBins - 1 : bin;
}

void
TpacfWorkload::setup(Device &dev)
{
    const uint64_t points = uint64_t{blocks_} * kPointsPerBlock;
    data_ = ArrayRef<float>::allocate(dev.mem(), points * 3);
    random_ = ArrayRef<float>::allocate(dev.mem(), uint64_t{kCompare} * 3);
    hist_ = ArrayRef<uint32_t>::allocate(dev.mem(),
                                         uint64_t{blocks_} * kBins);

    Prng rng(0x7061);
    auto unit_point = [&](ArrayRef<float> &array, uint64_t idx) {
        // Uniform point on the unit sphere.
        float z = rng.nextFloat(-1.0f, 1.0f);
        float phi = rng.nextFloat(0.0f, 6.2831853f);
        float r = std::sqrt(std::fmax(0.0f, 1.0f - z * z));
        array.hostAt(idx * 3 + 0) = r * std::cos(phi);
        array.hostAt(idx * 3 + 1) = r * std::sin(phi);
        array.hostAt(idx * 3 + 2) = z;
    };
    for (uint64_t p = 0; p < points; ++p)
        unit_point(data_, p);
    for (uint64_t p = 0; p < kCompare; ++p)
        unit_point(random_, p);

    // Host reference partial histograms.
    reference_.assign(uint64_t{blocks_} * kBins, 0);
    for (uint32_t b = 0; b < blocks_; ++b) {
        for (uint32_t p = 0; p < kPointsPerBlock; ++p) {
            uint64_t dp = (uint64_t{b} * kPointsPerBlock + p) * 3;
            for (uint32_t q = 0; q < kCompare; ++q) {
                float dot = data_.hostAt(dp) * random_.hostAt(q * 3) +
                            data_.hostAt(dp + 1) * random_.hostAt(q * 3 + 1) +
                            data_.hostAt(dp + 2) * random_.hostAt(q * 3 + 2);
                ++reference_[uint64_t{b} * kBins + binOf(dot)];
            }
        }
    }
}

void
TpacfWorkload::kernel(ThreadCtx &t, const LpContext *lp)
{
    PersistAccum acc = makePersistAccum(lp);

    chargeBlockJitter(t, kJitterSpan);
    auto sh_hist = t.sharedArray<uint32_t>(0, kBins);
    const uint32_t tid = t.flatThreadIdx();
    const uint64_t block = t.blockRank();

    // Zero the privatized histogram.
    for (uint32_t bin = tid; bin < kBins; bin += kThreads)
        sh_hist.set(bin, 0);
    t.syncthreads();

    // Each thread strides over (point, comparison) pairs of its block.
    const uint32_t pairs = kPointsPerBlock * kCompare;
    for (uint32_t pair = tid; pair < pairs; pair += kThreads) {
        uint32_t p = pair / kCompare;
        uint32_t q = pair % kCompare;
        uint64_t dp = (block * kPointsPerBlock + p) * 3;
        float dot = t.load(data_, dp) * t.load(random_, uint64_t{q} * 3) +
                    t.load(data_, dp + 1) *
                        t.load(random_, uint64_t{q} * 3 + 1) +
                    t.load(data_, dp + 2) *
                        t.load(random_, uint64_t{q} * 3 + 2);
        sh_hist.atomicAdd(binOf(dot), 1u);
        // Stand-in for the full "biggest input" pair count.
        t.compute(kChargePerPair);
    }
    t.syncthreads();

    // Publish the block's partial histogram (the persistent output).
    for (uint32_t bin = tid; bin < kBins; bin += kThreads) {
        uint32_t count = sh_hist.get(bin);
        persistStoreU32(t, lp, acc, hist_, block * kBins + bin, count);
    }
    persistRegionEnd(t, lp, acc);
}

void
TpacfWorkload::validation(ThreadCtx &t, const LpContext &lp,
                          RecoverySet &failed)
{
    ChecksumAccum acc(lp.cfg->checksum);
    const uint32_t tid = t.flatThreadIdx();
    const uint64_t block = t.blockRank();
    for (uint32_t bin = tid; bin < kBins; bin += kThreads)
        acc.protectU32(t, t.load(hist_, block * kBins + bin));
    bool ok = lpValidateRegion(t, lp, acc);
    if (t.flatThreadIdx() == 0 && !ok)
        failed.markFailed(t, t.blockRank());
}

bool
TpacfWorkload::verify(std::string *why) const
{
    for (uint64_t i = 0; i < reference_.size(); ++i) {
        if (hist_.hostAt(i) != reference_[i]) {
            if (why) {
                *why = detail::formatString(
                    "hist[%llu] = %u, want %u",
                    static_cast<unsigned long long>(i), hist_.hostAt(i),
                    reference_[i]);
            }
            return false;
        }
    }
    return true;
}

uint64_t
TpacfWorkload::outputBytes() const
{
    return hist_.size() * sizeof(uint32_t);
}

std::vector<OutputSpan>
TpacfWorkload::outputSpans() const
{
    return {{hist_.base(), hist_.size() * sizeof(uint32_t)}};
}

std::vector<OutputSpan>
TpacfWorkload::blockOutputSpans(uint64_t rank) const
{
    // One partial histogram per block: block b owns
    // hist_[b*kBins, (b+1)*kBins).
    return {{hist_.addrOf(rank * kBins), kBins * sizeof(uint32_t)}};
}

} // namespace gpulp
