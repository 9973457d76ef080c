#include "mri_gridding.h"

#include <cmath>

#include "common/prng.h"

namespace gpulp {

MriGriddingWorkload::MriGriddingWorkload(double scale)
{
    GPULP_ASSERT(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    blocks_ = std::max<uint32_t>(
        2, static_cast<uint32_t>(std::lround(65536.0 * scale)));
}

LaunchConfig
MriGriddingWorkload::launchConfig() const
{
    return LaunchConfig(Dim3(blocks_), Dim3(kThreads));
}

float
MriGriddingWorkload::weightOf(float d)
{
    // Cheap stand-in for the Kaiser-Bessel window: smooth, positive,
    // decaying with |d|.
    return 1.0f / (1.0f + d * d);
}

void
MriGriddingWorkload::setup(Device &dev)
{
    const uint64_t samples = uint64_t{blocks_} * kSamplesPerBin;
    sample_val_ = ArrayRef<float>::allocate(dev.mem(), samples);
    sample_pos_ = ArrayRef<float>::allocate(dev.mem(), samples);
    grid_ = ArrayRef<float>::allocate(dev.mem(),
                                      uint64_t{blocks_} * kCellsPerBlock);

    Prng rng(0x6D72);
    for (uint64_t s = 0; s < samples; ++s) {
        sample_val_.hostAt(s) = rng.nextFloat(-2.0f, 2.0f);
        sample_pos_.hostAt(s) =
            rng.nextFloat(0.0f, static_cast<float>(kCellsPerBlock));
    }

    reference_.assign(uint64_t{blocks_} * kCellsPerBlock, 0.0f);
    for (uint32_t b = 0; b < blocks_; ++b) {
        for (uint32_t cell = 0; cell < kCellsPerBlock; ++cell) {
            float sum = 0.0f;
            for (uint32_t s = 0; s < kSamplesPerBin; ++s) {
                uint64_t idx = uint64_t{b} * kSamplesPerBin + s;
                float d = sample_pos_.hostAt(idx) -
                          static_cast<float>(cell);
                sum += sample_val_.hostAt(idx) * weightOf(d);
            }
            reference_[uint64_t{b} * kCellsPerBlock + cell] = sum;
        }
    }
}

void
MriGriddingWorkload::kernel(ThreadCtx &t, const LpContext *lp)
{
    PersistAccum acc = makePersistAccum(lp);

    chargeBlockJitter(t, kJitterSpan);
    const uint64_t block = t.blockRank();

    for (uint32_t cell = t.flatThreadIdx(); cell < kCellsPerBlock;
         cell += kThreads) {
        float sum = 0.0f;
        for (uint32_t s = 0; s < kSamplesPerBin; ++s) {
            uint64_t idx = block * kSamplesPerBin + s;
            float d = t.load(sample_pos_, idx) - static_cast<float>(cell);
            sum += t.load(sample_val_, idx) * weightOf(d);
            t.compute(kChargePerSample);
        }
        persistStoreF(t, lp, acc, grid_, block * kCellsPerBlock + cell,
                      sum);
    }
    persistRegionEnd(t, lp, acc);
}

void
MriGriddingWorkload::validation(ThreadCtx &t, const LpContext &lp,
                                RecoverySet &failed)
{
    ChecksumAccum acc(lp.cfg->checksum);
    for (uint32_t cell = t.flatThreadIdx(); cell < kCellsPerBlock;
         cell += kThreads) {
        acc.protectFloat(
            t, t.load(grid_, t.blockRank() * kCellsPerBlock + cell));
    }
    bool ok = lpValidateRegion(t, lp, acc);
    if (t.flatThreadIdx() == 0 && !ok)
        failed.markFailed(t, t.blockRank());
}

bool
MriGriddingWorkload::verify(std::string *why) const
{
    for (uint64_t i = 0; i < reference_.size(); ++i) {
        if (std::fabs(grid_.hostAt(i) - reference_[i]) > 1e-4f) {
            if (why) {
                *why = detail::formatString(
                    "grid[%llu] = %f, want %f",
                    static_cast<unsigned long long>(i),
                    static_cast<double>(grid_.hostAt(i)),
                    static_cast<double>(reference_[i]));
            }
            return false;
        }
    }
    return true;
}

uint64_t
MriGriddingWorkload::outputBytes() const
{
    return grid_.size() * sizeof(float);
}

std::vector<OutputSpan>
MriGriddingWorkload::outputSpans() const
{
    return {{grid_.base(), grid_.size() * sizeof(float)}};
}

std::vector<OutputSpan>
MriGriddingWorkload::blockOutputSpans(uint64_t rank) const
{
    // One grid tile per block: block b owns
    // grid_[b*kCellsPerBlock, (b+1)*kCellsPerBlock).
    return {{grid_.addrOf(rank * kCellsPerBlock), kCellsPerBlock * sizeof(float)}};
}

} // namespace gpulp
