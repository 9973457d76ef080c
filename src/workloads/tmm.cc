#include "tmm.h"

#include <cmath>

#include "common/prng.h"

namespace gpulp {

TmmWorkload::TmmWorkload(double scale)
{
    GPULP_ASSERT(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    grid_ = std::max<uint32_t>(
        2, static_cast<uint32_t>(std::lround(128.0 * std::sqrt(scale))));
    n_ = grid_ * kTile;
}

LaunchConfig
TmmWorkload::launchConfig() const
{
    return LaunchConfig(Dim3(grid_, grid_), Dim3(kTile, kTile));
}

void
TmmWorkload::setup(Device &dev)
{
    a_ = ArrayRef<float>::allocate(dev.mem(), uint64_t{n_} * kDepth);
    b_ = ArrayRef<float>::allocate(dev.mem(), uint64_t{kDepth} * n_);
    c_ = ArrayRef<float>::allocate(dev.mem(), uint64_t{n_} * n_);

    Prng rng(0x7177);
    for (size_t i = 0; i < a_.size(); ++i)
        a_.hostAt(i) = rng.nextFloat(-1.0f, 1.0f);
    for (size_t i = 0; i < b_.size(); ++i)
        b_.hostAt(i) = rng.nextFloat(-1.0f, 1.0f);

    // Host reference, same accumulation order as the kernel: every
    // output sums k = 0..kDepth-1 in order, starting from 0.0f. The k
    // loop walks whole rows of B, so the column loop vectorizes.
    reference_.assign(uint64_t{n_} * n_, 0.0f);
    const float *a = &a_.hostAt(0);
    const float *b = &b_.hostAt(0);
    for (uint32_t row = 0; row < n_; ++row) {
        float *out = reference_.data() + uint64_t{row} * n_;
        for (uint32_t k = 0; k < kDepth; ++k) {
            const float a_rk = a[uint64_t{row} * kDepth + k];
            const float *b_row = b + uint64_t{k} * n_;
            for (uint32_t col = 0; col < n_; ++col)
                out[col] += a_rk * b_row[col];
        }
    }
}

void
TmmWorkload::kernel(ThreadCtx &t, const LpContext *lp)
{
    PersistAccum acc = makePersistAccum(lp);

    chargeBlockJitter(t, kJitterSpan);
    auto tile_a = t.sharedArray<float>(0, kTile * kTile);
    auto tile_b = t.sharedArray<float>(1, kTile * kTile);

    const uint32_t tx = t.threadIdx().x;
    const uint32_t ty = t.threadIdx().y;
    const uint32_t row = t.blockIdx().y * kTile + ty;
    const uint32_t col = t.blockIdx().x * kTile + tx;

    float sum = 0.0f;
    for (uint32_t kk = 0; kk < kDepth; kk += kTile) {
        tile_a.set(ty * kTile + tx,
                   t.load(a_, uint64_t{row} * kDepth + kk + tx));
        tile_b.set(ty * kTile + tx,
                   t.load(b_, uint64_t{kk + ty} * n_ + col));
        t.syncthreads();
        for (uint32_t k = 0; k < kTile; ++k) {
            sum += tile_a.get(ty * kTile + k) * tile_b.get(k * kTile + tx);
        }
        // Stand-in for the full-depth k-loop of the paper's input.
        t.compute(kChargePerKTile);
        t.syncthreads();
    }

    persistStoreF(t, lp, acc, c_, uint64_t{row} * n_ + col, sum);
    persistRegionEnd(t, lp, acc);
}

void
TmmWorkload::validation(ThreadCtx &t, const LpContext &lp,
                        RecoverySet &failed)
{
    // Recompute the block checksum from the output tile in memory.
    ChecksumAccum acc(lp.cfg->checksum);
    const uint32_t row = t.blockIdx().y * kTile + t.threadIdx().y;
    const uint32_t col = t.blockIdx().x * kTile + t.threadIdx().x;
    acc.protectFloat(t, t.load(c_, uint64_t{row} * n_ + col));
    bool ok = lpValidateRegion(t, lp, acc);
    if (t.flatThreadIdx() == 0 && !ok)
        failed.markFailed(t, t.blockRank());
}

bool
TmmWorkload::verify(std::string *why) const
{
    for (uint64_t i = 0; i < reference_.size(); ++i) {
        float got = c_.hostAt(i);
        if (std::fabs(got - reference_[i]) > 1e-3f) {
            if (why) {
                *why = detail::formatString(
                    "c[%llu] = %f, want %f",
                    static_cast<unsigned long long>(i), got,
                    static_cast<double>(reference_[i]));
            }
            return false;
        }
    }
    return true;
}

uint64_t
TmmWorkload::outputBytes() const
{
    return c_.size() * sizeof(float);
}

std::vector<OutputSpan>
TmmWorkload::outputSpans() const
{
    return {{c_.base(), c_.size() * sizeof(float)}};
}

std::vector<OutputSpan>
TmmWorkload::blockOutputSpans(uint64_t rank) const
{
    // Block (bx, by) owns the kTile x kTile output tile at
    // (by*kTile, bx*kTile): kTile row fragments of kTile floats.
    const uint64_t by = rank / grid_;
    const uint64_t bx = rank % grid_;
    std::vector<OutputSpan> spans;
    spans.reserve(kTile);
    for (uint32_t r = 0; r < kTile; ++r) {
        uint64_t row = by * kTile + r;
        uint64_t col = bx * kTile;
        spans.push_back(
            {c_.addrOf(row * n_ + col), kTile * sizeof(float)});
    }
    return spans;
}

} // namespace gpulp
