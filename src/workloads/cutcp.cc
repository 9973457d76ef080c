#include "cutcp.h"

#include <cmath>

#include "common/prng.h"

namespace gpulp {

CutcpWorkload::CutcpWorkload(double scale)
{
    GPULP_ASSERT(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    blocks_ = std::max<uint32_t>(
        2, static_cast<uint32_t>(std::lround(128.0 * scale)));
    points_ = uint64_t{blocks_} * kThreads;
}

LaunchConfig
CutcpWorkload::launchConfig() const
{
    return LaunchConfig(Dim3(blocks_), Dim3(kThreads));
}

void
CutcpWorkload::setup(Device &dev)
{
    atom_x_ = ArrayRef<float>::allocate(dev.mem(), kAtoms);
    atom_q_ = ArrayRef<float>::allocate(dev.mem(), kAtoms);
    pot_ = ArrayRef<float>::allocate(dev.mem(), points_);

    Prng rng(0x6375);
    float span = static_cast<float>(points_) * 0.05f;
    for (uint32_t a = 0; a < kAtoms; ++a) {
        atom_x_.hostAt(a) = rng.nextFloat(0.0f, span);
        atom_q_.hostAt(a) = rng.nextFloat(-1.0f, 1.0f);
    }

    reference_.assign(points_, 0.0f);
    for (uint64_t p = 0; p < points_; ++p) {
        float x = static_cast<float>(p) * 0.05f;
        float sum = 0.0f;
        for (uint32_t a = 0; a < kAtoms; ++a) {
            float dx = x - atom_x_.hostAt(a);
            float d2 = dx * dx;
            if (d2 < kCutoff2)
                sum += atom_q_.hostAt(a) / std::sqrt(d2 + 0.25f);
        }
        reference_[p] = sum;
    }
}

void
CutcpWorkload::kernel(ThreadCtx &t, const LpContext *lp)
{
    PersistAccum acc = makePersistAccum(lp);

    // Atoms are staged in shared memory once per block, as the Parboil
    // kernel does.
    chargeBlockJitter(t, kJitterSpan);
    auto sh_x = t.sharedArray<float>(0, kAtoms);
    auto sh_q = t.sharedArray<float>(1, kAtoms);
    const uint32_t tid = t.flatThreadIdx();
    for (uint32_t a = tid; a < kAtoms; a += kThreads) {
        sh_x.set(a, t.load(atom_x_, a));
        sh_q.set(a, t.load(atom_q_, a));
    }
    t.syncthreads();

    const uint64_t p = t.globalThreadIdx();
    float x = static_cast<float>(p) * 0.05f;
    float sum = 0.0f;
    for (uint32_t a = 0; a < kAtoms; ++a) {
        float dx = x - sh_x.get(a);
        float d2 = dx * dx;
        if (d2 < kCutoff2)
            sum += sh_q.get(a) / std::sqrt(d2 + 0.25f);
        t.compute(kChargePerAtom);
    }
    persistStoreF(t, lp, acc, pot_, p, sum);
    persistRegionEnd(t, lp, acc);
}

void
CutcpWorkload::validation(ThreadCtx &t, const LpContext &lp,
                          RecoverySet &failed)
{
    ChecksumAccum acc(lp.cfg->checksum);
    acc.protectFloat(t, t.load(pot_, t.globalThreadIdx()));
    bool ok = lpValidateRegion(t, lp, acc);
    if (t.flatThreadIdx() == 0 && !ok)
        failed.markFailed(t, t.blockRank());
}

bool
CutcpWorkload::verify(std::string *why) const
{
    for (uint64_t p = 0; p < points_; ++p) {
        if (std::fabs(pot_.hostAt(p) - reference_[p]) > 1e-4f) {
            if (why) {
                *why = detail::formatString(
                    "pot[%llu] = %f, want %f",
                    static_cast<unsigned long long>(p),
                    static_cast<double>(pot_.hostAt(p)),
                    static_cast<double>(reference_[p]));
            }
            return false;
        }
    }
    return true;
}

uint64_t
CutcpWorkload::outputBytes() const
{
    return pot_.size() * sizeof(float);
}

std::vector<OutputSpan>
CutcpWorkload::outputSpans() const
{
    return {{pot_.base(), pot_.size() * sizeof(float)}};
}

std::vector<OutputSpan>
CutcpWorkload::blockOutputSpans(uint64_t rank) const
{
    // One lattice point per thread: block b owns
    // pot_[b*kThreads, (b+1)*kThreads).
    return {{pot_.addrOf(rank * kThreads), kThreads * sizeof(float)}};
}

} // namespace gpulp
