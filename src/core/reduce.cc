#include "reduce.h"

#include <bit>

namespace gpulp {

namespace {

/** Steps of Listing 4's tree: offsets 16, 8, 4, 2, 1. */
constexpr uint32_t kTreeSteps = std::countr_zero(kWarpSize);

/**
 * One shfl_down step of Listing 4's tree, replayed on a warp
 * collective's lane slots. It charges exactly what one per-lane
 * shuffle round would: every depositing lane resumes one shuffle after
 * the step's latest arrival. A lane whose source (lane + offset) lies
 * below the live count (the number of lanes that deposited) then
 * folds the source's value, or its own when
 * the source did not deposit, and pays @p ops compute. Lanes are
 * visited in ascending order, so a source (always a higher lane) is
 * read before this step overwrites it.
 */
template <typename Fold>
void
treeStep(WarpLanes &x, const TimingParams &params, uint32_t offset,
         uint64_t ops, Fold fold)
{
    const Cycles resume = x.maxCycle() + params.shuffle_cycles;
    const uint32_t live = static_cast<uint32_t>(std::popcount(x.deposited));
    for (uint32_t bits = x.deposited; bits != 0; bits &= bits - 1) {
        const uint32_t lane =
            static_cast<uint32_t>(std::countr_zero(bits));
        const uint32_t src = lane + offset;
        x.cycles[lane] = resume;
        if (src < live) {
            const bool in_range =
                src < kWarpSize && (x.deposited >> src & 1);
            x.value[lane] =
                fold(x.value[lane], in_range ? x.value[src] : x.value[lane]);
            x.cycles[lane] += ops * params.compute_cycles;
        }
    }
}

/** Fold one checksum half of @p got into @p mine, keeping the other. */
uint64_t
foldSum(uint64_t mine, uint64_t got)
{
    Checksums cs = unpackChecksums(mine);
    cs.sum += unpackChecksums(got).sum;
    return packChecksums(cs);
}

uint64_t
foldParity(uint64_t mine, uint64_t got)
{
    Checksums cs = unpackChecksums(mine);
    cs.parity ^= unpackChecksums(got).parity;
    return packChecksums(cs);
}

uint64_t
foldBoth(uint64_t mine, uint64_t got)
{
    Checksums cs = unpackChecksums(mine);
    cs.merge(unpackChecksums(got));
    return packChecksums(cs);
}

/** Listing 4 with one 32-bit shuffle per step per active checksum. */
void
releaseChecksumTree(WarpLanes &x, const TimingParams &params)
{
    const auto kind = static_cast<ChecksumKind>(x.arg);
    for (uint32_t offset = kWarpSize / 2; offset > 0; offset /= 2) {
        if (kind != ChecksumKind::Parity)
            treeStep(x, params, offset, 1, foldSum);
        if (kind != ChecksumKind::Modular)
            treeStep(x, params, offset, 1, foldParity);
    }
}

/** The fused tree: both checksums in one 64-bit shuffle per step. */
void
releaseFusedTree(WarpLanes &x, const TimingParams &params)
{
    for (uint32_t offset = kWarpSize / 2; offset > 0; offset /= 2)
        treeStep(x, params, offset, 2, foldBoth);
}

} // namespace

Checksums
warpReduceChecksums(ThreadCtx &t, Checksums local, ChecksumKind kind)
{
    const uint32_t words = kind == ChecksumKind::ModularParity ? 2 : 1;
    return unpackChecksums(t.warpCollective(
        packChecksums(local), &releaseChecksumTree,
        static_cast<uint64_t>(kind), kTreeSteps * words));
}

Checksums
warpReduceFused(ThreadCtx &t, Checksums local)
{
    return unpackChecksums(t.warpCollective(
        packChecksums(local), &releaseFusedTree, 0, kTreeSteps));
}

namespace {

/**
 * Listing 3 around a warp reduction: warp leaders park their results
 * in shared memory, and warp 0 reduces the parked values.
 */
template <typename WarpReduce>
Checksums
blockReduceVia(ThreadCtx &t, Checksums local, WarpReduce warp_reduce)
{
    Checksums warp_sum = warp_reduce(local);

    auto parked =
        t.sharedArray<uint64_t>(kLpReduceSharedSlot, kWarpSize);
    if (t.laneId() == 0)
        parked.set(t.warpId(), packChecksums(warp_sum));
    t.syncthreads();

    Checksums result{};
    if (t.warpId() == 0) {
        Checksums mine = t.laneId() < t.numWarps()
                             ? unpackChecksums(parked.get(t.laneId()))
                             : Checksums{};
        result = warp_reduce(mine);
    }
    // Second barrier so a subsequent region in the same kernel can
    // safely reuse the parked slot.
    t.syncthreads();
    return result;
}

} // namespace

Checksums
blockReduceParallel(ThreadCtx &t, Checksums local, ChecksumKind kind)
{
    return blockReduceVia(t, local, [&](Checksums cs) {
        return warpReduceChecksums(t, cs, kind);
    });
}

Checksums
blockReduceParallelFused(ThreadCtx &t, Checksums local)
{
    return blockReduceVia(
        t, local, [&](Checksums cs) { return warpReduceFused(t, cs); });
}

Checksums
blockReduceSequentialGlobal(ThreadCtx &t, Checksums local,
                            ChecksumKind kind, ArrayRef<uint64_t> &scratch)
{
    (void)kind;
    t.store(scratch, t.globalThreadIdx(), packChecksums(local));
    t.syncthreads();

    Checksums result{};
    if (t.flatThreadIdx() == 0) {
        uint64_t threads = t.blockDim().count();
        uint64_t base = t.blockRank() * threads;
        for (uint64_t i = 0; i < threads; ++i) {
            result.merge(unpackChecksums(t.load(scratch, base + i)));
            t.compute(2);
        }
    }
    t.syncthreads();
    return result;
}

} // namespace gpulp
