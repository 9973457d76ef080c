#include "reduce.h"

#include <algorithm>
#include <array>
#include <bit>

#include "obs/counters.h"
#include "obs/trace.h"

namespace gpulp {

namespace {

/** Steps of Listing 4's tree: offsets 16, 8, 4, 2, 1. */
constexpr uint32_t kTreeSteps = std::countr_zero(kWarpSize);

/** The fused tree's argument, beside the ChecksumKind values. */
constexpr uint64_t kFusedTree = uint64_t{1} << 8;

/**
 * One warp's lane slots, scratch for replaying Listing 4's tree step
 * by step on a partial warp. Each lane that deposited holds its value
 * and cycle counter in its own slot; a step overwrites them with the
 * lane's value and cycle after the step.
 */
struct WarpLanes {
    uint32_t deposited = 0; //!< bitmask of lanes that deposited
    std::array<uint64_t, kWarpSize> value{};
    std::array<Cycles, kWarpSize> cycles{};

    /** Latest cycle counter over the depositing lanes. */
    Cycles
    maxCycle() const
    {
        Cycles m = 0;
        for (uint32_t bits = deposited; bits != 0; bits &= bits - 1)
            m = std::max(m, cycles[std::countr_zero(bits)]);
        return m;
    }
};

/**
 * One shuffle of Listing 4's tree at each offset: the checksum halves
 * it carries and folds, and the compute ops a folding lane pays.
 */
struct TreePass {
    bool sum;
    bool parity;
    uint64_t ops;
};

/**
 * Listing 4's tree: its passes, run in order at each offset. The one
 * description both the replay and a full warp's closed form read.
 */
struct Tree {
    std::array<TreePass, 2> pass;
    uint32_t passes;

    /** Shuffle steps each lane models (sim.shuffles). */
    uint32_t steps() const { return kTreeSteps * passes; }
};

/**
 * The tree a block fold names by @p arg: a ChecksumKind (one 32-bit
 * shuffle per step per active checksum) or kFusedTree (both checksums
 * in one 64-bit shuffle per step).
 */
Tree
treeOf(uint64_t arg)
{
    constexpr TreePass kSum{true, false, 1};
    constexpr TreePass kParity{false, true, 1};
    if (arg == kFusedTree)
        return {{TreePass{true, true, 2}}, 1};
    switch (static_cast<ChecksumKind>(arg)) {
    case ChecksumKind::Modular:
        return {{kSum}, 1};
    case ChecksumKind::Parity:
        return {{kParity}, 1};
    case ChecksumKind::ModularParity:
        break;
    }
    return {{kSum, kParity}, 2};
}

/** Fold the halves @p pass carries of @p got into @p mine. */
uint64_t
foldPass(const TreePass &pass, uint64_t mine, uint64_t got)
{
    Checksums cs = unpackChecksums(mine);
    const Checksums g = unpackChecksums(got);
    if (pass.sum)
        cs.sum += g.sum;
    if (pass.parity)
        cs.parity ^= g.parity;
    return packChecksums(cs);
}

/**
 * One shfl_down step of Listing 4's tree, replayed on a warp's lane
 * slots. It charges exactly what one per-lane shuffle round would:
 * every depositing lane resumes one shuffle after the step's latest
 * arrival. A lane whose source (lane + offset) lies below the live
 * count (the number of lanes that deposited) then folds the source's
 * value, or its own when the source did not deposit, and pays the
 * pass's compute. Lanes are visited in ascending order, so a source
 * (always a higher lane) is read before this step overwrites it.
 */
void
treeStep(WarpLanes &x, const TimingParams &params, uint32_t offset,
         const TreePass &pass)
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
            x.value[lane] = foldPass(
                pass, x.value[lane], in_range ? x.value[src] : x.value[lane]);
            x.cycles[lane] += pass.ops * params.compute_cycles;
        }
    }
}

/** Replay @p tree step by step on the lanes that deposited in @p x. */
void
replayTree(WarpLanes &x, const TimingParams &params, const Tree &tree)
{
    for (uint32_t offset = kWarpSize / 2; offset > 0; offset /= 2)
        for (uint32_t i = 0; i < tree.passes; ++i)
            treeStep(x, params, offset, tree.pass[i]);
}

/** What one warp's tree leaves for the rest of the fold. */
struct WarpFold {
    uint64_t lead;     //!< lane 0's value (if lane 0 arrived)
    Cycles lead_cycle; //!< lane 0's cycle after the tree
    Cycles done;       //!< the latest lane's cycle after the tree
};

/**
 * Run @p tree over the lanes in @p mask, whose deposits are
 * value[lane] and cycles[lane]. A full warp's tree has a closed form:
 * each pass resumes every lane one shuffle after the latest, and lane 0
 * folds in every pass, so it stays the latest and ends up holding the
 * whole warp's fold. Any other warp replays the tree in @p scratch.
 */
WarpFold
foldWarp(const Tree &tree, uint32_t mask, const uint64_t *value,
         const Cycles *cycles, const TimingParams &params,
         WarpLanes &scratch)
{
    if (mask == ~0u) {
        uint64_t acc = value[0];
        Cycles latest = cycles[0];
        Cycles per_offset = 0;
        for (uint32_t i = 0; i < tree.passes; ++i) {
            const TreePass &pass = tree.pass[i];
            for (uint32_t lane = 1; lane < kWarpSize; ++lane)
                acc = foldPass(pass, acc, value[lane]);
            per_offset +=
                params.shuffle_cycles + pass.ops * params.compute_cycles;
        }
        for (uint32_t lane = 1; lane < kWarpSize; ++lane)
            latest = std::max(latest, cycles[lane]);
        const Cycles done = latest + kTreeSteps * per_offset;
        return {acc, done, done};
    }
    scratch.deposited = mask;
    for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
        const uint32_t lane =
            static_cast<uint32_t>(std::countr_zero(bits));
        scratch.value[lane] = value[lane];
        scratch.cycles[lane] = cycles[lane];
    }
    replayTree(scratch, params, tree);
    return {scratch.value[0], scratch.cycles[0], scratch.maxCycle()};
}

/**
 * Listing 3 as one block rendezvous release: every warp's tree, warp
 * leaders parking their results in kLpReduceSharedSlot, a barrier,
 * warp 0's tree over the parked values, and a second barrier. Thread
 * 0's slot gets the block's fold. A warp whose lane 0 did not arrive
 * parks nothing, so warp 0 reads whatever that slot holds.
 */
Cycles
releaseBlockFold(const Rendezvous &rv, BlockLanes &x, BlockState &block)
{
    obs::TraceSpan span("checksum_fold", "core", block.rank(), "block");
    const TimingParams &p = block.params();
    const Tree tree = treeOf(rv.arg);
    const uint32_t warps = block.numWarps();
    auto *parked = reinterpret_cast<uint64_t *>(block.sharedRaw(
        block.sharedSlot(kLpReduceSharedSlot, kWarpSize * sizeof(uint64_t))));
    WarpLanes scratch;

    Cycles latest = 0; // the first barrier's latest arrival
    for (uint32_t w = 0; w < warps; ++w) {
        const uint32_t mask = x.lanes[w];
        if (mask == 0)
            continue;
        const WarpFold f =
            foldWarp(tree, mask, &x.value[w * kWarpSize],
                     &x.cycles[w * kWarpSize], p, scratch);
        latest = std::max(latest, f.done);
        if (mask & 1) {
            parked[w] = f.lead;
            latest = std::max(latest, f.lead_cycle + p.shared_access_cycles);
        }
    }
    const Cycles resumed = latest + p.barrier_cycles;
    const uint32_t mask0 = x.lanes[0];
    if (mask0 == 0)
        return resumed + p.barrier_cycles;

    // Warp 0's lanes below the warp count load one parked value each;
    // the others fold zero.
    for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
        const bool loads = lane < warps;
        scratch.value[lane] = loads ? parked[lane] : 0;
        scratch.cycles[lane] =
            resumed + (loads ? p.shared_access_cycles : 0);
    }
    const WarpFold f = foldWarp(tree, mask0, scratch.value.data(),
                                scratch.cycles.data(), p, scratch);
    if (mask0 & 1)
        x.value[0] = f.lead;
    return f.done + p.barrier_cycles;
}

/**
 * Arrive at the block fold and, on flat thread 0, wait for its value.
 * Counts what Listing 3 models per thread: two barriers, its warp's
 * tree, and on warp 0 the second tree.
 */
Checksums
foldBlock(ThreadCtx &t, Checksums local, uint64_t arg)
{
    t.blockArrive(packChecksums(local), &releaseBlockFold, arg);
    const uint32_t steps = treeOf(arg).steps();
    obs::add(obs::Ctr::SimBarrierWaits, 2);
    obs::add(obs::Ctr::SimShuffles, t.warpId() == 0 ? 2 * steps : steps);
    if (t.flatThreadIdx() != 0)
        return Checksums{};
    return unpackChecksums(t.blockResult());
}

} // namespace

Checksums
blockReduceParallel(ThreadCtx &t, Checksums local, ChecksumKind kind)
{
    return foldBlock(t, local, static_cast<uint64_t>(kind));
}

Checksums
blockReduceParallelFused(ThreadCtx &t, Checksums local)
{
    return foldBlock(t, local, kFusedTree);
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
