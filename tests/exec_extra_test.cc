/**
 * @file
 * Additional simulator-API coverage: 64-bit atomics, float atomics,
 * atomicMax, signed/64-bit shuffles, stall charging, deadlock
 * detection, shared-memory exhaustion, re-declaration and zeroing, the
 * fused dual-checksum reduction extension, and warp reductions as
 * single collectives.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "core/reduce.h"
#include "obs/counters.h"
#include "sim/device.h"

namespace gpulp {
namespace {

TEST(ExecExtraTest, AtomicCAS64RoundTrips)
{
    Device dev;
    auto cell = ArrayRef<uint64_t>::allocate(dev.mem(), 1);
    cell.hostAt(0) = 0xAABBCCDDEEFF0011ull;
    uint64_t seen = 0;
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        seen = t.atomicCAS64(cell.addrOf(0), 0xAABBCCDDEEFF0011ull,
                             0x1122334455667788ull);
    });
    EXPECT_EQ(seen, 0xAABBCCDDEEFF0011ull);
    EXPECT_EQ(cell.hostAt(0), 0x1122334455667788ull);
}

TEST(ExecExtraTest, AtomicCAS64FailsOnMismatch)
{
    Device dev;
    auto cell = ArrayRef<uint64_t>::allocate(dev.mem(), 1);
    cell.hostAt(0) = 5;
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        t.atomicCAS64(cell.addrOf(0), 6, 7);
    });
    EXPECT_EQ(cell.hostAt(0), 5u);
}

TEST(ExecExtraTest, AtomicExch64SwapsWholeWord)
{
    Device dev;
    auto cell = ArrayRef<uint64_t>::allocate(dev.mem(), 1);
    cell.hostAt(0) = 111;
    uint64_t old = 0;
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        old = t.atomicExch64(cell.addrOf(0), 222);
    });
    EXPECT_EQ(old, 111u);
    EXPECT_EQ(cell.hostAt(0), 222u);
}

TEST(ExecExtraTest, AtomicAddFAccumulatesFloats)
{
    Device dev;
    auto cell = ArrayRef<float>::allocate(dev.mem(), 1);
    dev.launch(LaunchConfig(Dim3(4), Dim3(32)), [&](ThreadCtx &t) {
        t.atomicAddF(cell.addrOf(0), 0.5f);
    });
    EXPECT_EQ(cell.hostAt(0), 64.0f);
}

TEST(ExecExtraTest, AtomicMaxKeepsLargest)
{
    Device dev;
    auto cell = ArrayRef<uint32_t>::allocate(dev.mem(), 1);
    dev.launch(LaunchConfig(Dim3(8), Dim3(16)), [&](ThreadCtx &t) {
        t.atomicMax(cell.addrOf(0),
                    static_cast<uint32_t>(t.globalThreadIdx() * 7 % 101));
    });
    uint32_t expect = 0;
    for (uint32_t i = 0; i < 128; ++i)
        expect = std::max(expect, i * 7 % 101);
    EXPECT_EQ(cell.hostAt(0), expect);
}

TEST(ExecExtraTest, SignedShuffleKeepsSign)
{
    Device dev;
    auto out = ArrayRef<int32_t>::allocate(dev.mem(), 32);
    dev.launch(LaunchConfig(Dim3(1), Dim3(32)), [&](ThreadCtx &t) {
        int32_t v = -static_cast<int32_t>(t.laneId()) - 1;
        t.store(out, t.laneId(), t.shflDownI(v, 2));
    });
    for (uint32_t lane = 0; lane < 30; ++lane)
        EXPECT_EQ(out.hostAt(lane), -static_cast<int32_t>(lane) - 3);
}

TEST(ExecExtraTest, Shuffle64CarriesFullWidth)
{
    Device dev;
    auto out = ArrayRef<uint64_t>::allocate(dev.mem(), 32);
    dev.launch(LaunchConfig(Dim3(1), Dim3(32)), [&](ThreadCtx &t) {
        uint64_t v = (uint64_t{t.laneId()} << 40) | 0xABCDEFull;
        t.store(out, t.laneId(), t.shflDown64(v, 1));
    });
    for (uint32_t lane = 0; lane < 31; ++lane)
        EXPECT_EQ(out.hostAt(lane),
                  (uint64_t{lane + 1} << 40) | 0xABCDEFull);
}

TEST(ExecExtraTest, StallChargesRawCycles)
{
    Device dev;
    Cycles before = 0, after = 0;
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        before = t.now();
        t.stall(1234);
        after = t.now();
    });
    EXPECT_EQ(after - before, 1234u);
}

TEST(ExecExtraDeathTest, MismatchedBarrierDeadlockIsDetected)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            Device dev;
            dev.launch(LaunchConfig(Dim3(1), Dim3(2)), [&](ThreadCtx &t) {
                // Thread 0 waits at a barrier thread 1 never reaches,
                // and thread 1 waits at a shuffle thread 0 never joins.
                if (t.flatThreadIdx() == 0)
                    t.syncthreads();
                else
                    t.shflDown(1u, 1);
            });
        },
        "deadlocked");
}

TEST(ExecExtraDeathTest, SharedMemoryExhaustionPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            DeviceParams params;
            params.shared_bytes = 1024;
            Device dev(params);
            dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
                t.sharedArray<float>(0, 4096);
            });
        },
        "shared memory exhausted");
}

TEST(ExecExtraDeathTest, LargerSharedRedeclarationPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            Device dev;
            dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
                t.sharedArray<uint32_t>(0, 8);
                t.sharedArray<uint32_t>(1, 8);
                // Sixteen words from slot 0's offset would cover slot 1.
                t.sharedArray<uint32_t>(0, 16).set(15, 1);
            });
        },
        "shared slot 0 re-declared with 64 bytes");
}

TEST(ExecExtraTest, EveryBlockReadsZeroedSharedMemory)
{
    // Odd ranks claim the slots in the other order and at other sizes,
    // so each slot lands on bytes the previous block on the same
    // worker (and its shared arena) dirtied. Every thread checks the
    // elements it owns read zero before writing rank-dependent values.
    for (uint32_t workers : {1u, 4u}) {
        DeviceParams params;
        params.num_workers = workers;
        Device dev(params);
        std::atomic<uint64_t> checked{0}, dirty{0}, lost{0};
        const uint32_t threads = 64;
        dev.launch(LaunchConfig(Dim3(32), Dim3(threads)), [&](ThreadCtx &t) {
            const uint32_t rank = static_cast<uint32_t>(t.blockRank());
            const bool odd = rank % 2 == 1;
            SharedRef<uint32_t> first =
                odd ? t.sharedArray<uint32_t>(1, 96 + rank % 5)
                    : t.sharedArray<uint32_t>(0, 64);
            SharedRef<uint32_t> second =
                odd ? t.sharedArray<uint32_t>(0, 48)
                    : t.sharedArray<uint32_t>(1, 40 + rank % 3);
            for (SharedRef<uint32_t> *slot : {&first, &second}) {
                for (size_t i = t.flatThreadIdx(); i < slot->size();
                     i += threads) {
                    ++checked;
                    if (slot->get(i) != 0)
                        ++dirty;
                    slot->set(i, rank * 1000 + static_cast<uint32_t>(i) + 1);
                }
            }
            // A smaller re-declaration names the same storage.
            t.syncthreads();
            if (t.sharedArray<uint32_t>(0, 1).get(0) != rank * 1000 + 1)
                ++lost;
        });
        // Per block: 96..100 + 48 words on odd ranks, 64 + 40..42 on
        // even ones.
        uint64_t expect = 0;
        for (uint32_t rank = 0; rank < 32; ++rank)
            expect += rank % 2 == 1 ? 96 + rank % 5 + 48 : 64 + 40 + rank % 3;
        EXPECT_EQ(checked.load(), expect) << workers << " workers";
        EXPECT_EQ(dirty.load(), 0u) << workers << " workers";
        EXPECT_EQ(lost.load(), 0u) << workers << " workers";
    }
}

TEST(ExecExtraTest, FusedReductionMatchesTwoShuffleReduction)
{
    Device dev;
    for (uint32_t threads : {1u, 32u, 63u, 256u}) {
        Checksums fused{}, classic{};
        dev.launch(LaunchConfig(Dim3(1), Dim3(threads)),
                   [&](ThreadCtx &t) {
                       Checksums local{t.flatThreadIdx() * 3 + 1,
                                       ~t.flatThreadIdx()};
                       Checksums f = blockReduceParallelFused(t, local);
                       Checksums c = blockReduceParallel(
                           t, local, ChecksumKind::ModularParity);
                       if (t.flatThreadIdx() == 0) {
                           fused = f;
                           classic = c;
                       }
                   });
        EXPECT_EQ(fused, classic) << threads << " threads";
    }
}

TEST(ExecExtraTest, FusedReductionIsCheaperThanTwoShuffles)
{
    Device dev;
    auto run = [&](bool fused) {
        return dev
            .launch(LaunchConfig(Dim3(4), Dim3(256)),
                    [&](ThreadCtx &t) {
                        Checksums local{t.flatThreadIdx(), 7u};
                        if (fused)
                            blockReduceParallelFused(t, local);
                        else
                            blockReduceParallel(
                                t, local, ChecksumKind::ModularParity);
                    })
            .cycles;
    };
    EXPECT_LT(run(true), run(false));
}

// ---------------------------------------------------------------------
// Warp reductions as one collective vs. the per-step shuffle tree
// ---------------------------------------------------------------------

/**
 * The per-step reduction loop the simulator used to run: one shflDown
 * rendezvous per tree step per checksum. Kept here as the reference the
 * single-collective reductions must reproduce exactly.
 */
Checksums
referenceWarpReduce(ThreadCtx &t, Checksums local, ChecksumKind kind)
{
    const bool use_sum = kind != ChecksumKind::Parity;
    const bool use_parity = kind != ChecksumKind::Modular;
    const uint32_t live = t.warpLiveLanes();
    const uint32_t lane = t.laneId();
    for (uint32_t offset = kWarpSize / 2; offset > 0; offset /= 2) {
        if (use_sum) {
            uint32_t got = t.shflDown(local.sum, offset);
            if (lane + offset < live) {
                local.sum += got;
                t.compute(1);
            }
        }
        if (use_parity) {
            uint32_t got = t.shflDown(local.parity, offset);
            if (lane + offset < live) {
                local.parity ^= got;
                t.compute(1);
            }
        }
    }
    return local;
}

/** The per-step fused loop: both checksums in one 64-bit shuffle. */
Checksums
referenceWarpReduceFused(ThreadCtx &t, Checksums local)
{
    const uint32_t live = t.warpLiveLanes();
    const uint32_t lane = t.laneId();
    uint64_t packed = packChecksums(local);
    for (uint32_t offset = kWarpSize / 2; offset > 0; offset /= 2) {
        uint64_t got = t.shflDown64(packed, offset);
        if (lane + offset < live) {
            Checksums mine = unpackChecksums(packed);
            mine.merge(unpackChecksums(got));
            packed = packChecksums(mine);
            t.compute(2);
        }
    }
    return unpackChecksums(packed);
}

/** What one thread saw after its warp reduction. */
struct LaneOutcome {
    bool ran = false;
    Checksums value;
    Cycles now = 0;
};

/** Fused (true) or one of the ChecksumKinds. */
struct ReduceFlavor {
    bool fused;
    ChecksumKind kind;
};

/** How a block's threads reach the reduction. */
struct ReduceShape {
    uint32_t threads;    //!< block size (the last warp may be partial)
    uint32_t exit_every; //!< lanes with lane % exit_every == 1 exit early
                         //!< (0: nobody exits)
};

/**
 * Run one block of @p shape through a warp reduction of @p flavor and
 * return every thread's outcome and the fiber switches it took. Lanes
 * reach the reduction at skewed cycles; early-exiting lanes leave
 * before a barrier, so every remaining lane sees the same live count.
 */
std::pair<std::vector<LaneOutcome>, uint64_t>
runWarpReduce(ReduceShape shape, ReduceFlavor flavor, bool reference)
{
    obs::resetCounters();
    Device dev;
    std::vector<LaneOutcome> out(shape.threads);
    dev.launch(
        LaunchConfig(Dim3(1), Dim3(shape.threads)), [&](ThreadCtx &t) {
            const uint32_t tid = t.flatThreadIdx();
            if (shape.exit_every != 0) {
                if (t.laneId() % shape.exit_every == 1)
                    return;
                t.syncthreads();
            }
            t.stall((tid * 37u) % 101u);
            Checksums local{tid * 2654435761u + 7u, ~tid * 40503u};
            Checksums cs;
            if (flavor.fused)
                cs = reference ? referenceWarpReduceFused(t, local)
                               : warpReduceFused(t, local);
            else
                cs = reference
                         ? referenceWarpReduce(t, local, flavor.kind)
                         : warpReduceChecksums(t, local, flavor.kind);
            out[tid] = LaneOutcome{true, cs, t.now()};
        });
    return {out, obs::snapshotCounters()[obs::Ctr::SimFiberSwitches]};
}

TEST(ExecExtraTest, WarpReductionCollectiveMatchesPerStepShuffles)
{
    const bool was_enabled = obs::countersEnabled();
    obs::setCountersEnabled(true);
    const ReduceFlavor flavors[] = {
        {false, ChecksumKind::Modular},
        {false, ChecksumKind::Parity},
        {false, ChecksumKind::ModularParity},
        {true, ChecksumKind::ModularParity},
    };
    for (const ReduceFlavor &flavor : flavors) {
        for (uint32_t live = 1; live <= kWarpSize; ++live) {
            // A lone partial warp, a full warp plus a partial one, and
            // a full warp thinned by early exits.
            std::vector<ReduceShape> shapes = {{live, 0},
                                               {kWarpSize + live, 0}};
            if (live >= 2)
                shapes.push_back({kWarpSize, kWarpSize / live + 1});
            for (const ReduceShape &shape : shapes) {
                auto [want, ref_switches] =
                    runWarpReduce(shape, flavor, true);
                auto [got, switches] = runWarpReduce(shape, flavor, false);
                const std::string what =
                    std::string(flavor.fused ? "fused"
                                             : toString(flavor.kind)) +
                    ", " + std::to_string(shape.threads) +
                    " threads, exit_every " +
                    std::to_string(shape.exit_every);
                for (uint32_t tid = 0; tid < shape.threads; ++tid) {
                    EXPECT_EQ(got[tid].ran, want[tid].ran)
                        << what << ", tid " << tid;
                    EXPECT_EQ(got[tid].value, want[tid].value)
                        << what << ", tid " << tid;
                    EXPECT_EQ(got[tid].now, want[tid].now)
                        << what << ", tid " << tid;
                }
                // One start per thread, at most one wake per barrier
                // and one per reduction: a lane never resumes between
                // tree steps.
                const uint64_t barrier_wakes =
                    shape.exit_every != 0 ? shape.threads : 0;
                EXPECT_LE(switches, 2 * shape.threads + barrier_wakes)
                    << what;
                EXPECT_LE(switches, ref_switches) << what;
            }
        }
    }
    obs::setCountersEnabled(was_enabled);
}

TEST(ExecExtraTest, ConfigLabelsAreStable)
{
    EXPECT_EQ(configLabel(LpConfig::scalable()), "array+shfl+lockfree");
    LpConfig cfg = LpConfig::naive(TableKind::Cuckoo);
    cfg.lock = LockMode::LockBased;
    cfg.reduction = ReductionKind::SequentialGlobal;
    EXPECT_EQ(configLabel(cfg), "cuckoo+noshfl+lockbased");
    cfg.reduction = ReductionKind::ParallelFused;
    EXPECT_EQ(configLabel(cfg), "cuckoo+fused+lockbased");
    EXPECT_STREQ(toString(ChecksumKind::ModularParity), "modular+parity");
    EXPECT_STREQ(toString(LockMode::NoAtomic), "noatomic");
}

} // namespace
} // namespace gpulp
