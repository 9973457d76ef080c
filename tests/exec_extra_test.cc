/**
 * @file
 * Additional simulator-API coverage: 64-bit atomics, float atomics,
 * atomicMax, signed/64-bit shuffles, a shuffle released by a lane's
 * exit, stall charging, deadlock detection, shared-memory exhaustion,
 * re-declaration and zeroing, the fused dual-checksum reduction
 * extension, the block fold as one rendezvous, and the wait rule.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "core/reduce.h"
#include "nvm/nvm_cache.h"
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

TEST(ExecExtraTest, ShuffleReleasedByAnExitResumesAtTheLatestDeposit)
{
    // Lanes 16-31 stall past every depositing lane and return while
    // lanes 0-15 wait at the shuffle, so lane 31's retirement releases
    // it. Lanes 16-19 never deposit, so lanes 12-15 keep their own
    // values, and the exiting lanes' stalls are not arrivals.
    const bool was_enabled = obs::countersEnabled();
    obs::setCountersEnabled(true);
    obs::resetCounters();
    constexpr uint32_t kWaiting = 16, kStep = 7;
    Device dev;
    std::vector<uint32_t> got(kWaiting, 0);
    std::vector<Cycles> resumed(kWaiting, 0);
    Cycles shuffle_cycles = 0;
    dev.launch(LaunchConfig(Dim3(1), Dim3(kWarpSize)), [&](ThreadCtx &t) {
        const uint32_t lane = t.laneId();
        if (lane >= kWaiting) {
            t.stall(1000 + lane);
            return;
        }
        shuffle_cycles = t.params().shuffle_cycles;
        t.stall(kStep * lane); // a block starts at cycle 0
        got[lane] = t.shflDown(100 + lane, 4);
        resumed[lane] = t.now();
    });
    const auto snap = obs::snapshotCounters();
    obs::setCountersEnabled(was_enabled);

    const Cycles latest_deposit = kStep * (kWaiting - 1);
    for (uint32_t lane = 0; lane < kWaiting; ++lane) {
        EXPECT_EQ(got[lane], lane < 12 ? 104 + lane : 100 + lane)
            << "lane " << lane;
        EXPECT_EQ(resumed[lane], latest_deposit + shuffle_cycles)
            << "lane " << lane;
    }
    EXPECT_EQ(shuffle_cycles, 2u);
    // 32 starts and one wake per waiting lane.
    EXPECT_EQ(snap[obs::Ctr::SimFiberSwitches], 48u);
    EXPECT_EQ(snap[obs::Ctr::SimFiberWakeups], 16u);
    EXPECT_EQ(snap[obs::Ctr::SimShuffles], 16u);
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
// The block fold as one rendezvous vs. Listing 3 step by step
// ---------------------------------------------------------------------

/**
 * Listing 4 step by step: one shflDown per tree step per checksum.
 * Valid on lane 0.
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

/** Fused (true) or one of the ChecksumKinds. */
struct ReduceFlavor {
    bool fused;
    ChecksumKind kind;
};

/**
 * Listing 3 as the simulator ran it before the fold became one block
 * rendezvous: each warp's per-step tree, warp leaders parking their
 * results in shared memory, a barrier, warp 0's tree over the parked
 * values, and a second barrier. Kept here as the reference the fold
 * must reproduce exactly. Valid on flat thread 0.
 */
Checksums
referenceBlockReduce(ThreadCtx &t, Checksums local, ReduceFlavor flavor)
{
    auto warp_reduce = [&](Checksums cs) {
        return flavor.fused ? referenceWarpReduceFused(t, cs)
                            : referenceWarpReduce(t, cs, flavor.kind);
    };
    Checksums warp_sum = warp_reduce(local);

    auto parked = t.sharedArray<uint64_t>(kLpReduceSharedSlot, kWarpSize);
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
    t.syncthreads();
    return result;
}

/** Which threads return early, and when. */
enum class FoldExits {
    None,
    Thinned,         //!< lanes with lane % 3 == 1, before the first fold
    Warp1Leader,     //!< tid 32, before the first fold: a zero slot
    Warp1LeaderLate, //!< tid 32, between two folds: a stale slot
};

struct FoldShape {
    uint32_t threads;
    uint32_t folds; //!< 1, or 2 back to back
    FoldExits exits;
    uint32_t late_tid = ~0u; //!< arrives last in the block (~0u: none)
};

/** What one fold-shaped launch left behind. */
struct FoldOutcome {
    std::vector<Checksums> values; //!< thread 0's value per fold
    std::vector<Cycles> end;       //!< every thread's now() at the end
    uint64_t shuffles = 0;
    uint64_t barriers = 0;
};

FoldOutcome
runFold(FoldShape shape, ReduceFlavor flavor, bool reference)
{
    obs::resetCounters();
    Device dev;
    FoldOutcome out;
    out.values.resize(shape.folds);
    out.end.assign(shape.threads, 0);
    auto fold = [&](ThreadCtx &t, Checksums local) {
        if (reference)
            return referenceBlockReduce(t, local, flavor);
        return flavor.fused ? blockReduceParallelFused(t, local)
                            : blockReduceParallel(t, local, flavor.kind);
    };
    // The leavers depart before a barrier, so every remaining lane
    // sees the same live count in the reference's per-step trees.
    const uint32_t exit_fold =
        shape.exits == FoldExits::None              ? shape.folds
        : shape.exits == FoldExits::Warp1LeaderLate ? 1
                                                    : 0;
    dev.launch(
        LaunchConfig(Dim3(1), Dim3(shape.threads)), [&](ThreadCtx &t) {
            const uint32_t tid = t.flatThreadIdx();
            for (uint32_t f = 0; f < shape.folds; ++f) {
                if (f == exit_fold) {
                    if (shape.exits == FoldExits::Thinned ? t.laneId() % 3 == 1
                                                          : tid == 32)
                        return;
                    t.syncthreads();
                }
                if (f == 0)
                    t.stall((tid * 37u) % 101u +
                            (tid == shape.late_tid ? 1000u : 0u));
                Checksums cs = fold(
                    t, Checksums{tid * 2654435761u + 7u * (f + 1),
                                 ~tid * 40503u + f});
                if (tid == 0)
                    out.values[f] = cs;
            }
            out.end[tid] = t.now();
        });
    auto snap = obs::snapshotCounters();
    out.shuffles = snap[obs::Ctr::SimShuffles];
    out.barriers = snap[obs::Ctr::SimBarrierWaits];
    return out;
}

/** Fiber resumes of one launch of @p kernel over one n-thread block. */
uint64_t
resumesOf(uint32_t n, const KernelFn &kernel)
{
    const bool was_enabled = obs::countersEnabled();
    obs::setCountersEnabled(true);
    obs::resetCounters();
    Device dev;
    dev.launch(LaunchConfig(Dim3(1), Dim3(n)), kernel);
    const uint64_t switches =
        obs::snapshotCounters()[obs::Ctr::SimFiberSwitches];
    obs::setCountersEnabled(was_enabled);
    return switches;
}

TEST(ExecExtraTest, BlockFoldRendezvousMatchesListing3StepByStep)
{
    const bool was_enabled = obs::countersEnabled();
    obs::setCountersEnabled(true);
    const ReduceFlavor flavors[] = {
        {false, ChecksumKind::Modular},
        {false, ChecksumKind::Parity},
        {false, ChecksumKind::ModularParity},
        {true, ChecksumKind::ModularParity},
    };
    // Every partial and the full single warp, a full warp beside
    // partial and full second ones, and many full warps.
    std::vector<uint32_t> sizes;
    for (uint32_t n = 1; n <= kWarpSize; ++n)
        sizes.push_back(n);
    for (uint32_t k : {1u, 2u, 5u, 16u, 31u, 32u})
        sizes.push_back(kWarpSize + k);
    sizes.push_back(256);
    sizes.push_back(1024);
    for (const ReduceFlavor &flavor : flavors) {
        for (uint32_t n : sizes) {
            std::vector<FoldShape> shapes = {{n, 1, FoldExits::None},
                                             {n, 2, FoldExits::None}};
            if (n >= 2)
                shapes.push_back({n, 1, FoldExits::Thinned});
            if (n > kWarpSize) {
                shapes.push_back({n, 1, FoldExits::Warp1Leader});
                shapes.push_back({n, 2, FoldExits::Warp1LeaderLate});
            }
            // Each thread of two full warps in turn as the block's last
            // arrival, so no lane's cycle hides behind another warp's.
            if (n == 2 * kWarpSize)
                for (uint32_t late = 0; late < n; ++late)
                    shapes.push_back({n, 1, FoldExits::None, late});
            for (const FoldShape &shape : shapes) {
                const FoldOutcome want = runFold(shape, flavor, true);
                const FoldOutcome got = runFold(shape, flavor, false);
                const std::string what =
                    std::string(flavor.fused ? "fused"
                                             : toString(flavor.kind)) +
                    ", " + std::to_string(n) + " threads, " +
                    std::to_string(shape.folds) + " folds, exits " +
                    std::to_string(static_cast<int>(shape.exits)) +
                    ", late tid " + std::to_string(shape.late_tid);
                EXPECT_EQ(got.values, want.values) << what;
                EXPECT_EQ(got.end, want.end) << what;
                EXPECT_EQ(got.shuffles, want.shuffles) << what;
                EXPECT_EQ(got.barriers, want.barriers) << what;
            }
            // A fold-then-return block: one start per thread, and one
            // wake for thread 0, which waits for the value. Every other
            // thread's kernel returns before the fold releases.
            const uint64_t resumes = resumesOf(n, [&](ThreadCtx &t) {
                const uint32_t tid = t.flatThreadIdx();
                t.stall((tid * 37u) % 101u);
                if (flavor.fused)
                    blockReduceParallelFused(t, Checksums{tid, ~tid});
                else
                    blockReduceParallel(t, Checksums{tid, ~tid},
                                        flavor.kind);
            });
            EXPECT_LE(resumes, n + 1) << n << " threads";
        }
    }
    obs::setCountersEnabled(was_enabled);
}

// ---------------------------------------------------------------------
// The wait rule: a thread waits for a rendezvous at its next device
// operation
// ---------------------------------------------------------------------

/** A device operation a thread performs on its own slot after a
 *  rendezvous; it returns what the kernel observes. */
struct SettleOp {
    const char *name;
    uint64_t (*run)(ThreadCtx &t, Addr word, SharedRef<uint32_t> &shared);
};

constexpr uint32_t kWaitThreads = 8;
constexpr uint32_t kWaitSharedSlot = 7;

/** The value the thread before @p tid writes to @p tid's slot. */
uint32_t
preValue(uint32_t tid)
{
    return 1000 + (tid + kWaitThreads - 1) % kWaitThreads;
}

const SettleOp kSettleOps[] = {
    {"load",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         return t.loadAddr<uint32_t>(w);
     }},
    {"store",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         t.storeAddr<uint32_t>(w, 3000 + t.flatThreadIdx());
         return 0;
     }},
    {"atomicCAS",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         return t.atomicCAS(w, preValue(t.flatThreadIdx()), 5);
     }},
    {"atomicCAS64",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         return t.atomicCAS64(w, preValue(t.flatThreadIdx()), 5);
     }},
    {"atomicExch",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         return t.atomicExch(w, 6);
     }},
    {"atomicExch64",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         return t.atomicExch64(w, 6);
     }},
    {"atomicAdd",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         return t.atomicAdd(w, 9);
     }},
    {"atomicAddF",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         return std::bit_cast<uint32_t>(t.atomicAddF(w, 0.5f));
     }},
    {"atomicMax",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         return t.atomicMax(w, 1003);
     }},
    {"clwb",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         t.clwb(w);
         return 0;
     }},
    {"persistBarrier",
     [](ThreadCtx &t, Addr, SharedRef<uint32_t> &) -> uint64_t {
         t.persistBarrier();
         return 0;
     }},
    {"lockAcquire",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         t.lockAcquire(w);
         return 0;
     }},
    {"lockRelease",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         t.lockRelease(w);
         return 0;
     }},
    {"compute",
     [](ThreadCtx &t, Addr, SharedRef<uint32_t> &) -> uint64_t {
         t.compute(3);
         return 0;
     }},
    {"stall",
     [](ThreadCtx &t, Addr, SharedRef<uint32_t> &) -> uint64_t {
         t.stall(5);
         return 0;
     }},
    {"now",
     [](ThreadCtx &t, Addr, SharedRef<uint32_t> &) -> uint64_t {
         return t.now();
     }},
    {"warpLiveLanes",
     [](ThreadCtx &t, Addr, SharedRef<uint32_t> &) -> uint64_t {
         return t.warpLiveLanes();
     }},
    {"sharedArray",
     [](ThreadCtx &t, Addr, SharedRef<uint32_t> &) -> uint64_t {
         return t.sharedArray<uint32_t>(kWaitSharedSlot, kWaitThreads)
             .get(t.flatThreadIdx());
     }},
    {"SharedRef::get",
     [](ThreadCtx &t, Addr, SharedRef<uint32_t> &s) -> uint64_t {
         return s.get(t.flatThreadIdx());
     }},
    {"SharedRef::set",
     [](ThreadCtx &t, Addr, SharedRef<uint32_t> &s) -> uint64_t {
         s.set(t.flatThreadIdx(), 4000 + t.flatThreadIdx());
         return 0;
     }},
    {"SharedRef::atomicAdd",
     [](ThreadCtx &t, Addr, SharedRef<uint32_t> &s) -> uint64_t {
         return s.atomicAdd(t.flatThreadIdx(), 11);
     }},
    {"shflDown",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         return t.shflDown(static_cast<uint32_t>(w), 1);
     }},
    {"syncthreads",
     [](ThreadCtx &t, Addr, SharedRef<uint32_t> &) -> uint64_t {
         t.syncthreads();
         return 0;
     }},
    {"fold",
     [](ThreadCtx &t, Addr w, SharedRef<uint32_t> &) -> uint64_t {
         return packChecksums(blockReduceParallel(
             t, Checksums{static_cast<uint32_t>(w), 1},
             ChecksumKind::ModularParity));
     }},
};

/** What one wait-rule launch observed, per thread. */
struct WaitOutcome {
    std::vector<uint64_t> pre_global, pre_shared, result, end, memory;
};

/**
 * Every thread reads and then writes slot (t+1) mod n, in global and in
 * shared memory, arrives at a barrier (@p fold: a fold), and performs
 * @p op on slot t; the last thread returns right after the arrival.
 * With @p forced a stall(0) (compute(0) when the op is stall) settles
 * the wait before @p op does.
 */
WaitOutcome
runWaitRule(const SettleOp &op, bool fold, bool forced)
{
    Device dev;
    auto words = ArrayRef<uint64_t>::allocate(dev.mem(), kWaitThreads);
    WaitOutcome out;
    out.pre_global.assign(kWaitThreads, ~0ull);
    out.pre_shared.assign(kWaitThreads, ~0ull);
    out.result.assign(kWaitThreads, ~0ull);
    out.end.assign(kWaitThreads, ~0ull);
    const bool op_is_stall = std::string(op.name) == "stall";
    dev.launch(
        LaunchConfig(Dim3(1), Dim3(kWaitThreads)), [&](ThreadCtx &t) {
            const uint32_t tid = t.flatThreadIdx();
            const uint32_t next = (tid + 1) % kWaitThreads;
            auto shared =
                t.sharedArray<uint32_t>(kWaitSharedSlot, kWaitThreads);
            t.stall((tid * 13u) % 7u);
            out.pre_global[tid] = t.loadAddr<uint32_t>(words.addrOf(next));
            t.storeAddr<uint32_t>(words.addrOf(next), 1000 + tid);
            out.pre_shared[tid] = shared.get(next);
            shared.set(next, 2000 + tid);
            if (fold)
                blockReduceParallel(t, Checksums{tid, tid},
                                    ChecksumKind::Modular);
            else
                t.syncthreads();
            if (tid == kWaitThreads - 1)
                return;
            if (forced) {
                if (op_is_stall)
                    t.compute(0);
                else
                    t.stall(0);
            }
            out.result[tid] = op.run(t, words.addrOf(tid), shared);
            out.end[tid] = t.now();
        });
    for (uint32_t i = 0; i < kWaitThreads; ++i)
        out.memory.push_back(words.hostAt(i));
    return out;
}

TEST(ExecExtraTest, EveryDeviceOperationWaitsForThePendingRendezvous)
{
    for (const SettleOp &op : kSettleOps) {
        for (bool fold : {false, true}) {
            const std::string what =
                std::string(op.name) + (fold ? " after a fold"
                                             : " after a barrier");
            const WaitOutcome got = runWaitRule(op, fold, false);
            const WaitOutcome want = runWaitRule(op, fold, true);
            // Nothing after the rendezvous may be seen before it.
            for (uint32_t tid = 0; tid < kWaitThreads; ++tid) {
                EXPECT_EQ(got.pre_global[tid], 0u) << what << ", tid " << tid;
                EXPECT_EQ(got.pre_shared[tid], 0u) << what << ", tid " << tid;
            }
            EXPECT_EQ(got.result, want.result) << what;
            EXPECT_EQ(got.end, want.end) << what;
            EXPECT_EQ(got.memory, want.memory) << what;
        }
    }
}

TEST(ExecExtraTest, ThreadsThatReturnAfterABarrierAreNeverResumed)
{
    for (uint32_t n : {1u, 2u, 31u, 32u, 33u, 256u, 1024u}) {
        EXPECT_EQ(resumesOf(n, [](ThreadCtx &t) { t.syncthreads(); }), n)
            << n << " threads";
    }
}

TEST(ExecExtraTest, AThreadWokenByTheRetirementItPicksRunsOn)
{
    // Thread 0 returns after a barrier, so it waits as a finished
    // thread. Thread 1 releases that barrier and arrives at a second
    // rendezvous; parking there, it picks thread 0, whose in-place
    // retirement releases the rendezvous thread 1 parked on. Thread 1
    // is then the pick and runs on instead of switching to itself.
    const bool was_enabled = obs::countersEnabled();
    obs::setCountersEnabled(true);
    for (bool shuffle : {false, true}) {
        obs::resetCounters();
        Device dev;
        Cycles end = 0;
        uint32_t got = 0;
        dev.launch(LaunchConfig(Dim3(1), Dim3(2)), [&](ThreadCtx &t) {
            t.syncthreads();
            if (t.flatThreadIdx() == 0)
                return;
            if (shuffle) {
                got = t.shflDown(7u, 1);
            } else {
                t.syncthreads();
                got = 7;
            }
            end = t.now();
        });
        const auto snap = obs::snapshotCounters();
        const TimingParams p;
        const std::string what = shuffle ? "shuffle" : "barrier";
        EXPECT_EQ(got, 7u) << what;
        EXPECT_EQ(end, p.barrier_cycles + (shuffle ? p.shuffle_cycles
                                                   : p.barrier_cycles))
            << what;
        // Two starts and thread 1's wake.
        EXPECT_EQ(snap[obs::Ctr::SimFiberSwitches], 3u) << what;
        EXPECT_EQ(snap[obs::Ctr::SimFiberWakeups], 2u) << what;
    }
    obs::setCountersEnabled(was_enabled);
}

TEST(ExecExtraTest, RetiredThreadsEndAtTheReleaseCycle)
{
    // Every thread's end cycle feeds the replay of its block's atomics
    // against the other blocks': the block ends at the latest end plus
    // that thread's queueing delay. Thread 0, the only one delayed,
    // arrives first and returns, so it is retired in place; it must
    // end where a thread woken by now() after the barrier does.
    auto run = [](bool wake) {
        DeviceParams params;
        params.num_workers = 1;
        Device dev(params);
        auto word = ArrayRef<uint32_t>::allocate(dev.mem(), 1);
        return dev.launch(LaunchConfig(Dim3(8), Dim3(64)),
                          [&](ThreadCtx &t) {
                              t.stall(t.flatThreadIdx() % 5);
                              if (t.flatThreadIdx() == 0)
                                  t.atomicAdd(word.addrOf(0), 1);
                              t.syncthreads();
                              if (wake)
                                  t.now();
                          });
    };
    const LaunchResult retired = run(false), woken = run(true);
    EXPECT_EQ(retired.cycles, woken.cycles);
    EXPECT_EQ(retired.critical_path, woken.critical_path);
    EXPECT_GT(retired.traffic.atomic_wait_cycles, 0u)
        << "no cross-block queueing: the end cycles never mattered";
}

TEST(ExecExtraTest, CrashLatchedAroundABarrierCrashesThatBlock)
{
    // At one worker a crash point is exact. "store; barrier; return"
    // latches at a thread's pre-barrier store; with a store after the
    // barrier by the releasing thread, it latches while every other
    // thread waits as a finished thread, so only the retirement's
    // crash check can report it.
    constexpr uint32_t kThreads = 32, kBlocks = 6;
    for (bool late_store : {false, true}) {
        const uint32_t per_block = kThreads + (late_store ? 1 : 0);
        for (uint32_t b = 0; b < kBlocks; ++b) {
            for (uint32_t k : {0u, 5u, per_block - 1}) {
                DeviceParams params;
                params.num_workers = 1;
                Device dev(params);
                NvmCache nvm(dev.mem(), NvmParams{});
                dev.attachNvm(&nvm);
                auto out = ArrayRef<uint32_t>::allocate(
                    dev.mem(), kBlocks * per_block);
                nvm.persistAll();
                nvm.crashAfterStores(b * per_block + k);
                auto r = dev.launch(
                    LaunchConfig(Dim3(kBlocks), Dim3(kThreads)),
                    [&](ThreadCtx &t) {
                        const uint64_t base = t.blockRank() * per_block;
                        t.store(out, base + t.flatThreadIdx(), 1u);
                        t.syncthreads();
                        if (late_store && t.flatThreadIdx() == kThreads - 1)
                            t.store(out, base + kThreads, 2u);
                    });
                EXPECT_TRUE(r.crashed)
                    << "block " << b << ", store " << k << ", late "
                    << late_store;
                EXPECT_EQ(r.blocks_completed, b)
                    << "block " << b << ", store " << k << ", late "
                    << late_store;
            }
        }
    }
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
