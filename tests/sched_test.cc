/**
 * @file
 * Tests for the event-driven fiber scheduler and the clwb write-back
 * accounting fix.
 *
 * The scheduler swap (wait lists + ready set instead of the retired
 * poll-everything round-robin) must be invisible in every simulated
 * number: the golden fixtures below were captured with the poll-loop
 * scheduler and pin cycles, traffic and whole-arena hashes at several
 * worker counts. What *is* allowed to change — and what the storm test
 * asserts — is the host-side work: fiber switches per barrier must be
 * O(threads), not O(threads^2).
 */

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/lp_config.h"
#include "core/runtime.h"
#include "fiber/fiber.h"
#include "obs/counters.h"
#include "sim/exec.h"
#include "sim/thread_pool.h"
#include "workloads/workload.h"

namespace gpulp {
namespace {

/** FNV-1a over a byte range, used to fingerprint device memory. */
uint64_t
fnv1a(const char *data, size_t len)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ull;
    }
    return h;
}

// ---------------------------------------------------------------------
// clwb bandwidth accounting
// ---------------------------------------------------------------------

/**
 * clwb on a dirty line must charge exactly one line of write-back
 * traffic against the bandwidth roofline — and must NOT count as a
 * store instruction (the old code charged onGlobalStore(0): zero bytes
 * plus a phantom global_stores increment).
 */
TEST(SchedTest, ClwbChargesWriteBackBandwidth)
{
    DeviceParams p;
    p.num_workers = 1;
    Device dev(p);
    NvmCache nvm(dev.mem());
    dev.attachNvm(&nvm);
    const size_t line = nvm.params().line_bytes;

    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), 64);
    nvm.persistAll();

    // One store dirties the line; the first clwb writes it back; the
    // second clwb finds it clean and moves no data.
    LaunchResult r = dev.launch(
        LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
            t.store(data, 0, 42u);
            t.clwb(data.addrOf(0));
            t.clwb(data.addrOf(0));
            t.persistBarrier();
        });

    EXPECT_EQ(r.traffic.global_stores, 1u)
        << "clwb must not retire a store instruction";
    EXPECT_EQ(r.traffic.bytes_written, sizeof(uint32_t) + line)
        << "dirty-line clwb charges one line; clean-line clwb charges "
           "nothing";

    // A launch that only clwbs already-clean lines moves zero bytes.
    LaunchResult clean = dev.launch(
        LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
            t.clwb(data.addrOf(0));
            t.persistBarrier();
        });
    EXPECT_EQ(clean.traffic.global_stores, 0u);
    EXPECT_EQ(clean.traffic.bytes_written, 0u);
}

// ---------------------------------------------------------------------
// Scheduler determinism
// ---------------------------------------------------------------------

/** One workload's golden numbers, captured pre-swap (poll scheduler). */
struct Golden {
    const char *name;
    double scale;
    Cycles base_cycles;
    Cycles lp_cycles;
    uint64_t arena_hash;
};

/**
 * Captured with the retired round-robin poll scheduler at workers=1.
 * The event-driven scheduler must reproduce them bit for bit at every
 * worker count: resume order is part of the determinism contract.
 */
const Golden kGolden[] = {
    {"tmm", 0.01, 68755, 76798, 0x129413ea99295c16ull},
    {"tpacf", 0.05, 75136, 77572, 0xd8829723e7e5f4e6ull},
    {"histo", 0.05, 20602, 21093, 0x58868e4fc9ed5d8bull},
};

TEST(SchedTest, MatchesPollSchedulerFixturesAtEveryWorkerCount)
{
    for (const Golden &g : kGolden) {
        for (uint32_t workers : {1u, 2u, 8u}) {
            DeviceParams p;
            p.num_workers = workers;
            Device dev(p);
            auto w = makeWorkload(g.name, g.scale);
            w->setup(dev);
            LaunchResult base = runBaseline(dev, *w);
            std::string why;
            ASSERT_TRUE(w->verify(&why)) << g.name << ": " << why;

            LpConfig cfg = LpConfig::naive(TableKind::QuadProbe);
            cfg.load_factor = w->quadLoadFactor();
            LpRuntime lp(dev, cfg, w->launchConfig());
            LaunchResult lpr = runWithLp(dev, *w, lp);

            std::string what =
                std::string(g.name) + " @" + std::to_string(workers);
            EXPECT_EQ(base.cycles, g.base_cycles) << what;
            EXPECT_EQ(lpr.cycles, g.lp_cycles) << what;
            EXPECT_EQ(fnv1a(dev.mem().raw(0), dev.mem().used()),
                      g.arena_hash)
                << what;
        }
    }
}

// ---------------------------------------------------------------------
// Switch complexity
// ---------------------------------------------------------------------

/**
 * Barrier/shuffle storm with asymmetric warps: warp 0 runs 64 shuffle
 * rounds per iteration while every other warp runs one, then all meet
 * at __syncthreads. Under the poll scheduler every parked thread was
 * resumed on every pass while warp 0 caught up — 129,048 resumes for
 * this kernel. Event-driven parking resumes a thread only when its
 * event fires, so switches are bounded by actual arrivals:
 * one initial resume per thread plus at most one per barrier arrival
 * and one per warp-collective deposit.
 */
TEST(SchedTest, BarrierStormSwitchesScaleWithArrivalsNotPasses)
{
    const bool was_enabled = obs::countersEnabled();
    obs::setCountersEnabled(true);
    obs::resetCounters();

    constexpr uint32_t kThreads = 256, kRounds = 64, kIters = 8;
    Device dev;
    dev.launch(LaunchConfig(Dim3(1), Dim3(kThreads)), [&](ThreadCtx &t) {
        for (uint32_t i = 0; i < kIters; ++i) {
            uint32_t rounds = t.warpId() == 0 ? kRounds : 1;
            uint32_t v = t.laneId();
            for (uint32_t r = 0; r < rounds; ++r)
                v += t.shflDown(v, 1);
            t.syncthreads();
        }
    });

    auto snap = obs::snapshotCounters();
    obs::setCountersEnabled(was_enabled);
    const uint64_t switches = snap[obs::Ctr::SimFiberSwitches];
    const uint64_t barriers = snap[obs::Ctr::SimBarrierWaits];
    const uint64_t collectives = snap[obs::Ctr::SimWarpCollectives];

    // O(arrivals) bound: every switch is accounted for by a thread
    // start, a barrier arrival or a warp-collective deposit.
    EXPECT_LE(switches, kThreads + barriers + collectives);

    // Regression floor vs the poll scheduler's measured 129,048
    // resumes on this exact kernel (>= 2x reduction demanded; actual
    // is ~6.5x).
    constexpr uint64_t kPollSchedulerResumes = 129048;
    EXPECT_LE(switches, kPollSchedulerResumes / 2);
}

// ---------------------------------------------------------------------
// ReadySet pick order (satellite of the schedule-explorer PR)
// ---------------------------------------------------------------------

/**
 * The exec.h contract says wake order is irrelevant *because* the
 * ready set re-sorts: the default pick is the smallest flat tid at or
 * after the cursor, cyclically, no matter in which order tids were
 * added. Debug builds additionally assert this inside popNextFrom on
 * every pick; this test pins the semantics in release builds too.
 */
TEST(SchedTest, ReadySetPicksAreFlatTidSortedCyclic)
{
    ReadySet rs(128);
    // Deliberately unsorted insertion order.
    rs.add(5);
    rs.add(64);
    rs.add(1);
    rs.add(90);
    EXPECT_EQ(rs.size(), 4u);

    std::vector<uint32_t> tids;
    rs.collect(tids);
    EXPECT_EQ(tids, (std::vector<uint32_t>{1, 5, 64, 90}));

    EXPECT_EQ(rs.popNextFrom(6), 64u) << "smallest tid at/after cursor";
    EXPECT_EQ(rs.popNextFrom(91), 1u) << "cursor past the top wraps";
    EXPECT_TRUE(rs.take(5));
    EXPECT_FALSE(rs.take(5)) << "double-take must fail";
    EXPECT_EQ(rs.popNextFrom(0), 90u);
    EXPECT_TRUE(rs.empty());
    EXPECT_EQ(rs.popNextFrom(0), ReadySet::kNone);
}

// ---------------------------------------------------------------------
// Rank-gate abort wakeup
// ---------------------------------------------------------------------

/**
 * awaitLeader is purely event-driven now — no 1 ms re-poll — so an
 * abort source must be able to wake parked waiters via notifyAbort().
 */
TEST(SchedTest, NotifyAbortWakesParkedGateWaiter)
{
    RankGate gate(/*num_blocks=*/4, /*num_workers=*/1);
    std::atomic<bool> aborted{false};
    std::atomic<bool> parked{false};
    bool got_leadership = true;

    std::thread waiter([&] {
        parked.store(true);
        // Rank 2 can never lead: ranks 0-1 never complete.
        got_leadership =
            gate.awaitLeader(2, [&] { return aborted.load(); });
    });

    while (!parked.load())
        std::this_thread::yield();
    // Give the waiter a moment to actually park on the cv.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    aborted.store(true);
    gate.notifyAbort();
    waiter.join();

    EXPECT_FALSE(got_leadership)
        << "abort must release the waiter without leadership";
}

/**
 * Rank-gate leadership must not depend on when the lower rank
 * finished. Block rank 1 runs two threads: thread 0's atomic parks on
 * the gate while rank 0 is still running; rank 0 then completes (here
 * thread 1 completes it, which pins the moment) just before thread 1's
 * own atomic. Thread 1 must queue behind thread 0 instead of taking
 * leadership first, or the atomic order — and every cycle count that
 * follows — would hinge on host timing. The fibers run under the block
 * runner's loop (BlockState::run); their entries are the runner's
 * (Device::WorkerState::runThread) without crash handling.
 */
TEST(SchedTest, GateLeadershipFollowsTidOrderNotFrontierTiming)
{
    GlobalMemory mem(1 << 16);
    MemTiming timing;
    RankGate gate(/*num_blocks=*/2, /*num_workers=*/2);
    const LaunchConfig cfg(Dim3(2), Dim3(2));
    BlockState block(mem, timing, /*shared_bytes=*/1024);
    block.reset(/*nvm=*/nullptr, Dim3(1), cfg, /*start=*/0, &gate,
                /*rank=*/1);
    auto counter = ArrayRef<uint32_t>::allocate(mem, 1);

    uint32_t seen[2] = {~0u, ~0u};
    ThreadCtx ctx0(block, Dim3(0), 0);
    ThreadCtx ctx1(block, Dim3(1), 1);
    std::unique_ptr<Fiber> fibers[2];
    fibers[0] = std::make_unique<Fiber>([&] {
        seen[0] = ctx0.atomicAdd(counter.addrOf(0), 1);
        return block.exitThread(ctx0);
    });
    fibers[1] = std::make_unique<Fiber>([&] {
        gate.complete(0);
        seen[1] = ctx1.atomicAdd(counter.addrOf(0), 1);
        return block.exitThread(ctx1);
    });
    block.run(fibers);

    EXPECT_EQ(seen[0], 0u) << "thread 0 parked first, so it leads";
    EXPECT_EQ(seen[1], 1u);
}

/** Frontier advance still wakes waiters (the normal path). */
TEST(SchedTest, FrontierAdvanceGrantsLeadership)
{
    RankGate gate(/*num_blocks=*/3, /*num_workers=*/1);
    bool got_leadership = false;

    std::thread waiter([&] {
        got_leadership = gate.awaitLeader(1, [] { return false; });
    });
    gate.complete(0);
    waiter.join();

    EXPECT_TRUE(got_leadership);
    EXPECT_EQ(gate.frontier(), 1u);
}

} // namespace
} // namespace gpulp
