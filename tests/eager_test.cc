/**
 * @file
 * Tests for the Eager Persistency baseline: clwb/persistBarrier
 * semantics and timing, EpRuntime driven through the PersistStrategy
 * calls (undo-logging prepare, durable commit flags, crash recovery by
 * rollback), and the headline comparisons against LP (overhead and
 * write amplification) with both models behind the same calls.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/eager.h"
#include "core/runtime.h"
#include "workloads/workload.h" // overheadOf

namespace gpulp {
namespace {

TEST(ClwbTest, FlushMakesLineDurableImmediately)
{
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    auto cell = ArrayRef<uint32_t>::allocate(dev.mem(), 1);
    nvm.persistAll();

    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        t.storeAddr<uint32_t>(cell.addrOf(0), 99);
        t.clwb(cell.addrOf(0));
        t.persistBarrier();
    });
    EXPECT_TRUE(nvm.isPersisted(cell.addrOf(0), 4));
    nvm.crash();
    EXPECT_EQ(cell.hostAt(0), 99u); // survived the power failure
}

TEST(ClwbTest, UnflushedStoreIsLostOnCrash)
{
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    auto cell = ArrayRef<uint32_t>::allocate(dev.mem(), 1);
    nvm.persistAll();
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        t.storeAddr<uint32_t>(cell.addrOf(0), 99);
    });
    nvm.crash();
    EXPECT_EQ(cell.hostAt(0), 0u);
}

TEST(ClwbTest, PersistBarrierStallsForOutstandingFlushes)
{
    Device dev;
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), 256);
    Cycles no_flush = 0, with_flush = 0;
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        Cycles t0 = t.now();
        t.persistBarrier(); // nothing outstanding: cheap
        no_flush = t.now() - t0;

        t0 = t.now();
        for (int i = 0; i < 8; ++i)
            t.clwb(data.addrOf(static_cast<size_t>(i) * 32));
        t.persistBarrier();
        with_flush = t.now() - t0;
    });
    EXPECT_LT(no_flush, 16u);
    EXPECT_GE(with_flush, dev.params().timing.persist_latency_cycles);
}

TEST(EpRuntimeTest, ProtectedStoreWritesThroughAndLogs)
{
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    LaunchConfig cfg(Dim3(2), Dim3(4));
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), 8);
    for (int i = 0; i < 8; ++i)
        data.hostAt(i) = 1000 + i;
    EpRuntime ep(dev, LpConfig::scalable(), cfg, 8);
    nvm.persistAll();

    dev.launch(cfg, [&](ThreadCtx &t) {
        PersistAccum acc;
        uint64_t i = t.globalThreadIdx();
        ep.store32(t, acc, data.addrOf(i), static_cast<uint32_t>(2000 + i));
        ep.regionEnd(t, acc);
    });
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(data.hostAt(i), 2000 + i);
    EXPECT_TRUE(ep.isCommittedHost(0));
    EXPECT_TRUE(ep.isCommittedHost(1));

    // Committed EP state survives a crash without any recovery.
    nvm.crash();
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(data.hostAt(i), 2000 + i);
}

TEST(EpRuntimeTest, UncommittedRegionRollsBackFromUndoLog)
{
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    LaunchConfig cfg(Dim3(1), Dim3(4));
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), 4);
    for (int i = 0; i < 4; ++i)
        data.hostAt(i) = 7000 + i;
    EpRuntime ep(dev, LpConfig::scalable(), cfg, 8);
    nvm.persistAll();

    // Stores happen but the region never commits (simulating a crash
    // between the data flushes and the commit flag).
    dev.launch(cfg, [&](ThreadCtx &t) {
        PersistAccum acc;
        uint64_t i = t.globalThreadIdx();
        ep.store32(t, acc, data.addrOf(i), static_cast<uint32_t>(1 + i));
        // no regionEnd
    });
    nvm.crash();

    uint64_t rolled = ep.rollback();
    EXPECT_EQ(rolled, 1u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(data.hostAt(i), 7000u + static_cast<uint32_t>(i))
            << "undo must restore the pre-region value";
    // And the rollback itself is durable.
    nvm.crash();
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(data.hostAt(i), 7000u + static_cast<uint32_t>(i));
}

TEST(EpRuntimeTest, RecoverUndoLeavesCommittedRegionsAlone)
{
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    LaunchConfig cfg(Dim3(2), Dim3(2));
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), 4);
    EpRuntime ep(dev, LpConfig::scalable(), cfg, 4);
    nvm.persistAll();

    // Block 0 commits; block 1 does not.
    dev.launch(cfg, [&](ThreadCtx &t) {
        PersistAccum acc;
        uint64_t i = t.globalThreadIdx();
        ep.store32(t, acc, data.addrOf(i), static_cast<uint32_t>(50 + i));
        if (t.blockRank() == 0)
            ep.regionEnd(t, acc);
    });
    nvm.crash();
    uint64_t rolled = ep.rollback();
    EXPECT_EQ(rolled, 1u);
    EXPECT_EQ(data.hostAt(0), 50u);
    EXPECT_EQ(data.hostAt(1), 51u);
    EXPECT_EQ(data.hostAt(2), 0u); // rolled back
    EXPECT_EQ(data.hostAt(3), 0u);
}

TEST(EpRuntimeTest, CommitVerdictReadsDurableImageNotArena)
{
    // Regression: isCommittedHost() used to read the volatile arena.
    // A commit-flag store that lands *after* the crash latch trips
    // stays in the arena but never reaches the persistence domain;
    // trusting it would skip the rollback of a torn region.
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    LaunchConfig cfg(Dim3(1), Dim3(2));
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), 2);
    data.hostAt(0) = 11;
    data.hostAt(1) = 22;
    EpRuntime ep(dev, LpConfig::scalable(), cfg, 4);
    nvm.persistAll();

    auto body = [&](ThreadCtx &t) {
        PersistAccum acc;
        uint64_t i = t.globalThreadIdx();
        ep.store32(t, acc, data.addrOf(i), static_cast<uint32_t>(100 + i));
        ep.regionEnd(t, acc);
    };

    // Dry run to count observed stores; the commit flag is the last.
    nvm.resetStats();
    dev.launch(cfg, body);
    const uint64_t stores = nvm.stats().stores_observed;
    ASSERT_GT(stores, 1u);

    // Fresh run that loses power just before the commit-flag store:
    // the flag lands in the arena but never persists.
    ep.reset();
    data.hostAt(0) = 11;
    data.hostAt(1) = 22;
    nvm.persistAll();
    nvm.crashAfterStores(stores - 1);
    dev.launch(cfg, body);

    EXPECT_FALSE(ep.isCommittedHost(0))
        << "commit verdict must come from the NVM-durable view, not "
           "the arena the un-persisted flag store landed in";
    nvm.crash();
    EXPECT_FALSE(ep.isCommittedHost(0));
    EXPECT_EQ(ep.rollback(), 1u);
    EXPECT_EQ(data.hostAt(0), 11u);
    EXPECT_EQ(data.hostAt(1), 22u);
}

TEST(EpRuntimeTest, GarbageEntryTargetingAddressZeroIsSkippedByCrc)
{
    // Regression: entry validity used to be "target != kNullAddr", an
    // in-band sentinel. A torn or garbage slot whose target field
    // decoded to 0 was indistinguishable from an empty slot — rollback
    // silently stopped trusting the rest of the scan order instead of
    // rejecting the slot for what it is. Validity is out-of-band now
    // (the per-entry CRC): the garbage slot is skipped explicitly and
    // every genuine entry in the same log still rolls back.
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    LaunchConfig cfg(Dim3(1), Dim3(1));
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), 1);
    data.hostAt(0) = 777;
    EpRuntime ep(dev, LpConfig::scalable(), cfg, 2);
    nvm.persistAll();

    dev.launch(cfg, [&](ThreadCtx &t) {
        PersistAccum acc;
        ep.store32(t, acc, data.addrOf(0), 888);
        // no regionEnd: the region stays open across the crash
    });

    // Forge a garbage slot *after* the genuine entry (scanned first by
    // the newest-first rollback) whose target decodes to address 0.
    const uint64_t tagged = EpRuntime::tagAddr(/*addr=*/0, 4);
    const uint32_t garbage_old = 0xfeedfaceu;
    const uint32_t bad_crc =
        EpRuntime::entryCrc(tagged, garbage_old) ^ 0x80u;
    char *slot = dev.mem().raw(ep.logEntryAddr(0, 1));
    std::memcpy(slot, &tagged, 8);
    std::memcpy(slot + 8, &garbage_old, 4);
    std::memcpy(slot + 12, &bad_crc, 4);
    nvm.persistRange(ep.logEntryAddr(0, 1), EpRuntime::kLogEntryBytes);

    nvm.crash();
    EXPECT_EQ(ep.rollback(), 1u);
    EXPECT_EQ(data.hostAt(0), 777u)
        << "the genuine entry behind the garbage slot must still be "
           "applied";
    uint32_t head = 0;
    std::memcpy(&head, dev.mem().raw(0), 4);
    EXPECT_EQ(head, 0u) << "the garbage entry must not be applied to "
                           "the reserved null address";
}

TEST(EpRuntimeTest, GarbageLogEntryIsRejectedByCrc)
{
    // A torn or garbage log slot must not be "undone" into the data.
    // Without the per-entry CRC, any slot with a plausible nonzero
    // target word was trusted.
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), 1);
    data.hostAt(0) = 31337;
    LaunchConfig cfg(Dim3(1), Dim3(1));
    EpRuntime ep(dev, LpConfig::scalable(), cfg, 2);

    // Forge an entry targeting the (valid, in-range) data address with
    // a garbage old-value and a CRC that does not match.
    const uint64_t tagged = EpRuntime::tagAddr(data.addrOf(0), 4);
    const uint32_t garbage_old = 0xdeadbeefu;
    const uint32_t bad_crc =
        EpRuntime::entryCrc(tagged, garbage_old) ^ 0x1u;
    char *slot = dev.mem().raw(ep.logEntryAddr(0, 0));
    std::memcpy(slot, &tagged, 8);
    std::memcpy(slot + 8, &garbage_old, 4);
    std::memcpy(slot + 12, &bad_crc, 4);
    nvm.persistAll();
    nvm.crash();

    // Block 0 is uncommitted, so recovery scans its log — and must
    // skip the forged entry.
    ep.rollback();
    EXPECT_EQ(data.hostAt(0), 31337u)
        << "a CRC-invalid log entry must never be applied";
}

TEST(EpRuntimeTest, ResetClearsState)
{
    Device dev;
    LaunchConfig cfg(Dim3(1), Dim3(1));
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), 1);
    EpRuntime ep(dev, LpConfig::scalable(), cfg, 4);
    dev.launch(cfg, [&](ThreadCtx &t) {
        PersistAccum acc;
        ep.store32(t, acc, data.addrOf(0), 1);
        ep.regionEnd(t, acc);
    });
    EXPECT_TRUE(ep.isCommittedHost(0));
    ep.reset();
    EXPECT_FALSE(ep.isCommittedHost(0));
}

TEST(EpRuntimeTest, ResetPersistsTheClearedCommitFlags)
{
    // Regression: reset() used to memset the arena only. The durable
    // image kept the previous run's commit flags, and the next crash
    // rewind resurrected them — masking an uncommitted region.
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    LaunchConfig cfg(Dim3(1), Dim3(1));
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), 1);
    EpRuntime ep(dev, LpConfig::scalable(), cfg, 2);
    nvm.persistAll();

    dev.launch(cfg, [&](ThreadCtx &t) {
        PersistAccum acc;
        ep.store32(t, acc, data.addrOf(0), 5);
        ep.regionEnd(t, acc); // flag durably set
    });
    ASSERT_TRUE(ep.isCommittedHost(0));

    ep.reset();
    nvm.crash(); // power failure right after the reset
    EXPECT_FALSE(ep.isCommittedHost(0))
        << "reset must persist the cleared flags; a crash rewind must "
           "not resurrect the previous run's commit";
}

/** One store per thread through @p s's protocol, then the commit. */
LaunchResult
runProtected(Device &dev, const LaunchConfig &cfg, PersistStrategy &s,
             ArrayRef<uint32_t> data, uint32_t compute)
{
    LpContext ctx = s.context();
    return dev.launch(cfg, [&](ThreadCtx &t) {
        PersistAccum acc = makePersistAccum(&ctx);
        uint64_t i = t.globalThreadIdx();
        t.compute(compute);
        s.store32(t, acc, data.addrOf(i), static_cast<uint32_t>(i));
        s.regionEnd(t, acc);
    });
}

TEST(EpVsLpTest, EpCostsFarMoreThanLp)
{
    // The paper's Sec. I framing: 20-40% typical for EP, ~2% for LP.
    // Same kernel, three persistency schemes.
    Device dev;
    LaunchConfig cfg(Dim3(32), Dim3(64));
    const uint64_t n = cfg.numBlocks() * 64;
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), n);

    auto baseline = dev.launch(cfg, [&](ThreadCtx &t) {
        uint64_t i = t.globalThreadIdx();
        t.compute(3000);
        t.store(data, i, static_cast<uint32_t>(i));
    });

    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    auto lp_run = runProtected(dev, cfg, lp, data, 3000);
    EpRuntime ep(dev, LpConfig::scalable(), cfg, 4);
    auto ep_run = runProtected(dev, cfg, ep, data, 3000);

    double lp_overhead = overheadOf(baseline.cycles, lp_run.cycles);
    double ep_overhead = overheadOf(baseline.cycles, ep_run.cycles);
    EXPECT_GT(ep_overhead, 3.0 * lp_overhead);
    EXPECT_GT(ep_overhead, 0.10); // EP is tens of percent
}

TEST(EpVsLpTest, EpWriteAmplificationDwarfsLp)
{
    // NVM line writes of one store per thread, run to completion, under
    // no protection (@p model null) or the given model.
    auto nvm_writes = [](const PersistModel *model) {
        Device dev;
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        LaunchConfig cfg(Dim3(16), Dim3(64));
        auto data = ArrayRef<uint32_t>::allocate(dev.mem(),
                                                 cfg.numBlocks() * 64);
        std::unique_ptr<PersistStrategy> s;
        if (model != nullptr) {
            LpConfig lpc = LpConfig::scalable();
            lpc.persist = *model;
            s = makePersistStrategy(dev, lpc, cfg, 128);
        }
        nvm.persistAll();
        nvm.resetStats();
        if (s != nullptr) {
            runProtected(dev, cfg, *s, data, 0);
        } else {
            dev.launch(cfg, [&](ThreadCtx &t) {
                t.store(data, t.globalThreadIdx(), 1u);
            });
        }
        nvm.persistAll(); // drain, run-to-completion accounting
        return nvm.stats().nvmLineWrites();
    };
    const PersistModel lazy = PersistModel::Lazy;
    const PersistModel eager = PersistModel::Eager;
    uint64_t base = nvm_writes(nullptr);
    uint64_t lp = nvm_writes(&lazy);
    uint64_t ep = nvm_writes(&eager);

    // LP adds a few percent; EP multiplies writes (log + data flushes).
    EXPECT_LT(static_cast<double>(lp), 1.25 * static_cast<double>(base));
    EXPECT_GT(static_cast<double>(ep), 1.8 * static_cast<double>(base));
    EXPECT_GT(ep, lp);
}

} // namespace
} // namespace gpulp
