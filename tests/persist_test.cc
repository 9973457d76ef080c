/**
 * @file
 * Tests for the persistency-model matrix (core/persist.h): model
 * selection and labels, the one PersistStrategy protocol every model
 * implements, the durable commit-flag verdicts, and the one recovery
 * driver persistRecover() under all five models — including crashes
 * that strike recovery itself.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/persist.h"
#include "core/runtime.h"

namespace gpulp {
namespace {

const PersistModel kAllModels[] = {
    PersistModel::Lazy,        PersistModel::Eager,
    PersistModel::Strict,      PersistModel::EpochBlock,
    PersistModel::EpochKernel,
};

const PersistModel kFlagModels[] = {
    PersistModel::Eager,
    PersistModel::Strict,
    PersistModel::EpochBlock,
    PersistModel::EpochKernel,
};

TEST(PersistModelConfigTest, NamesRoundTrip)
{
    for (PersistModel m : kAllModels)
        EXPECT_EQ(persistModelFromString(toString(m)), m);
}

TEST(PersistModelConfigTest, EnvSelectsModel)
{
    ::setenv("GPULP_PERSIST", "epoch-block", 1);
    LpConfig cfg = applyConfigEnv(LpConfig::scalable());
    ::unsetenv("GPULP_PERSIST");
    EXPECT_EQ(cfg.persist, PersistModel::EpochBlock);
}

TEST(PersistModelConfigTest, LabelCarriesNonLazyModel)
{
    LpConfig cfg = LpConfig::scalable();
    EXPECT_EQ(configLabel(cfg).find("lazy"), std::string::npos)
        << "the default model stays implicit in labels";
    cfg.persist = PersistModel::Strict;
    EXPECT_NE(configLabel(cfg).find("strict"), std::string::npos);
}

/** The strategy for model @p m over @p cfg (eager: 2 undo entries). */
std::unique_ptr<PersistStrategy>
strategyFor(Device &dev, PersistModel m, const LaunchConfig &cfg)
{
    LpConfig lpc = LpConfig::scalable();
    lpc.persist = m;
    return makePersistStrategy(dev, lpc, cfg, /*undo_entries=*/2);
}

TEST(PersistRuntimeTest, LazyModelWrapsLpRuntime)
{
    Device dev;
    LaunchConfig cfg(Dim3(2), Dim3(4));
    std::unique_ptr<PersistStrategy> s =
        strategyFor(dev, PersistModel::Lazy, cfg);
    EXPECT_EQ(s->model(), PersistModel::Lazy);
    auto *lazy = dynamic_cast<LpRuntime *>(s.get());
    ASSERT_NE(lazy, nullptr);
    LpContext ctx = s->context();
    EXPECT_EQ(ctx.strategy, s.get());
    EXPECT_EQ(ctx.cfg->persist, PersistModel::Lazy);
    EXPECT_EQ(ctx.store, &lazy->store());
    EXPECT_GT(s->footprintBytes(), 0u);
}

TEST(PersistRuntimeTest, NonLazyModelsExposeAStrategy)
{
    for (PersistModel m : kFlagModels) {
        Device dev;
        LaunchConfig cfg(Dim3(2), Dim3(4));
        std::unique_ptr<PersistStrategy> s = strategyFor(dev, m, cfg);
        EXPECT_EQ(s->model(), m);
        EXPECT_EQ(dynamic_cast<LpRuntime *>(s.get()), nullptr)
            << toString(m);
        LpContext ctx = s->context();
        EXPECT_EQ(ctx.strategy, s.get()) << toString(m);
        EXPECT_EQ(ctx.cfg->persist, m);
        // Only lazy carries a checksum store.
        EXPECT_EQ(ctx.store, nullptr) << toString(m);
        EXPECT_GT(s->footprintBytes(), 0u) << toString(m);
    }
}

/** One protected store per thread, then the region commit. */
KernelFn
storeKernel(const LpContext *lp, ArrayRef<uint32_t> out)
{
    return [lp, out](ThreadCtx &t) {
        PersistAccum acc = makePersistAccum(lp);
        uint64_t i = t.globalThreadIdx();
        persistStoreU32(t, lp, acc, out,  i,
                        static_cast<uint32_t>(1000 + i));
        persistRegionEnd(t, lp, acc);
    };
}

/** storeKernel's validation kernel: the lazy model's verdict. */
ValidateFn
storeValidation(const LpContext *lp, ArrayRef<uint32_t> out)
{
    return [lp, out](ThreadCtx &t, RecoverySet &failed) {
        ChecksumAccum acc = lp->makeAccum();
        acc.protectU32(t, t.load(out, t.globalThreadIdx()));
        bool ok = lpValidateRegion(t, *lp, acc);
        if (t.flatThreadIdx() == 0 && !ok)
            failed.markFailed(t, t.blockRank());
    };
}

/** Per-block "not durably committed" verdict of a flag model. */
std::vector<bool>
uncommitted(Device &dev, const LaunchConfig &cfg, PersistStrategy &s)
{
    RecoverySet failed(dev, cfg.numBlocks());
    LaunchResult r = s.verdict(dev, cfg, failed, ValidateFn{});
    EXPECT_EQ(r.cycles, 0u) << "flag verdicts launch nothing";
    std::vector<bool> out(cfg.numBlocks());
    for (uint64_t b = 0; b < cfg.numBlocks(); ++b)
        out[b] = failed.isFailedHost(b);
    return out;
}

TEST(PersistStrategyTest, CommittedRegionsSurviveACrash)
{
    for (PersistModel m : kFlagModels) {
        Device dev;
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        LaunchConfig cfg(Dim3(2), Dim3(4));
        auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 8);
        std::unique_ptr<PersistStrategy> s = strategyFor(dev, m, cfg);
        LpContext ctx = s->context();
        nvm.persistAll();

        dev.launch(cfg, storeKernel(&ctx, out));
        nvm.crash(); // power failure right after the kernel
        for (uint64_t i = 0; i < 8; ++i)
            EXPECT_EQ(out.hostAt(i), 1000 + i) << toString(m);
        EXPECT_EQ(uncommitted(dev, cfg, *s), std::vector<bool>(2, false))
            << toString(m);
    }
}

TEST(PersistStrategyTest, SkippedRegionEndLeavesBlockUncommitted)
{
    for (PersistModel m : kFlagModels) {
        Device dev;
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        LaunchConfig cfg(Dim3(2), Dim3(2));
        auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 4);
        std::unique_ptr<PersistStrategy> s = strategyFor(dev, m, cfg);
        LpContext ctx = s->context();
        nvm.persistAll();

        // Block 0 commits, block 1 "crashes" before its region end.
        dev.launch(cfg, [&](ThreadCtx &t) {
            PersistAccum acc = makePersistAccum(&ctx);
            uint64_t i = t.globalThreadIdx();
            persistStoreU32(t, &ctx, acc, out, i,
                            static_cast<uint32_t>(i + 1));
            if (t.blockRank() == 0)
                persistRegionEnd(t, &ctx, acc);
        });
        nvm.crash();
        EXPECT_EQ(uncommitted(dev, cfg, *s),
                  (std::vector<bool>{false, true}))
            << toString(m);
    }
}

TEST(PersistRecoverTest, RecoversACrashMidKernel)
{
    for (PersistModel m : kAllModels) {
        Device dev;
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        LaunchConfig cfg(Dim3(4), Dim3(8));
        auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 32);
        for (uint64_t i = 0; i < 32; ++i)
            out.hostAt(i) = 7; // pre-state the eager log must capture
        std::unique_ptr<PersistStrategy> s = strategyFor(dev, m, cfg);
        LpContext ctx = s->context();
        KernelFn kernel = storeKernel(&ctx, out);
        nvm.persistAll();

        // Mid-grid power failure, left pending: the driver resolves it.
        nvm.crashAfterStores(20);
        dev.launch(cfg, kernel);
        RecoveryReport rep = persistRecover(dev, cfg, *s, kernel,
                                            storeValidation(&ctx, out));
        EXPECT_TRUE(rep.converged) << toString(m);
        EXPECT_GT(rep.blocks_failed, 0u) << toString(m);
        // Only lazy's verdict is a launch (the validation kernel).
        EXPECT_EQ(rep.validate_cycles > 0, m == PersistModel::Lazy)
            << toString(m);

        nvm.crash(); // the recovered state must itself be durable
        for (uint64_t i = 0; i < 32; ++i)
            EXPECT_EQ(out.hostAt(i), 1000 + i) << toString(m);
        RecoverySet failed(dev, cfg.numBlocks());
        s->verdict(dev, cfg, failed, storeValidation(&ctx, out));
        EXPECT_EQ(failed.failedCount(), 0u) << toString(m);
    }
}

TEST(PersistRecoverTest, AbsorbsACrashDuringRecovery)
{
    for (PersistModel m : kAllModels) {
        Device dev;
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        LaunchConfig cfg(Dim3(4), Dim3(8));
        auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 32);
        std::unique_ptr<PersistStrategy> s = strategyFor(dev, m, cfg);
        LpContext ctx = s->context();
        KernelFn kernel = storeKernel(&ctx, out);
        nvm.persistAll();

        nvm.crashAfterStores(20);
        dev.launch(cfg, kernel);
        nvm.crash();
        // A second power failure strikes while recovery re-executes.
        nvm.crashAfterStores(6);
        RecoveryReport rep = persistRecover(dev, cfg, *s, kernel,
                                            storeValidation(&ctx, out));
        EXPECT_TRUE(rep.converged) << toString(m);
        EXPECT_GE(rep.crashes_survived, 1u) << toString(m);
        nvm.crash();
        for (uint64_t i = 0; i < 32; ++i)
            EXPECT_EQ(out.hostAt(i), 1000 + i) << toString(m);
    }
}

TEST(PersistRecoverTest, RollsBackBeforeReexecuting)
{
    // Eager's undo log must restore the pre-region image before failed
    // blocks re-run; a non-idempotent observer would otherwise see the
    // crash's partial stores. The other models keep no log and leave
    // the repair to re-execution alone. Verify by crashing so that
    // some stores of an uncommitted block may have persisted, then
    // checking that recovery still converges to the clean result.
    for (PersistModel m : kAllModels) {
        Device dev;
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        LaunchConfig cfg(Dim3(2), Dim3(4));
        auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 8);
        for (uint64_t i = 0; i < 8; ++i)
            out.hostAt(i) = 40 + static_cast<uint32_t>(i);
        std::unique_ptr<PersistStrategy> s = strategyFor(dev, m, cfg);
        LpContext ctx = s->context();
        KernelFn kernel = storeKernel(&ctx, out);
        nvm.persistAll();

        // The flush-based models flush every store, so a mid-kernel
        // cut leaves a prefix of new values durable in an uncommitted
        // region.
        nvm.crashAfterStores(10);
        dev.launch(cfg, kernel);
        nvm.crash();

        uint64_t rolled = s->rollback();
        EXPECT_EQ(rolled > 0, m == PersistModel::Eager) << toString(m);
        for (uint64_t i = 0; i < 8; ++i) {
            uint32_t v = out.hostAt(i);
            EXPECT_TRUE(v == 40 + i || v == 1000 + i)
                << toString(m) << " slot " << i << " holds " << v
                << ", neither pre-region nor committed value";
        }

        RecoveryReport rep = persistRecover(dev, cfg, *s, kernel,
                                            storeValidation(&ctx, out));
        EXPECT_TRUE(rep.converged) << toString(m);
        nvm.crash();
        for (uint64_t i = 0; i < 8; ++i)
            EXPECT_EQ(out.hostAt(i), 1000 + i) << toString(m);
    }
}

TEST(RecoverySetTest, HostReadRejectsAnOutOfRangeBlock)
{
    // The driver's recovery kernel reads the set from every thread of
    // every re-execution launch; a block past the end must not read
    // whatever follows the flag array.
    Device dev;
    RecoverySet set(dev, 4);
    set.markFailedHost(3);
    EXPECT_TRUE(set.isFailedHost(3));
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(set.isFailedHost(4), "out of range");
}

} // namespace
} // namespace gpulp
