/**
 * @file
 * Forward-progress tests for eager recovery (Sec. II-A): "eager
 * recovery ... guarantees forward progress" — even when crashes keep
 * striking during recovery itself, repeated validate-and-recover
 * rounds must converge to the exact result, because each round
 * persists everything it recovered.
 */

#include <gtest/gtest.h>

#include "core/recovery.h"
#include "core/runtime.h"

namespace gpulp {
namespace {

class RepeatedCrashes : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RepeatedCrashes, RecoveryConvergesDespiteCrashesDuringRecovery)
{
    const uint64_t crash_period = GetParam();

    Device dev;
    NvmParams nvm_params;
    nvm_params.cache_bytes = 64 * 1024;
    NvmCache nvm(dev.mem(), nvm_params);
    dev.attachNvm(&nvm);

    LaunchConfig cfg(Dim3(24), Dim3(32));
    const uint64_t n = cfg.numBlocks() * 32;
    auto in = ArrayRef<float>::allocate(dev.mem(), n);
    auto out = ArrayRef<float>::allocate(dev.mem(), n);
    for (uint64_t i = 0; i < n; ++i)
        in.hostAt(i) = static_cast<float>(i % 31) * 0.25f;

    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();
    auto kernel = [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        uint64_t i = t.globalThreadIdx();
        float v = 5.0f * t.load(in, i) - 2.0f;
        t.store(out, i, v);
        acc.protectFloat(t, v);
        lpCommitRegion(t, ctx, acc);
    };

    nvm.persistAll();
    nvm.crashAfterStores(crash_period);
    (void)dev.launch(cfg, kernel);
    nvm.crash();

    // Keep crashing during recovery. Each recovery round re-executes
    // only still-failed blocks and then persists (eager recovery), so
    // the failed count must shrink monotonically to zero.
    uint64_t prev_failed = n + 1;
    uint64_t period = crash_period;
    int rounds = 0;
    while (true) {
        ++rounds;
        ASSERT_LE(rounds, 64) << "recovery failed to converge";

        // Validation must run reliably (a real system would not arm
        // the next fault mid-validation); crash the *recovery* kernel.
        RecoverySet failed(dev, cfg.numBlocks());
        dev.launch(cfg, [&](ThreadCtx &t) {
            ChecksumAccum acc = ctx.makeAccum();
            acc.protectFloat(t, t.load(out, t.globalThreadIdx()));
            // lpValidateRegion is a collective: every thread calls it.
            bool ok = lpValidateRegion(t, ctx, acc);
            if (t.flatThreadIdx() == 0 && !ok)
                failed.markFailed(t, t.blockRank());
        });
        uint64_t failures = failed.failedCount();
        if (failures == 0)
            break;
        // Already-durable blocks stay valid across later crashes, so
        // the failed set can never grow.
        EXPECT_LE(failures, prev_failed)
            << "a previously durable block regressed";
        prev_failed = failures;

        // Crashes are random events; model them striking the recovery
        // at stretching intervals (a fixed tiny interval would starve
        // any scheme, LP or otherwise).
        nvm.crashAfterStores(period);
        period *= 2;
        LaunchResult r = dev.launch(cfg, [&](ThreadCtx &t) {
            if (failed.isFailedHost(t.blockRank()))
                kernel(t);
        });
        if (r.crashed) {
            nvm.crash();
        } else {
            nvm.disarmCrash();
            nvm.persistAll(); // the eager-recovery persist
        }
    }

    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out.hostAt(i), 5.0f * in.hostAt(i) - 2.0f) << i;
    // Durable, too.
    nvm.crash();
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out.hostAt(i), 5.0f * in.hostAt(i) - 2.0f) << i;
}

INSTANTIATE_TEST_SUITE_P(CrashPeriods, RepeatedCrashes,
                         ::testing::Values(120ull, 300ull, 700ull,
                                           1500ull));

TEST(RecoveryDriverTest, AbsorbsCrashArmedDuringRecovery)
{
    Device dev;
    NvmParams nvm_params;
    nvm_params.cache_bytes = 64 * 1024;
    NvmCache nvm(dev.mem(), nvm_params);
    dev.attachNvm(&nvm);

    LaunchConfig cfg(Dim3(24), Dim3(32));
    const uint64_t n = cfg.numBlocks() * 32;
    auto in = ArrayRef<float>::allocate(dev.mem(), n);
    auto out = ArrayRef<float>::allocate(dev.mem(), n);
    for (uint64_t i = 0; i < n; ++i)
        in.hostAt(i) = static_cast<float>(i % 31) * 0.25f;

    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();
    auto kernel = [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        uint64_t i = t.globalThreadIdx();
        float v = 5.0f * t.load(in, i) - 2.0f;
        t.store(out, i, v);
        acc.protectFloat(t, v);
        lpCommitRegion(t, ctx, acc);
    };

    nvm.persistAll();
    nvm.crashAfterStores(200);
    (void)dev.launch(cfg, kernel);
    nvm.crash();

    // Arm a second power failure to strike while the recovery driver's
    // kernels run. Every block failed (the 64 KiB cache evicted
    // nothing before the crash), so the first recovery round attempts
    // ~800 stores and the 400-store countdown fires inside it. The
    // driver must absorb the crash, rewind to the eager persistAll()
    // checkpoint and still converge.
    nvm.crashAfterStores(400);

    RecoveryReport report = persistRecover(
        dev, cfg, lp,
        kernel,
        [&](ThreadCtx &t, RecoverySet &failed) {
            ChecksumAccum acc = ctx.makeAccum();
            acc.protectFloat(t, t.load(out, t.globalThreadIdx()));
            bool ok = lpValidateRegion(t, ctx, acc);
            if (t.flatThreadIdx() == 0 && !ok)
                failed.markFailed(t, t.blockRank());
        });

    EXPECT_TRUE(report.converged);
    EXPECT_GT(report.blocks_failed, 0u);
    EXPECT_GE(report.crashes_survived, 1u);
    EXPECT_GT(report.rounds, report.crashes_survived);

    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out.hostAt(i), 5.0f * in.hostAt(i) - 2.0f) << i;
    // Durable, too: the driver's final persistAll() checkpointed it.
    nvm.crash();
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out.hostAt(i), 5.0f * in.hostAt(i) - 2.0f) << i;
}

} // namespace
} // namespace gpulp
