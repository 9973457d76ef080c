/**
 * @file
 * Tests for the LP core: checksum engines, block reductions, checksum
 * stores (quad / cuckoo / global array in all lock modes), region
 * commit/validation, and the full crash -> validate -> recover loop.
 */

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "core/recovery.h"
#include "core/runtime.h"

namespace gpulp {
namespace {

/** Run @p body as a single simulated thread. */
LaunchResult
runSingleThread(Device &dev, const std::function<void(ThreadCtx &)> &body)
{
    return dev.launch(LaunchConfig(Dim3(1), Dim3(1)), body);
}

// ---------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------

TEST(ChecksumTest, ModularOnlyTouchesSum)
{
    ChecksumAccum acc(ChecksumKind::Modular);
    acc.foldHost(5);
    acc.foldHost(7);
    EXPECT_EQ(acc.value().sum, 12u);
    EXPECT_EQ(acc.value().parity, 0u);
}

TEST(ChecksumTest, ParityOnlyTouchesParity)
{
    ChecksumAccum acc(ChecksumKind::Parity);
    acc.foldHost(0b1100);
    acc.foldHost(0b1010);
    EXPECT_EQ(acc.value().sum, 0u);
    EXPECT_EQ(acc.value().parity, 0b0110u);
}

TEST(ChecksumTest, DualUpdatesBoth)
{
    ChecksumAccum acc(ChecksumKind::ModularParity);
    acc.foldHost(3);
    acc.foldHost(3);
    EXPECT_EQ(acc.value().sum, 6u);
    EXPECT_EQ(acc.value().parity, 0u); // x ^ x == 0
}

TEST(ChecksumTest, ModularSumWrapsAround)
{
    ChecksumAccum acc(ChecksumKind::Modular);
    acc.foldHost(0xffffffffu);
    acc.foldHost(2);
    EXPECT_EQ(acc.value().sum, 1u);
}

TEST(ChecksumTest, FloatFoldUsesOrderedInt)
{
    ChecksumAccum acc(ChecksumKind::ModularParity);
    acc.foldHostFloat(3.5f);
    EXPECT_EQ(acc.value().sum, 1080033280u); // Fig. 2
    EXPECT_EQ(acc.value().parity, 1080033280u);
}

TEST(ChecksumTest, OrderInsensitivity)
{
    // LP regions are associative: any accumulation order must yield the
    // identical checksum (the property parallel reduction relies on).
    std::vector<float> values(257);
    Prng rng(99);
    for (auto &v : values)
        v = rng.nextFloat(-1e6f, 1e6f);
    Checksums forward =
        hostChecksumFloats(values, ChecksumKind::ModularParity);
    std::mt19937 shuffle_rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        std::shuffle(values.begin(), values.end(), shuffle_rng);
        EXPECT_EQ(hostChecksumFloats(values, ChecksumKind::ModularParity),
                  forward);
    }
}

TEST(ChecksumTest, SingleBitCorruptionAlwaysDetectedByDual)
{
    // Flip each bit of one value: the dual checksum must change.
    std::vector<uint32_t> values{0x12345678u, 0x9abcdef0u, 0x0f0f0f0fu};
    Checksums clean = hostChecksumU32(values, ChecksumKind::ModularParity);
    for (int bit = 0; bit < 32; ++bit) {
        auto corrupted = values;
        corrupted[1] ^= 1u << bit;
        EXPECT_NE(hostChecksumU32(corrupted, ChecksumKind::ModularParity),
                  clean)
            << "bit " << bit;
    }
}

TEST(ChecksumTest, RandomCorruptionDetectionRate)
{
    // Random multi-word corruption: with dual checksums, misses should
    // be absent in 20k trials (paper cites < 1e-12 false negatives).
    Prng rng(1234);
    std::vector<uint32_t> values(64);
    for (auto &v : values)
        v = static_cast<uint32_t>(rng.next());
    Checksums clean = hostChecksumU32(values, ChecksumKind::ModularParity);
    int undetected = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        auto corrupted = values;
        // Corrupt 1-3 words with random garbage (not equal to original).
        int n = 1 + static_cast<int>(rng.nextBelow(3));
        for (int k = 0; k < n; ++k) {
            size_t idx = rng.nextBelow(values.size());
            uint32_t garbage = static_cast<uint32_t>(rng.next());
            if (garbage == corrupted[idx])
                garbage ^= 1;
            corrupted[idx] = garbage;
        }
        if (hostChecksumU32(corrupted, ChecksumKind::ModularParity) ==
            clean) {
            ++undetected;
        }
    }
    EXPECT_EQ(undetected, 0);
}

TEST(ChecksumTest, DeviceAccumulatorMatchesHost)
{
    Device dev;
    std::vector<float> values{1.5f, -2.25f, 1e10f, 3.5f};
    Checksums device_cs;
    runSingleThread(dev, [&](ThreadCtx &t) {
        ChecksumAccum acc(ChecksumKind::ModularParity);
        for (float v : values)
            acc.protectFloat(t, v);
        device_cs = acc.value();
    });
    EXPECT_EQ(device_cs,
              hostChecksumFloats(values, ChecksumKind::ModularParity));
}

TEST(ChecksumTest, Adler32KnownVector)
{
    const char *text = "Wikipedia";
    uint32_t result = adler32(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(text), 9));
    EXPECT_EQ(result, 0x11E60398u);
}

TEST(ChecksumTest, Adler32EmptyIsOne)
{
    EXPECT_EQ(adler32({}), 1u);
}

TEST(ChecksumTest, Adler32LargeInputModularBound)
{
    std::vector<uint8_t> big(100000, 0xff);
    uint32_t result = adler32(big);
    EXPECT_LT(result & 0xffffu, 65521u);
    EXPECT_LT(result >> 16, 65521u);
}

// ---------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------

class ReductionBlockSizes : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ReductionBlockSizes, ParallelReductionMatchesHostChecksum)
{
    const uint32_t threads = GetParam();
    Device dev;
    std::vector<float> values(threads);
    for (uint32_t i = 0; i < threads; ++i)
        values[i] = 0.25f * static_cast<float>(i) - 3.0f;

    Checksums reduced;
    dev.launch(LaunchConfig(Dim3(1), Dim3(threads)), [&](ThreadCtx &t) {
        ChecksumAccum acc(ChecksumKind::ModularParity);
        acc.protectFloat(t, values[t.flatThreadIdx()]);
        Checksums r =
            blockReduceParallel(t, acc.value(), ChecksumKind::ModularParity);
        if (t.flatThreadIdx() == 0)
            reduced = r;
    });
    EXPECT_EQ(reduced,
              hostChecksumFloats(values, ChecksumKind::ModularParity));
}

TEST_P(ReductionBlockSizes, SequentialGlobalMatchesParallel)
{
    const uint32_t threads = GetParam();
    Device dev;
    auto scratch = ArrayRef<uint64_t>::allocate(dev.mem(), threads);
    std::vector<uint32_t> values(threads);
    for (uint32_t i = 0; i < threads; ++i)
        values[i] = i * 2654435761u;

    Checksums seq;
    dev.launch(LaunchConfig(Dim3(1), Dim3(threads)), [&](ThreadCtx &t) {
        ChecksumAccum acc(ChecksumKind::ModularParity);
        acc.protectU32(t, values[t.flatThreadIdx()]);
        Checksums r = blockReduceSequentialGlobal(
            t, acc.value(), ChecksumKind::ModularParity, scratch);
        if (t.flatThreadIdx() == 0)
            seq = r;
    });
    EXPECT_EQ(seq, hostChecksumU32(values, ChecksumKind::ModularParity));
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, ReductionBlockSizes,
                         ::testing::Values(1u, 7u, 32u, 33u, 64u, 96u,
                                           256u, 1024u));

TEST(ReductionTest, DualChecksumCostsMoreThanSingle)
{
    // Sec. VII-2: dual checksums add shuffle traffic.
    Device dev;
    auto run = [&](ChecksumKind kind) {
        return dev
            .launch(LaunchConfig(Dim3(8), Dim3(256)),
                    [&](ThreadCtx &t) {
                        ChecksumAccum acc(kind);
                        acc.protectU32(t, t.flatThreadIdx());
                        blockReduceParallel(t, acc.value(), kind);
                    })
            .cycles;
    };
    Cycles modular = run(ChecksumKind::Modular);
    Cycles both = run(ChecksumKind::ModularParity);
    EXPECT_GT(both, modular);
}

TEST(ReductionTest, SequentialGeneratesGlobalTrafficParallelDoesNot)
{
    // Table IV's mechanism: the no-shuffle path stages checksums in
    // global memory.
    Device dev;
    LaunchConfig cfg(Dim3(4), Dim3(256));
    auto scratch =
        ArrayRef<uint64_t>::allocate(dev.mem(), cfg.numBlocks() * 256);

    auto parallel = dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc(ChecksumKind::ModularParity);
        acc.protectU32(t, 1);
        blockReduceParallel(t, acc.value(), ChecksumKind::ModularParity);
    });
    auto sequential = dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc(ChecksumKind::ModularParity);
        acc.protectU32(t, 1);
        blockReduceSequentialGlobal(t, acc.value(),
                                    ChecksumKind::ModularParity, scratch);
    });
    EXPECT_EQ(parallel.traffic.totalBytes(), 0u);
    EXPECT_GE(sequential.traffic.totalBytes(),
              cfg.numBlocks() * 256 * sizeof(uint64_t));
    EXPECT_GT(sequential.cycles, parallel.cycles);
}

// ---------------------------------------------------------------------
// Checksum stores
// ---------------------------------------------------------------------

struct StoreCase {
    TableKind table;
    LockMode lock;
};

class StoreKinds : public ::testing::TestWithParam<StoreCase>
{
};

TEST_P(StoreKinds, InsertLookupRoundTrip)
{
    Device dev;
    LpConfig cfg;
    cfg.table = GetParam().table;
    cfg.lock = GetParam().lock;
    auto store = makeChecksumStore(dev, cfg, 64);

    runSingleThread(dev, [&](ThreadCtx &t) {
        for (uint32_t key = 0; key < 64; ++key)
            store->insert(t, key, Checksums{key * 3, key * 7});
    });
    for (uint32_t key = 0; key < 64; ++key) {
        Checksums cs;
        ASSERT_TRUE(store->lookup(key, &cs)) << "key " << key;
        EXPECT_EQ(cs.sum, key * 3);
        EXPECT_EQ(cs.parity, key * 7);
    }
    EXPECT_EQ(store->stats().inserts, 64u);
}

TEST_P(StoreKinds, MissingKeyLookupFails)
{
    Device dev;
    LpConfig cfg;
    cfg.table = GetParam().table;
    cfg.lock = GetParam().lock;
    auto store = makeChecksumStore(dev, cfg, 16);
    Checksums cs;
    EXPECT_FALSE(store->lookup(5, &cs));
}

TEST_P(StoreKinds, ReinsertOverwrites)
{
    // Recovery re-executes failed blocks, which re-inserts their key.
    Device dev;
    LpConfig cfg;
    cfg.table = GetParam().table;
    cfg.lock = GetParam().lock;
    auto store = makeChecksumStore(dev, cfg, 8);
    runSingleThread(dev, [&](ThreadCtx &t) {
        store->insert(t, 3, Checksums{1, 1});
        store->insert(t, 3, Checksums{9, 9});
    });
    Checksums cs;
    ASSERT_TRUE(store->lookup(3, &cs));
    EXPECT_EQ(cs.sum, 9u);
}

TEST_P(StoreKinds, ClearEmptiesTheStore)
{
    Device dev;
    LpConfig cfg;
    cfg.table = GetParam().table;
    cfg.lock = GetParam().lock;
    auto store = makeChecksumStore(dev, cfg, 8);
    runSingleThread(dev, [&](ThreadCtx &t) {
        store->insert(t, 2, Checksums{5, 5});
    });
    store->clear();
    Checksums cs;
    EXPECT_FALSE(store->lookup(2, &cs));
    EXPECT_EQ(store->stats().inserts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, StoreKinds,
    ::testing::Values(StoreCase{TableKind::QuadProbe, LockMode::LockFree},
                      StoreCase{TableKind::QuadProbe, LockMode::LockBased},
                      StoreCase{TableKind::QuadProbe, LockMode::NoAtomic},
                      StoreCase{TableKind::Cuckoo, LockMode::LockFree},
                      StoreCase{TableKind::Cuckoo, LockMode::LockBased},
                      StoreCase{TableKind::Cuckoo, LockMode::NoAtomic},
                      StoreCase{TableKind::GlobalArray,
                                LockMode::LockFree},
                      StoreCase{TableKind::Bucket2, LockMode::LockFree},
                      StoreCase{TableKind::Bucket2, LockMode::LockBased},
                      StoreCase{TableKind::Bucket2, LockMode::NoAtomic},
                      StoreCase{TableKind::Bucket2Opt,
                                LockMode::LockFree}),
    [](const ::testing::TestParamInfo<StoreCase> &info) {
        return std::string(toString(info.param.table)) + "_" +
               toString(info.param.lock);
    });

TEST(StoreTest, GlobalArrayHasNoCollisionsEver)
{
    Device dev;
    GlobalArrayStore store(dev, 4096);
    runSingleThread(dev, [&](ThreadCtx &t) {
        for (uint32_t key = 0; key < 4096; ++key)
            store.insert(t, key, Checksums{key, ~key});
    });
    EXPECT_EQ(store.stats().collisions, 0u);
    EXPECT_EQ(store.capacity(), 4096u);
    // 8 payload bytes + 1 out-of-band valid byte per slot.
    EXPECT_EQ(store.footprintBytes(), 4096u * 9);
}

TEST(StoreTest, GlobalArrayUnwrittenSlotReportsMissing)
{
    Device dev;
    GlobalArrayStore store(dev, 8);
    Checksums cs;
    EXPECT_FALSE(store.lookup(7, &cs));
}

TEST(StoreTest, HashedTablesCollideUnderLoad)
{
    Device dev;
    QuadProbeTable quad(dev, 4096, LockMode::LockFree, 0.85);
    CuckooTable cuckoo(dev, 4096, LockMode::LockFree, 0.45);
    runSingleThread(dev, [&](ThreadCtx &t) {
        for (uint32_t key = 0; key < 4096; ++key) {
            quad.insert(t, key, Checksums{key, key});
            cuckoo.insert(t, key, Checksums{key, key});
        }
    });
    EXPECT_GT(quad.stats().collisions, 0u);
    EXPECT_GT(cuckoo.stats().collisions, 0u);
    // Every key must still be findable despite collisions.
    for (uint32_t key = 0; key < 4096; ++key) {
        Checksums cs;
        ASSERT_TRUE(quad.lookup(key, &cs)) << key;
        ASSERT_TRUE(cuckoo.lookup(key, &cs)) << key;
    }
}

TEST(StoreTest, QuadProbeSequenceCoversTable)
{
    // The triangular quadratic sequence must visit every slot, or a
    // nearly-full table could loop forever.
    Device dev;
    QuadProbeTable quad(dev, 4, LockMode::LockFree, 1.0);
    uint64_t cap = quad.capacity();
    // Insert cap-1 keys into a table at load factor ~1: every insert
    // must terminate, which requires the probe sequence to reach every
    // slot.
    runSingleThread(dev, [&](ThreadCtx &t) {
        for (uint32_t key = 0; key + 1 < cap; ++key)
            quad.insert(t, key, Checksums{key, key});
    });
    for (uint32_t key = 0; key + 1 < cap; ++key) {
        Checksums cs;
        EXPECT_TRUE(quad.lookup(key, &cs));
    }
}

TEST(StoreTest, CuckooStashCatchesEvictionCycles)
{
    // A deliberately tiny, overloaded cuckoo table forces cycles.
    Device dev;
    CuckooTable cuckoo(dev, 12, LockMode::LockFree, 0.95);
    runSingleThread(dev, [&](ThreadCtx &t) {
        for (uint32_t key = 0; key < 12; ++key)
            cuckoo.insert(t, key, Checksums{key, key});
    });
    for (uint32_t key = 0; key < 12; ++key) {
        Checksums cs;
        ASSERT_TRUE(cuckoo.lookup(key, &cs)) << key;
        EXPECT_EQ(cs.sum, key);
    }
}

TEST(StoreTest, LockBasedInsertIsSlowerThanLockFree)
{
    // Table III's core finding, at the unit level.
    Device dev;
    LaunchConfig cfg(Dim3(256), Dim3(32));
    auto run = [&](LockMode mode) {
        LpConfig lp_cfg;
        lp_cfg.table = TableKind::QuadProbe;
        lp_cfg.lock = mode;
        auto store = makeChecksumStore(dev, lp_cfg, cfg.numBlocks());
        return dev
            .launch(cfg,
                    [&](ThreadCtx &t) {
                        if (t.flatThreadIdx() == 0) {
                            store->insert(
                                t, static_cast<uint32_t>(t.blockRank()),
                                Checksums{1, 1});
                        }
                    })
            .cycles;
    };
    Cycles lockfree = run(LockMode::LockFree);
    Cycles lockbased = run(LockMode::LockBased);
    EXPECT_GT(lockbased, 5 * lockfree);
}

TEST(StoreTest, NoAtomicQuadIsMuchSlowerThanAtomic)
{
    // Sec. IV-D.3: removing atomics hurts.
    Device dev;
    LaunchConfig cfg(Dim3(128), Dim3(32));
    auto run = [&](LockMode mode) {
        LpConfig lp_cfg;
        lp_cfg.table = TableKind::QuadProbe;
        lp_cfg.lock = mode;
        auto store = makeChecksumStore(dev, lp_cfg, cfg.numBlocks());
        return dev
            .launch(cfg,
                    [&](ThreadCtx &t) {
                        if (t.flatThreadIdx() == 0) {
                            store->insert(
                                t, static_cast<uint32_t>(t.blockRank()),
                                Checksums{1, 1});
                        }
                    })
            .cycles;
    };
    EXPECT_GT(run(LockMode::NoAtomic), 5 * run(LockMode::LockFree));
}

TEST(StoreTest, GlobalArrayInsertIsCheapestUnderScale)
{
    Device dev;
    LaunchConfig cfg(Dim3(2048), Dim3(32));
    auto run = [&](TableKind table) {
        LpConfig lp_cfg;
        lp_cfg.table = table;
        auto store = makeChecksumStore(dev, lp_cfg, cfg.numBlocks());
        return dev
            .launch(cfg,
                    [&](ThreadCtx &t) {
                        if (t.flatThreadIdx() == 0) {
                            store->insert(
                                t, static_cast<uint32_t>(t.blockRank()),
                                Checksums{1, 1});
                        }
                    })
            .cycles;
    };
    Cycles array = run(TableKind::GlobalArray);
    EXPECT_LE(array, run(TableKind::QuadProbe));
    EXPECT_LE(array, run(TableKind::Cuckoo));
}

// ---------------------------------------------------------------------
// Region commit + runtime
// ---------------------------------------------------------------------

TEST(RegionTest, CommitStoresPerBlockChecksums)
{
    Device dev;
    LaunchConfig cfg(Dim3(16), Dim3(64));
    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();

    auto out = ArrayRef<float>::allocate(dev.mem(), cfg.numBlocks() * 64);
    dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        float v = static_cast<float>(t.globalThreadIdx()) * 1.5f;
        t.store(out, t.globalThreadIdx(), v);
        acc.protectFloat(t, v);
        lpCommitRegion(t, ctx, acc);
    });

    for (uint64_t b = 0; b < cfg.numBlocks(); ++b) {
        std::vector<float> block_values(64);
        for (uint32_t i = 0; i < 64; ++i)
            block_values[i] = out.hostAt(b * 64 + i);
        Checksums expect =
            hostChecksumFloats(block_values, ChecksumKind::ModularParity);
        Checksums stored;
        ASSERT_TRUE(lp.store().lookup(static_cast<uint32_t>(b), &stored));
        EXPECT_EQ(stored, expect) << "block " << b;
    }
}

TEST(RegionTest, ValidationDetectsCorruptedOutput)
{
    Device dev;
    LaunchConfig cfg(Dim3(4), Dim3(32));
    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();
    auto out = ArrayRef<float>::allocate(dev.mem(), cfg.numBlocks() * 32);

    auto kernel = [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        float v = static_cast<float>(t.globalThreadIdx());
        t.store(out, t.globalThreadIdx(), v);
        acc.protectFloat(t, v);
        lpCommitRegion(t, ctx, acc);
    };
    dev.launch(cfg, kernel);

    // Corrupt one value in block 2.
    out.hostAt(2 * 32 + 5) = -777.0f;

    std::vector<int> verdicts(cfg.numBlocks(), -1);
    dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        acc.protectFloat(t, t.load(out, t.globalThreadIdx()));
        bool ok = lpValidateRegion(t, ctx, acc);
        if (t.flatThreadIdx() == 0)
            verdicts[t.blockRank()] = ok ? 1 : 0;
    });
    EXPECT_EQ(verdicts[0], 1);
    EXPECT_EQ(verdicts[1], 1);
    EXPECT_EQ(verdicts[2], 0);
    EXPECT_EQ(verdicts[3], 1);
}

TEST(RuntimeTest, FootprintAccountsStoreAndScratch)
{
    Device dev;
    LaunchConfig cfg(Dim3(128), Dim3(64));
    LpRuntime array_lp(dev, LpConfig::scalable(), cfg);
    // 8 payload bytes + 1 out-of-band valid byte per block slot.
    EXPECT_EQ(array_lp.footprintBytes(), 128u * 9);

    LpConfig seq_cfg;
    seq_cfg.reduction = ReductionKind::SequentialGlobal;
    LpRuntime seq_lp(dev, seq_cfg, cfg);
    EXPECT_EQ(seq_lp.footprintBytes(),
              128u * 9 + 128u * 64 * sizeof(uint64_t));
}

// ---------------------------------------------------------------------
// End-to-end crash recovery
// ---------------------------------------------------------------------

class CrashRecoveryEndToEnd : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CrashRecoveryEndToEnd, RecoversExactOutputAfterInjectedCrash)
{
    const uint64_t crash_after = GetParam();

    Device dev;
    NvmParams nvm_params;
    nvm_params.cache_bytes = 64 * 1024; // small cache: partial persistence
    NvmCache nvm(dev.mem(), nvm_params);
    dev.attachNvm(&nvm);

    LaunchConfig cfg(Dim3(32), Dim3(64));
    const uint64_t n = cfg.numBlocks() * 64;
    auto in = ArrayRef<float>::allocate(dev.mem(), n);
    auto out = ArrayRef<float>::allocate(dev.mem(), n);
    for (uint64_t i = 0; i < n; ++i)
        in.hostAt(i) = static_cast<float>(i % 97) * 0.5f;

    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();

    // The protected (idempotent) kernel: out[i] = 2*in[i] + 1.
    auto kernel = [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        uint64_t i = t.globalThreadIdx();
        float v = 2.0f * t.load(in, i) + 1.0f;
        t.store(out, i, v);
        acc.protectFloat(t, v);
        lpCommitRegion(t, ctx, acc);
    };

    // Reference result from a crash-free run on a separate device.
    std::vector<float> reference(n);
    for (uint64_t i = 0; i < n; ++i)
        reference[i] = 2.0f * in.hostAt(i) + 1.0f;

    // Inputs (and the cleared store) are durable before the kernel.
    nvm.persistAll();
    nvm.crashAfterStores(crash_after);

    LaunchResult r = dev.launch(cfg, kernel);
    if (crash_after < 2000) {
        ASSERT_TRUE(r.crashed) << "crash_after=" << crash_after;
    }

    // Power failure: volatile state gone.
    nvm.crash();

    // Validate + recover.
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

    EXPECT_EQ(report.blocks_checked, cfg.numBlocks());
    if (r.crashed) {
        EXPECT_GT(report.blocks_failed, 0u);
    }

    // After eager recovery the full output must match the reference —
    // both in volatile memory and in the persisted image.
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out.hostAt(i), reference[i]) << "index " << i;
    nvm.crash(); // drop volatile state again; recovery persisted it
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out.hostAt(i), reference[i])
            << "persisted image, index " << i;
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrashRecoveryEndToEnd,
                         ::testing::Values(0ull, 17ull, 150ull, 600ull,
                                           1500ull, 500000ull));

} // namespace
} // namespace gpulp
