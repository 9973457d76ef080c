/**
 * @file
 * Tests for the v2 bucketized checksum-table backend, Bucket2OptTable
 * (docs/CHECKSUM_TABLES.md): two-choice insertion at >90% load factor,
 * displacement and stash coverage, erase, and the seqlock's torn-read
 * defenses — the version re-check, host-side odd-version-as-miss, and
 * the stuck-odd seizure path that a crash mid-critical-section leaves
 * behind.
 */

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/explorer.h"
#include "core/checksum_store.h"
#include "harness/faultcampaign.h"

namespace gpulp {

/** White-box access to Bucket2OptTable internals (friend of the class)
 *  so tests can construct the exact memory states a crash leaves. */
struct Bucket2OptTestPeer {
    static uint64_t
    bucketOf(const Bucket2OptTable &t, uint32_t key, uint32_t choice)
    {
        return t.bucketOf(key, choice);
    }

    static Addr
    versionAddr(const Bucket2OptTable &t, uint64_t bucket)
    {
        return t.versionAddr(bucket);
    }

    static Addr
    keyAddr(const Bucket2OptTable &t, uint64_t bucket, uint32_t slot)
    {
        return t.keyAddr(bucket, slot);
    }
};

namespace {

LaunchResult
runSingleThread(Device &dev, const std::function<void(ThreadCtx &)> &body)
{
    return dev.launch(LaunchConfig(Dim3(1), Dim3(1)), body);
}

uint32_t
readVersion(Device &dev, const Bucket2OptTable &table, uint64_t bucket)
{
    uint32_t v;
    std::memcpy(&v, dev.mem().raw(Bucket2OptTestPeer::versionAddr(
                        table, bucket)),
                4);
    return v;
}

void
writeVersion(Device &dev, const Bucket2OptTable &table, uint64_t bucket,
             uint32_t v)
{
    std::memcpy(dev.mem().raw(Bucket2OptTestPeer::versionAddr(table,
                                                              bucket)),
                &v, 4);
}

/** Inserts keys [0, n) from one thread, each with payload
 *  {key * 5, key ^ 0xa5a5a5a5}. */
void
insertKeys(Device &dev, Bucket2OptTable &store, uint32_t n)
{
    runSingleThread(dev, [&](ThreadCtx &t) {
        for (uint32_t key = 0; key < n; ++key)
            store.insert(t, key, Checksums{key * 5, key ^ 0xa5a5a5a5u});
    });
}

/** Bucket count of a table sized for @p num_keys: its slots minus the
 *  stash, over the bucket width. */
uint64_t
numBuckets(const Bucket2OptTable &store, uint64_t num_keys)
{
    return (store.capacity() - std::max<uint64_t>(64, num_keys / 64)) /
           Bucket2OptTable::kBucketWidth;
}

// ---------------------------------------------------------------------
// Two-choice layout: placement, displacement, stash, erase
// ---------------------------------------------------------------------

TEST(BucketStoreTest, RoundTripsEveryKeyAtNinetyFivePercentLoad)
{
    // The regime the WarpSpeed line of work targets and the paper's
    // open-addressed tables cannot reach: every key present, every
    // payload intact, at 95% load.
    constexpr uint32_t kKeys = 2048;
    Device dev;
    Bucket2OptTable store(dev, kKeys, 0.95);
    insertKeys(dev, store, kKeys);
    for (uint32_t key = 0; key < kKeys; ++key) {
        Checksums cs;
        ASSERT_TRUE(store.lookup(key, &cs)) << "key " << key;
        EXPECT_EQ(cs.sum, key * 5);
        EXPECT_EQ(cs.parity, key ^ 0xa5a5a5a5u);
    }
    EXPECT_EQ(store.stats().inserts, kKeys);
    // At 95% load both candidate buckets of some keys must have filled,
    // so the displacement path is genuinely covered.
    EXPECT_GT(store.stats().displacements, 0u);
}

TEST(BucketStoreTest, OptimisticRoundTripsEveryKeyAtNinetyFivePercentLoad)
{
    // The same displacement-heavy fill, checked on the seqlock: once
    // quiescent, every version word must be even (no claim leaked by
    // tryPlaceLocked or the two-bucket displacement).
    constexpr uint32_t kKeys = 2048;
    Device dev;
    Bucket2OptTable store(dev, kKeys, 0.95);
    insertKeys(dev, store, kKeys);
    ASSERT_GT(store.stats().displacements, 0u);
    for (uint64_t b = 0; b < numBuckets(store, kKeys); ++b)
        ASSERT_EQ(readVersion(dev, store, b) % 2, 0u) << "bucket " << b;
}

TEST(BucketStoreTest, EraseRemovesOnlyTheTargetKey)
{
    Device dev;
    Bucket2OptTable store(dev, 256, 0.9);
    runSingleThread(dev, [&](ThreadCtx &t) {
        for (uint32_t key = 0; key < 256; ++key)
            store.insert(t, key, Checksums{key, ~key});
    });
    EXPECT_TRUE(store.erase(17));
    EXPECT_FALSE(store.erase(17)) << "second erase must report absent";
    Checksums cs;
    EXPECT_FALSE(store.lookup(17, &cs));
    for (uint32_t key = 0; key < 256; ++key) {
        if (key == 17)
            continue;
        ASSERT_TRUE(store.lookup(key, &cs)) << "key " << key;
        EXPECT_EQ(cs.sum, key);
    }
    // An erased slot is reusable.
    runSingleThread(dev, [&](ThreadCtx &t) {
        store.insert(t, 17, Checksums{99, 100});
    });
    ASSERT_TRUE(store.lookup(17, &cs));
    EXPECT_EQ(cs.sum, 99u);
}

TEST(BucketStoreTest, OptimisticEraseRemovesOnlyTheTargetKey)
{
    // Erase of a stash-resident key: at 100% nominal load some keys sit
    // in neither candidate bucket. Erasing one clears only its stash
    // slot, and, being host-side, takes no bucket claim: every version
    // word stays as the inserts left it.
    constexpr uint32_t kKeys = 512;
    Device dev;
    Bucket2OptTable store(dev, kKeys, 1.0);
    runSingleThread(dev, [&](ThreadCtx &t) {
        for (uint32_t key = 0; key < kKeys; ++key)
            store.insert(t, key, Checksums{key, ~key});
    });
    auto inABucket = [&](uint32_t key) {
        for (uint32_t c = 0; c < 2; ++c) {
            uint64_t b = Bucket2OptTestPeer::bucketOf(store, key, c);
            for (uint32_t s = 0; s < Bucket2OptTable::kBucketWidth; ++s) {
                uint32_t stored;
                std::memcpy(&stored,
                            dev.mem().raw(
                                Bucket2OptTestPeer::keyAddr(store, b, s)),
                            4);
                if (stored == key)
                    return true;
            }
        }
        return false;
    };
    uint32_t victim = 0;
    while (victim < kKeys && inABucket(victim))
        ++victim;
    ASSERT_LT(victim, kKeys) << "no key landed in the stash";
    std::vector<uint32_t> versions;
    for (uint64_t b = 0; b < numBuckets(store, kKeys); ++b)
        versions.push_back(readVersion(dev, store, b));

    EXPECT_TRUE(store.erase(victim));
    Checksums cs;
    EXPECT_FALSE(store.lookup(victim, &cs));
    for (uint32_t key = 0; key < kKeys; ++key) {
        if (key == victim)
            continue;
        ASSERT_TRUE(store.lookup(key, &cs)) << "key " << key;
        EXPECT_EQ(cs.sum, key);
        EXPECT_EQ(cs.parity, ~key);
    }
    for (uint64_t b = 0; b < versions.size(); ++b)
        EXPECT_EQ(readVersion(dev, store, b), versions[b]) << "bucket " << b;
}

TEST(BucketStoreTest, StashCatchesDisplacementExhaustion)
{
    // A tiny table at 100% nominal load leaves zero slack: some keys
    // must exhaust their displacement budget and land in the stash,
    // and they must still be found (the stash is scanned fully).
    constexpr uint32_t kKeys = 512;
    Device dev;
    Bucket2OptTable store(dev, kKeys, 1.0);
    runSingleThread(dev, [&](ThreadCtx &t) {
        for (uint32_t key = 0; key < kKeys; ++key)
            store.insert(t, key, Checksums{key, key});
    });
    EXPECT_GT(store.stats().stash_inserts, 0u);
    for (uint32_t key = 0; key < kKeys; ++key) {
        Checksums cs;
        ASSERT_TRUE(store.lookup(key, &cs)) << "key " << key;
    }
}

TEST(BucketStoreTest, CapacityAndFootprintAccounting)
{
    Device dev;
    Bucket2OptTable store(dev, 1000, 0.9);
    // ceil(1000 / (0.9 * 8)) buckets (rounded up to odd) plus the
    // 64-slot-minimum stash, 16 B per entry, plus one 4 B version word
    // per bucket.
    EXPECT_GE(store.capacity(), 1000u);
    uint64_t buckets =
        (store.capacity() - 64) / Bucket2OptTable::kBucketWidth;
    EXPECT_EQ(store.footprintBytes(), store.capacity() * 16 + buckets * 4);
}

TEST(BucketStoreTest, TwoChoicePlacementBalancesLoadVsSingleChoice)
{
    // Sanity on the power-of-two-choices claim: with both choices in
    // play, collisions per insert at 90% load stay well below one.
    constexpr uint32_t kKeys = 4096;
    Device dev;
    Bucket2OptTable store(dev, kKeys, 0.9);
    runSingleThread(dev, [&](ThreadCtx &t) {
        for (uint32_t key = 0; key < kKeys; ++key)
            store.insert(t, key, Checksums{key, key});
    });
    double per_insert =
        static_cast<double>(store.stats().collisions) /
        static_cast<double>(store.stats().inserts);
    EXPECT_LT(per_insert, 1.0);
}

// ---------------------------------------------------------------------
// Bucket2OptTable torn-read defenses
// ---------------------------------------------------------------------

/**
 * Regression for the classic seqlock torn-read bug. A crash that
 * unwinds a writer mid-bucket persists an ODD version word next to
 * half-written slot bytes. A lookup that ignored version parity would
 * return the torn payload as valid — a false-pass, the one failure
 * mode LP cannot tolerate (Sec. III). The correct behaviour is to
 * treat the bucket as suspect and miss, which merely re-executes the
 * region (a benign false-fail).
 */
TEST(OptimisticStoreTest, TornPayloadNeverObserved)
{
    Device dev;
    Bucket2OptTable store(dev, 128, 0.9);
    runSingleThread(dev, [&](ThreadCtx &t) {
        store.insert(t, 7, Checksums{0x1111, 0x2222});
    });
    Checksums cs;
    ASSERT_TRUE(store.lookup(7, &cs));
    ASSERT_EQ(cs.sum, 0x1111u);

    // Construct the crash-torn state: key 7's bucket mid-write — odd
    // version, payload half-updated to garbage.
    uint64_t b = Bucket2OptTestPeer::bucketOf(store, 7, 0);
    uint32_t v = readVersion(dev, store, b);
    ASSERT_EQ(v % 2, 0u) << "quiescent bucket must hold an even version";
    writeVersion(dev, store, b, v + 1);
    for (uint32_t s = 0; s < Bucket2OptTable::kBucketWidth; ++s) {
        uint32_t stored;
        std::memcpy(&stored,
                    dev.mem().raw(
                        Bucket2OptTestPeer::keyAddr(store, b, s)),
                    4);
        if (stored == 7) {
            uint32_t garbage = 0xdeadbeef;
            std::memcpy(dev.mem().raw(Bucket2OptTestPeer::keyAddr(
                            store, b, s)) +
                            4,
                        &garbage, 4);
        }
    }

    // Host lookup: the torn bucket is suspect -> miss, never garbage.
    EXPECT_FALSE(store.lookup(7, &cs))
        << "odd-version bucket returned a (possibly torn) payload";

    // Device probe: bounded retries, then the same suspect-as-miss.
    bool found = true;
    runSingleThread(dev, [&](ThreadCtx &t) {
        Checksums out;
        found = store.probe(t, 7, &out);
    });
    EXPECT_FALSE(found);
    EXPECT_GT(store.stats().opt_retries, 0u);
}

/**
 * Recovery re-executes the region whose checksum went missing and
 * re-inserts its key. The insert path must seize the stuck-odd version
 * (no live writer exists after a crash — the simulator's cooperative
 * scheduler never unwinds one mid-claim except through SimCrash), roll
 * it forward to even, and leave the bucket consistent.
 */
TEST(OptimisticStoreTest, InsertSeizesCrashStuckOddVersion)
{
    Device dev;
    Bucket2OptTable store(dev, 128, 0.9);
    uint64_t b = Bucket2OptTestPeer::bucketOf(store, 7, 0);
    uint32_t v = readVersion(dev, store, b);
    writeVersion(dev, store, b, v + 1); // crash-orphaned claim

    uint64_t retries_before = store.stats().opt_retries;
    runSingleThread(dev, [&](ThreadCtx &t) {
        store.insert(t, 7, Checksums{0x3333, 0x4444});
    });
    EXPECT_GT(store.stats().opt_retries, retries_before)
        << "seizing a stuck-odd version must count an optimistic retry";

    Checksums cs;
    ASSERT_TRUE(store.lookup(7, &cs));
    EXPECT_EQ(cs.sum, 0x3333u);
    EXPECT_EQ(cs.parity, 0x4444u);
    EXPECT_EQ(readVersion(dev, store, b) % 2, 0u)
        << "bucket must be quiescent (even) after the insert";
}

TEST(OptimisticStoreTest, ClearResetsVersionsAndStats)
{
    Device dev;
    Bucket2OptTable store(dev, 64, 0.9);
    uint64_t b = Bucket2OptTestPeer::bucketOf(store, 3, 0);
    writeVersion(dev, store, b, 5); // stuck odd
    runSingleThread(dev, [&](ThreadCtx &t) {
        store.insert(t, 3, Checksums{1, 2});
    });
    store.clear();
    EXPECT_EQ(readVersion(dev, store, b), 0u);
    EXPECT_EQ(store.stats().inserts, 0u);
    EXPECT_EQ(store.stats().opt_retries, 0u);
    Checksums cs;
    EXPECT_FALSE(store.lookup(3, &cs));
}

// ---------------------------------------------------------------------
// Harness integration: fault campaign + schedule explorer cells
// ---------------------------------------------------------------------

TEST(BucketStoreTest, FaultCampaignSmokeCellPerBackend)
{
    // One campaign cell for the bucketized backend: injected crash
    // points must classify with zero false-passes (no silent
    // corruption) and the recovered output must match golden, same
    // gate as the paper's three designs.
    CampaignOptions opts;
    opts.scale = 0.004;
    opts.workloads = {"tmm"};
    opts.tables = {TableKind::Bucket2Opt};
    opts.grid_points = 4;
    opts.random_points = 2;
    CampaignResult result = runFaultCampaign(opts);
    EXPECT_TRUE(result.passed());
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_EQ(result.cells[0].falsePasses(), 0u);
}

TEST(OptimisticStoreTest, ExplorerCrashScheduleCrossingForcesRetryPath)
{
    // Crossing explored schedules with crash-at-store injection is what
    // actually reaches the optimistic-retry machinery end to end: a
    // crash unwinds an in-flight insert, leaving the odd version the
    // recovery lookup and re-insert then have to handle.
    ExplorerOptions opts;
    opts.scale = 0.004;
    opts.schedules = 4;
    opts.workloads = {"tmm"};
    opts.policies = {PolicyKind::SeededRandom};
    opts.table = TableKind::Bucket2Opt;
    opts.crash_points = 3;
    opts.crash_schedules = 2;
    ExplorerResult result = runScheduleExploration(opts);
    EXPECT_TRUE(result.passed());
    for (const ExplorerCellResult &cell : result.cells) {
        EXPECT_GT(cell.crash_trials, 0u);
        EXPECT_EQ(cell.false_passes, 0u);
        EXPECT_TRUE(cell.violations.empty())
            << (cell.violations.empty() ? "" : cell.violations[0]);
    }
}

} // namespace
} // namespace gpulp
