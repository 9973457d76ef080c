/**
 * @file
 * Tests for the parallel block execution engine: LaunchResult (and all
 * device-visible state) must be bit-identical at any worker count, and
 * an injected crash must abort the in-flight grid exactly as it does
 * under single-threaded execution.
 */

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "core/lp_config.h"
#include "core/runtime.h"
#include "workloads/megakv.h"
#include "workloads/workload.h"

namespace gpulp {
namespace {

/** Worker counts every determinism test sweeps. */
const uint32_t kWorkerCounts[] = {1, 2, 8};

/** Everything one run produced that must not depend on worker count. */
struct Observed {
    LaunchResult result;
    StoreStats store;
    uint64_t arena_hash = 0;

    void
    expectIdentical(const Observed &other, const char *what) const
    {
        EXPECT_EQ(result.cycles, other.result.cycles) << what;
        EXPECT_EQ(result.critical_path, other.result.critical_path)
            << what;
        EXPECT_EQ(result.bandwidth_cycles, other.result.bandwidth_cycles)
            << what;
        EXPECT_EQ(result.crashed, other.result.crashed) << what;
        EXPECT_EQ(result.blocks_completed, other.result.blocks_completed)
            << what;
        EXPECT_EQ(result.traffic.global_loads,
                  other.result.traffic.global_loads)
            << what;
        EXPECT_EQ(result.traffic.global_stores,
                  other.result.traffic.global_stores)
            << what;
        EXPECT_EQ(result.traffic.global_atomics,
                  other.result.traffic.global_atomics)
            << what;
        EXPECT_EQ(result.traffic.bytes_read, other.result.traffic.bytes_read)
            << what;
        EXPECT_EQ(result.traffic.bytes_written,
                  other.result.traffic.bytes_written)
            << what;
        EXPECT_EQ(result.traffic.atomic_conflicts,
                  other.result.traffic.atomic_conflicts)
            << what;
        EXPECT_EQ(result.traffic.atomic_wait_cycles,
                  other.result.traffic.atomic_wait_cycles)
            << what;
        EXPECT_EQ(store.inserts, other.store.inserts) << what;
        EXPECT_EQ(store.collisions, other.store.collisions) << what;
        EXPECT_EQ(store.probes, other.store.probes) << what;
        EXPECT_EQ(store.kicks, other.store.kicks) << what;
        EXPECT_EQ(store.stash_inserts, other.store.stash_inserts) << what;
        EXPECT_EQ(arena_hash, other.arena_hash) << what;
    }
};

DeviceParams
paramsWithWorkers(uint32_t workers)
{
    DeviceParams p;
    p.num_workers = workers;
    return p;
}

/**
 * Run a named workload baseline + LP(quad, lock-free) at the given
 * worker count on a fresh device and fingerprint everything.
 */
Observed
runWorkloadAt(const std::string &name, double scale, uint32_t workers)
{
    Device dev(paramsWithWorkers(workers));
    auto w = makeWorkload(name, scale);
    w->setup(dev);

    Observed o;
    o.result = runBaseline(dev, *w);
    std::string why;
    EXPECT_TRUE(w->verify(&why)) << name << " @" << workers << ": " << why;

    LpConfig cfg = LpConfig::naive(TableKind::QuadProbe);
    cfg.load_factor = w->quadLoadFactor();
    LpRuntime lp(dev, cfg, w->launchConfig());
    LaunchResult lp_result = runWithLp(dev, *w, lp);
    // Fold the LP run into the fingerprint: every counter of both runs
    // has to match across worker counts.
    o.result.cycles += lp_result.cycles;
    o.result.critical_path += lp_result.critical_path;
    o.result.bandwidth_cycles += lp_result.bandwidth_cycles;
    o.result.blocks_completed += lp_result.blocks_completed;
    o.result.traffic.global_loads += lp_result.traffic.global_loads;
    o.result.traffic.global_stores += lp_result.traffic.global_stores;
    o.result.traffic.global_atomics += lp_result.traffic.global_atomics;
    o.result.traffic.bytes_read += lp_result.traffic.bytes_read;
    o.result.traffic.bytes_written += lp_result.traffic.bytes_written;
    o.result.traffic.atomic_conflicts +=
        lp_result.traffic.atomic_conflicts;
    o.result.traffic.atomic_wait_cycles +=
        lp_result.traffic.atomic_wait_cycles;
    o.store = lp.store().stats();
    o.arena_hash = fnv1a(dev.mem().raw(0), dev.mem().used());
    return o;
}

TEST(ParallelExecTest, TmmBitIdenticalAcrossWorkerCounts)
{
    Observed ref = runWorkloadAt("tmm", 0.01, 1);
    for (uint32_t workers : kWorkerCounts) {
        if (workers == 1)
            continue;
        Observed got = runWorkloadAt("tmm", 0.01, workers);
        got.expectIdentical(
            ref, ("tmm @" + std::to_string(workers) + " workers").c_str());
    }
}

TEST(ParallelExecTest, ContendedWorkloadBitIdenticalAcrossWorkerCounts)
{
    // TPACF funnels every block's commit through the same hashed table
    // with real collisions — the adversarial case for rank ordering.
    Observed ref = runWorkloadAt("tpacf", 0.05, 1);
    for (uint32_t workers : kWorkerCounts) {
        if (workers == 1)
            continue;
        Observed got = runWorkloadAt("tpacf", 0.05, workers);
        got.expectIdentical(
            ref,
            ("tpacf @" + std::to_string(workers) + " workers").c_str());
    }
}

/** One MEGA-KV insert+search round; returns result array + fingerprints. */
struct MegaKvRound {
    LaunchResult insert_result;
    LaunchResult search_result;
    std::vector<uint32_t> results;
    uint64_t table_hash = 0;
};

MegaKvRound
runMegaKvAt(uint32_t workers)
{
    Device dev(paramsWithWorkers(workers));
    // Small table + duplicate keys: bucket contention across blocks is
    // the point, so CAS winners and in-place updates must follow rank
    // order to be reproducible.
    MegaKv kv(dev, /*buckets=*/128, /*batch_ops=*/2048);

    std::vector<std::pair<uint32_t, uint32_t>> batch;
    batch.reserve(kv.batchOps());
    for (uint32_t i = 0; i < kv.batchOps(); ++i) {
        uint32_t key = 1 + (i * 2654435761u) % 512; // heavy duplication
        batch.emplace_back(key, i + 1);
    }
    kv.stageInserts(batch);

    MegaKvRound round;
    round.insert_result = dev.launch(
        kv.launchConfig(),
        [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });

    std::vector<uint32_t> queries;
    queries.reserve(kv.batchOps());
    for (uint32_t i = 0; i < kv.batchOps(); ++i)
        queries.push_back(1 + (i * 40503u) % 768); // hits and misses
    kv.stageKeys(queries);
    round.search_result = dev.launch(
        kv.launchConfig(),
        [&](ThreadCtx &t) { kv.searchKernel(t, nullptr); });

    round.results.reserve(kv.batchOps());
    for (uint32_t i = 0; i < kv.batchOps(); ++i)
        round.results.push_back(kv.resultAt(i));
    round.table_hash = fnv1a(dev.mem().raw(0), dev.mem().used());
    return round;
}

TEST(ParallelExecTest, MegaKvBitIdenticalAcrossWorkerCounts)
{
    MegaKvRound ref = runMegaKvAt(1);
    for (uint32_t workers : kWorkerCounts) {
        if (workers == 1)
            continue;
        MegaKvRound got = runMegaKvAt(workers);
        EXPECT_EQ(got.insert_result.cycles, ref.insert_result.cycles)
            << workers;
        EXPECT_EQ(got.insert_result.traffic.atomic_conflicts,
                  ref.insert_result.traffic.atomic_conflicts)
            << workers;
        EXPECT_EQ(got.search_result.cycles, ref.search_result.cycles)
            << workers;
        EXPECT_EQ(got.results, ref.results) << workers;
        EXPECT_EQ(got.table_hash, ref.table_hash) << workers;
    }
}

TEST(ParallelExecTest, CrashAbortsInFlightWorkers)
{
    // Tiny cache so dirty lines evict (persist) naturally mid-grid.
    NvmParams nvm_params;
    nvm_params.cache_bytes = 4 * 1024;
    nvm_params.line_bytes = 128;
    nvm_params.associativity = 2;

    Device dev(paramsWithWorkers(8));
    NvmCache nvm(dev.mem(), nvm_params);
    dev.attachNvm(&nvm);

    const uint32_t kBlocks = 64;
    const uint32_t kThreads = 64;
    auto out =
        ArrayRef<uint32_t>::allocate(dev.mem(), kBlocks * kThreads);
    for (size_t i = 0; i < out.size(); ++i)
        out.hostAt(i) = 0;
    nvm.persistAll();

    // Latch the crash roughly mid-grid.
    nvm.crashAfterStores(out.size() / 2);
    LaunchResult r = dev.launch(
        LaunchConfig(Dim3(kBlocks), Dim3(kThreads)), [&](ThreadCtx &t) {
            uint64_t gid = t.globalThreadIdx();
            t.store(out, gid, static_cast<uint32_t>(gid) + 1);
            t.compute(50);
        });

    EXPECT_TRUE(r.crashed);
    EXPECT_LT(r.blocks_completed, kBlocks);

    // Power failure: volatile lines are dropped, the arena rewinds to
    // the persisted image. Every output slot must hold either its
    // persisted pre-launch value (0) or the exact value its thread
    // wrote before the line made it to NVM — nothing torn, nothing
    // from the post-latch epoch beyond what was already in flight.
    nvm.crash();
    uint32_t persisted = 0, dropped = 0;
    for (size_t i = 0; i < out.size(); ++i) {
        uint32_t v = out.hostAt(i);
        if (v == 0)
            ++dropped;
        else if (v == static_cast<uint32_t>(i) + 1)
            ++persisted;
        else
            ADD_FAILURE() << "slot " << i << " holds torn value " << v;
    }
    EXPECT_GT(dropped, 0u) << "a crash that drops nothing proves nothing";
    EXPECT_EQ(persisted + dropped, out.size());

    // After crash() the whole arena IS the persisted image.
    EXPECT_TRUE(nvm.isPersisted(0, dev.mem().used()));
}

TEST(ParallelExecTest, WorkerCountResolution)
{
    // Explicit parameter wins over everything.
    {
        Device dev(paramsWithWorkers(3));
        EXPECT_EQ(dev.resolveWorkers(), 3u);
    }
    // num_workers == 0 defers to GPULP_WORKERS.
    {
        ASSERT_EQ(setenv("GPULP_WORKERS", "5", 1), 0);
        Device dev(paramsWithWorkers(0));
        EXPECT_EQ(dev.resolveWorkers(), 5u);
        ASSERT_EQ(unsetenv("GPULP_WORKERS"), 0);
    }
    // Garbage in the environment falls back to hardware concurrency.
    {
        ASSERT_EQ(setenv("GPULP_WORKERS", "lots", 1), 0);
        Device dev(paramsWithWorkers(0));
        EXPECT_GE(dev.resolveWorkers(), 1u);
        ASSERT_EQ(unsetenv("GPULP_WORKERS"), 0);
    }
}

} // namespace
} // namespace gpulp
