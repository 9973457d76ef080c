/**
 * @file
 * Observability layer tests: counter-shard merge correctness under
 * concurrent bumping (the property the per-worker sharding exists
 * for), zero-overhead-when-disabled semantics, trace JSON
 * well-formedness (parsed back with tests/test_json.h), catalog
 * invariants that docs/METRICS.md relies on, and the fault-campaign
 * JSON embedding a counter snapshot.
 */

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "harness/faultcampaign.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "test_files.h"
#include "test_json.h"

namespace gpulp::obs {
namespace {

/**
 * Counter state is process-global, so every test starts from a clean,
 * enabled registry and leaves collection disabled (the library
 * default) for whichever test binary section runs next.
 */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        resetCounters();
        setCountersEnabled(true);
    }

    void
    TearDown() override
    {
        setCountersEnabled(false);
        disableTrace();
        resetCounters();
    }
};

/** @p snap as writeCounters() writes it, in an object of its own. */
std::string
countersJson(const CountersSnapshot &snap)
{
    return jsonOf([&](JsonWriter &w) {
        w.beginObject();
        writeCounters(w, snap);
        w.end();
    });
}

std::string
tmpPath(const char *stem)
{
    return ::testing::TempDir() + stem;
}

// ---------------------------------------------------------------------
// Counter merge correctness
// ---------------------------------------------------------------------

TEST_F(ObsTest, SingleThreadTotalsAreExact)
{
    add(Ctr::SimBlocks, 3);
    add(Ctr::SimBlocks);
    add(Ctr::NvmTornLines, 41);
    CountersSnapshot snap = snapshotCounters();
    EXPECT_EQ(snap[Ctr::SimBlocks], 4u);
    EXPECT_EQ(snap[Ctr::NvmTornLines], 41u);
    EXPECT_EQ(snap[Ctr::NvmFills], 0u);
}

TEST_F(ObsTest, MergesShardsFromConcurrentThreads)
{
    // The shape the design exists for: 8 workers (as in the PR-1 pool)
    // bumping the same counters concurrently, each from its own leased
    // shard. The merged totals must be exact once the threads joined —
    // including the contributions of shards whose threads have died.
    constexpr int kThreads = 8;
    constexpr uint64_t kBumps = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([] {
            for (uint64_t n = 0; n < kBumps; ++n) {
                add(Ctr::SimBlocks);
                add(Ctr::StoreQuadProbes, 2);
                observe(Hist::StoreQuadProbeLen, n % 7 + 1);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    CountersSnapshot snap = snapshotCounters();
    EXPECT_EQ(snap[Ctr::SimBlocks], kThreads * kBumps);
    EXPECT_EQ(snap[Ctr::StoreQuadProbes], 2 * kThreads * kBumps);
    const HistSnapshot &h = snap[Hist::StoreQuadProbeLen];
    EXPECT_EQ(h.count, kThreads * kBumps);
    EXPECT_EQ(h.min, 1u);
    EXPECT_EQ(h.max, 7u);
    uint64_t bucket_total = 0;
    for (uint64_t b : h.buckets)
        bucket_total += b;
    EXPECT_EQ(bucket_total, h.count);
}

TEST_F(ObsTest, ShardsSurviveThreadDeathAndAreReused)
{
    // A thread's totals must not vanish with the thread, and a later
    // thread reuses the retired shard rather than growing the registry.
    std::thread([] { add(Ctr::RecoveryRounds, 5); }).join();
    EXPECT_EQ(snapshotCounters()[Ctr::RecoveryRounds], 5u);
    std::thread([] { add(Ctr::RecoveryRounds, 7); }).join();
    EXPECT_EQ(snapshotCounters()[Ctr::RecoveryRounds], 12u);
}

TEST_F(ObsTest, DisabledMeansZeroCounters)
{
    setCountersEnabled(false);
    add(Ctr::SimBlocks, 100);
    observe(Hist::SimBlockCycles, 12345);
    CountersSnapshot snap = snapshotCounters();
    EXPECT_EQ(snap[Ctr::SimBlocks], 0u);
    EXPECT_EQ(snap[Hist::SimBlockCycles].count, 0u);
    // And the JSON of an all-zero snapshot is the empty object.
    Json doc;
    ASSERT_TRUE(parseJson(countersJson(snap), &doc));
    EXPECT_EQ(doc["counters"].kind, Json::Object);
    EXPECT_TRUE(doc["counters"].members.empty());
}

TEST_F(ObsTest, ResetZeroesEverything)
{
    add(Ctr::NvmCrashes, 3);
    observe(Hist::RecoveryRoundFlagged, 9);
    resetCounters();
    CountersSnapshot snap = snapshotCounters();
    EXPECT_EQ(snap[Ctr::NvmCrashes], 0u);
    EXPECT_EQ(snap[Hist::RecoveryRoundFlagged].count, 0u);
}

TEST_F(ObsTest, HistogramBucketsArePowerOfTwo)
{
    observe(Hist::SimBlockCycles, 0);    // bit_width(0) = 0
    observe(Hist::SimBlockCycles, 1);    // 1
    observe(Hist::SimBlockCycles, 1023); // 10
    observe(Hist::SimBlockCycles, 1024); // 11
    CountersSnapshot snap = snapshotCounters();
    const HistSnapshot &h = snap[Hist::SimBlockCycles];
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[1], 1u);
    EXPECT_EQ(h.buckets[10], 1u);
    EXPECT_EQ(h.buckets[11], 1u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 1024u);
    EXPECT_DOUBLE_EQ(h.mean(), (0.0 + 1 + 1023 + 1024) / 4);
}

TEST_F(ObsTest, CountersJsonIsValidJson)
{
    add(Ctr::StoreCuckooKicks, 17);
    add(Ctr::NvmFlushedLines, 9);
    observe(Hist::StoreQuadProbeLen, 3);
    std::string json = countersJson(snapshotCounters());
    Json doc;
    ASSERT_TRUE(parseJson(json, &doc)) << json;
    const Json &c = doc["counters"];
    EXPECT_EQ(c["store.cuckoo.kicks"].u64(), 17u);
    EXPECT_EQ(c["nvm.flushed_lines"].u64(), 9u);
    EXPECT_EQ(c["histograms"]["store.quad.probe_len"]["count"].u64(), 1u);
    // Zero counters are elided.
    EXPECT_FALSE(c.has("nvm.crashes"));
}

// ---------------------------------------------------------------------
// Catalog invariants (docs/METRICS.md mirrors the X-macro lists)
// ---------------------------------------------------------------------

TEST_F(ObsTest, CatalogIsWellFormed)
{
    std::set<std::string> seen;
    const std::set<std::string> subsystems = {"nvm", "store", "sim",
                                             "core", "recovery",
                                             "analysis", "service"};
    for (size_t c = 0; c < kNumCounters; ++c) {
        Ctr ctr = static_cast<Ctr>(c);
        std::string n = name(ctr);
        EXPECT_TRUE(seen.insert(n).second) << "duplicate name " << n;
        EXPECT_TRUE(subsystems.count(subsystem(ctr)))
            << n << " has unknown subsystem " << subsystem(ctr);
        // Dotted names start with their subsystem: "nvm.fills" etc.
        EXPECT_EQ(n.rfind(std::string(subsystem(ctr)) + ".", 0), 0u) << n;
        EXPECT_NE(std::string(unit(ctr)), "") << n;
    }
    for (size_t h = 0; h < kNumHistograms; ++h) {
        Hist hist = static_cast<Hist>(h);
        std::string n = name(hist);
        EXPECT_TRUE(seen.insert(n).second) << "duplicate name " << n;
        EXPECT_TRUE(subsystems.count(subsystem(hist)))
            << n << " has unknown subsystem " << subsystem(hist);
        EXPECT_EQ(n.rfind(std::string(subsystem(hist)) + ".", 0), 0u)
            << n;
    }
}

// ---------------------------------------------------------------------
// Trace sink
// ---------------------------------------------------------------------

TEST_F(ObsTest, TraceChromeJsonParsesBack)
{
    const std::string path = tmpPath("obs_trace.json");
    enableTrace(path);
    {
        TraceSpan outer("launch", "sim", 4, "blocks");
        TraceSpan inner("block", "sim", 0, "rank");
        traceInstant("crash", "nvm", 3, "torn_lines");
    }
    EXPECT_EQ(traceEventCount(), 3u);
    ASSERT_TRUE(flushTrace());

    // The process-name record, then the events in recording order: the
    // instant, then the spans as they closed.
    std::string chrome = slurp(path);
    Json doc;
    ASSERT_TRUE(parseJson(chrome, &doc)) << chrome;
    const Json &events = doc["traceEvents"];
    ASSERT_EQ(events.items.size(), 4u) << chrome;
    EXPECT_EQ(events[0]["ph"].text, "M");
    EXPECT_EQ(events[1]["ph"].text, "i");
    EXPECT_EQ(events[1]["args"]["torn_lines"].u64(), 3u);
    EXPECT_FALSE(events[1].has("dur"));
    EXPECT_EQ(events[2]["name"].text, "block");
    EXPECT_EQ(events[2]["ph"].text, "X");
    EXPECT_TRUE(events[2].has("dur"));
    EXPECT_EQ(events[3]["args"]["blocks"].u64(), 4u);

    // The JSONL sidecar: one JSON object per line, spans with dur_us.
    std::string jsonl = slurp(path + ".jsonl");
    std::vector<Json> lines;
    size_t start = 0;
    while (start < jsonl.size()) {
        size_t nl = jsonl.find('\n', start);
        ASSERT_NE(nl, std::string::npos);
        lines.emplace_back();
        EXPECT_TRUE(parseJson(jsonl.substr(start, nl - start), &lines.back()));
        start = nl + 1;
    }
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0]["torn_lines"].u64(), 3u);
    EXPECT_FALSE(lines[0].has("dur_us"));
    EXPECT_EQ(lines[2]["name"].text, "launch");
    EXPECT_TRUE(lines[2].has("dur_us"));
}

TEST_F(ObsTest, TraceSpansAreNoOpWhenDisabled)
{
    {
        TraceSpan span("launch", "sim");
        traceInstant("crash", "nvm");
    }
    EXPECT_FALSE(traceEnabled());
    EXPECT_EQ(traceEventCount(), 0u);
    EXPECT_FALSE(flushTrace()); // nothing to write, no path
}

TEST_F(ObsTest, InactiveSpanRecordsNothing)
{
    enableTrace(tmpPath("obs_trace_inactive.json"));
    {
        // The conditional-span form used by lpCommitRegion: only
        // block-thread 0 passes active=true.
        TraceSpan span("checksum_fold", "core", 7, "block",
                       /*active=*/false);
    }
    EXPECT_EQ(traceEventCount(), 0u);
}

TEST_F(ObsTest, ConcurrentSpansGetPerThreadTracks)
{
    enableTrace(tmpPath("obs_trace_threads.json"));
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([] {
            for (int n = 0; n < 50; ++n)
                TraceSpan span("block", "sim");
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(traceEventCount(), kThreads * 50u);
    ASSERT_TRUE(flushTrace());
    EXPECT_TRUE(parseJson(slurp(tracePath())));
}

// ---------------------------------------------------------------------
// Fault campaign embeds a counter snapshot
// ---------------------------------------------------------------------

TEST_F(ObsTest, FaultCampaignJsonEmbedsCounters)
{
    CampaignOptions opts;
    opts.scale = 0.004;
    opts.grid_points = 2;
    opts.random_points = 0;
    opts.workloads = {"spmv"};
    opts.tables = {TableKind::GlobalArray};
    CampaignResult result = runFaultCampaign(opts);
    EXPECT_TRUE(result.passed());

    // The snapshot is carried in the result itself...
    EXPECT_GT(result.counters[Ctr::SimLaunches], 0u);
    EXPECT_GT(result.counters[Ctr::StoreArrayInserts], 0u);
    EXPECT_GT(result.counters[Ctr::NvmCrashes], 0u);
    EXPECT_GT(result.counters[Ctr::RecoveryRounds], 0u);

    // ...and the JSON report embeds it as a "counters" object.
    const std::string path = tmpPath("obs_campaign.json");
    ASSERT_TRUE(writeJsonFile(
        path.c_str(), [&](JsonWriter &w) { writeCampaignJson(w, result); },
        /*quiet=*/true));
    std::string json = slurp(path);
    Json doc;
    ASSERT_TRUE(parseJson(json, &doc)) << json;
    EXPECT_EQ(doc["counters"]["store.array.inserts"].u64(),
              result.counters[Ctr::StoreArrayInserts]);
    EXPECT_EQ(doc["cells"][0]["trials"].items.size(), 2u);
    EXPECT_EQ(doc["cells"][0]["trials"][0]["crash_point"].u64(),
              result.cells[0].trials[0].crash_point);
}

// ---------------------------------------------------------------------
// Percentile extraction (power-of-two buckets + clamping)
// ---------------------------------------------------------------------

TEST_F(ObsTest, PercentileOfEmptyHistogramIsZero)
{
    HistSnapshot h;
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(0.999), 0.0);
}

TEST_F(ObsTest, PercentileIsExactForSingleValuedHistograms)
{
    // Every observation identical: min == max clamps the interpolation
    // to the exact value regardless of q.
    for (int i = 0; i < 100; ++i)
        observe(Hist::ServiceRequestLatency, 42);
    HistSnapshot h = snapshotCounters()[Hist::ServiceRequestLatency];
    EXPECT_EQ(h.count, 100u);
    for (double q : {0.0, 0.5, 0.99, 0.999, 1.0})
        EXPECT_EQ(h.percentile(q), 42.0) << q;
}

TEST_F(ObsTest, PercentileIsExactForAllZeroHistograms)
{
    for (int i = 0; i < 10; ++i)
        observe(Hist::ServiceRequestLatency, 0);
    HistSnapshot h = snapshotCounters()[Hist::ServiceRequestLatency];
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(0.999), 0.0);
}

TEST_F(ObsTest, PercentilePicksTheRightBucketAndClampsToMax)
{
    // 90 zeros and 10 observations of 1000: p50 sits in the zero
    // bucket exactly; p99 (rank 99) lands in 1000's bucket [512, 1024)
    // and interpolates to 512 + 512 * 9/10, clamped to max below 1024.
    for (int i = 0; i < 90; ++i)
        observe(Hist::ServiceRequestLatency, 0);
    for (int i = 0; i < 10; ++i)
        observe(Hist::ServiceRequestLatency, 1000);
    HistSnapshot h = snapshotCounters()[Hist::ServiceRequestLatency];
    EXPECT_EQ(h.percentile(0.50), 0.0);
    EXPECT_NEAR(h.percentile(0.99), 972.8, 0.01);
    EXPECT_EQ(h.percentile(1.0), 1000.0); // clamped to observed max
    // The error of any percentile is bounded by the bucket width.
    EXPECT_GE(h.percentile(0.95), 512.0);
    EXPECT_LE(h.percentile(0.95), 1000.0);
}

TEST_F(ObsTest, PercentilesAreMonotoneInQ)
{
    Prng rng(7);
    for (int i = 0; i < 1000; ++i)
        observe(Hist::ServiceRequestLatency, rng.nextBelow(100000));
    HistSnapshot h = snapshotCounters()[Hist::ServiceRequestLatency];
    double prev = 0.0;
    for (double q : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        double v = h.percentile(q);
        EXPECT_GE(v, prev) << q;
        prev = v;
    }
    EXPECT_GE(prev, static_cast<double>(h.min));
    EXPECT_LE(prev, static_cast<double>(h.max));
}

TEST_F(ObsTest, HistogramJsonCarriesPercentiles)
{
    for (int i = 0; i < 100; ++i)
        observe(Hist::ServiceRequestLatency, 64);
    std::string json = countersJson(snapshotCounters());
    Json doc;
    ASSERT_TRUE(parseJson(json, &doc)) << json;
    const Json &h = doc["counters"]["histograms"]["service.request_latency"];
    EXPECT_EQ(h["p50"].number, 64.0) << json;
    EXPECT_EQ(h["p99"].number, 64.0) << json;
    EXPECT_EQ(h["p999"].number, 64.0) << json;
}

} // namespace
} // namespace gpulp::obs
