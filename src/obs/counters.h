/**
 * @file
 * Per-subsystem observability counters and histograms.
 *
 * The paper's evidence is quantitative — collision counts (Table II),
 * probe traffic, lock behaviour (Table III) and persist traffic
 * (Sec. VII-3) are *the* argument for the hash-table-less global
 * array. This registry gives every subsystem one shared, race-free way
 * to emit those numbers so benches, tests and the fault campaign all
 * report from the same instrumentation.
 *
 * Design:
 *
 *  - A fixed catalog (the X-macros below) names every counter and
 *    histogram together with its unit and the subsystem that emits it.
 *    docs/METRICS.md is the human-readable mirror of this list.
 *
 *  - Counters are monotonic 64-bit sums; histograms are power-of-two
 *    bucketed (bucket = bit_width(value)) with count/sum/min/max.
 *
 *  - The hot path is header-only and *sharded per worker thread*: each
 *    host thread leases a private shard of relaxed atomics, so bumps
 *    under the PR-1 parallel block engine never contend and are
 *    TSan-clean. snapshot() merges all shards. Shards of exited
 *    threads are retired to a free list with their totals intact, so
 *    no count is ever lost.
 *
 *  - Zero overhead when disabled: every bump starts with one relaxed
 *    load of a global flag. Counters are off by default; bench
 *    binaries and tools/fault_campaign enable them at startup (see
 *    bench/bench_env.h), and GPULP_COUNTERS=1/0 forces either state
 *    process-wide.
 *
 * Exactness: totals are commutative sums, so a snapshot taken while no
 * kernel is in flight is exact at any worker count. A snapshot taken
 * mid-launch is a consistent-but-advisory partial view.
 */

#ifndef GPULP_OBS_COUNTERS_H
#define GPULP_OBS_COUNTERS_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

namespace gpulp {
class JsonWriter;
}

namespace gpulp::obs {

// clang-format off
/**
 * Counter catalog: symbol, dotted name, unit, emitting subsystem.
 * Keep docs/METRICS.md in sync (ObsTest.CatalogIsWellFormed checks the
 * invariants the doc relies on: unique dotted names, subsystem prefix).
 */
#define GPULP_COUNTER_LIST(X)                                                 \
    /* nvm: persistency-domain cache model (src/nvm/nvm_cache.cc) */          \
    X(NvmStoresObserved,   "nvm.stores_observed",    "stores",  "nvm")        \
    X(NvmStoreHits,        "nvm.store_hits",         "lines",   "nvm")        \
    X(NvmStoreMisses,      "nvm.store_misses",       "lines",   "nvm")        \
    X(NvmLoadHits,         "nvm.load_hits",          "lines",   "nvm")        \
    X(NvmLoadMisses,       "nvm.load_misses",        "lines",   "nvm")        \
    X(NvmFills,            "nvm.fills",              "lines",   "nvm")        \
    X(NvmCleanEvictions,   "nvm.clean_evictions",    "lines",   "nvm")        \
    X(NvmDirtyEvictions,   "nvm.dirty_evictions",    "lines",   "nvm")        \
    X(NvmFlushedLines,     "nvm.flushed_lines",      "lines",   "nvm")        \
    X(NvmTornLines,        "nvm.torn_lines",         "lines",   "nvm")        \
    X(NvmStoresAfterCrash, "nvm.stores_after_crash", "stores",  "nvm")        \
    X(NvmPersistAlls,      "nvm.persist_alls",       "calls",   "nvm")        \
    X(NvmCrashes,          "nvm.crashes",            "crashes", "nvm")        \
    /* nvm: file-backed persist log (src/nvm/persist_log.cc) */               \
    X(NvmLogAppends,       "nvm.log_appends",        "entries", "nvm")        \
    X(NvmLogAppendedBytes, "nvm.log_appended_bytes", "bytes",   "nvm")        \
    X(NvmLogTombstones,    "nvm.log_tombstones",     "entries", "nvm")        \
    X(NvmLogBatchFlushes,  "nvm.log_batch_flushes",  "flushes", "nvm")        \
    X(NvmLogCompactions,   "nvm.log_compactions",    "passes",  "nvm")        \
    X(NvmLogCrcRejected,   "nvm.log_crc_rejected",   "entries", "nvm")        \
    X(NvmLogTornTruncations, "nvm.log_torn_truncations", "tails", "nvm")      \
    X(NvmLogReplayedEntries, "nvm.log_replayed_entries", "entries", "nvm")    \
    /* store: checksum stores (src/core/checksum_store.cc) */                 \
    X(StoreQuadInserts,    "store.quad.inserts",     "inserts", "store")      \
    X(StoreQuadProbes,     "store.quad.probes",      "probes",  "store")      \
    X(StoreQuadCollisions, "store.quad.collisions",  "probes",  "store")      \
    X(StoreCuckooInserts,  "store.cuckoo.inserts",   "inserts", "store")      \
    X(StoreCuckooKicks,    "store.cuckoo.kicks",     "kicks",   "store")      \
    X(StoreCuckooCollisions, "store.cuckoo.collisions", "kicks", "store")     \
    X(StoreCuckooStashInserts, "store.cuckoo.stash_inserts", "inserts",       \
      "store")                                                                \
    X(StoreArrayInserts,   "store.array.inserts",    "inserts", "store")      \
    X(StoreBucket2Inserts, "store.bucket2.inserts",  "inserts", "store")      \
    X(StoreBucket2Probes,  "store.bucket2.probes",   "buckets", "store")      \
    X(StoreBucket2Collisions, "store.bucket2.collisions", "buckets", "store") \
    X(StoreBucket2Displacements, "store.bucket2.displacements", "moves",      \
      "store")                                                                \
    X(StoreBucket2StashInserts, "store.bucket2.stash_inserts", "inserts",     \
      "store")                                                                \
    X(StoreBucket2OptRetries, "store.bucket2.opt_retries", "retries",         \
      "store")                                                                \
    X(StoreLockAcquires,   "store.lock_acquires",    "acquires", "store")     \
    /* sim: device + SIMT execution (src/sim) */                              \
    X(SimLaunches,         "sim.launches",           "launches", "sim")       \
    X(SimBlocks,           "sim.blocks",             "blocks",  "sim")        \
    X(SimWarps,            "sim.warps",              "warps",   "sim")        \
    X(SimBarrierWaits,     "sim.barrier_waits",      "arrivals", "sim")       \
    X(SimShuffles,         "sim.shuffles",           "exchanges", "sim")      \
    X(SimGateWaits,        "sim.gate_waits",         "episodes", "sim")       \
    X(SimFiberSwitches,    "sim.fiber_switches",     "resumes", "sim")        \
    X(SimFiberWakeups,     "sim.fiber_wakeups",      "threads", "sim")        \
    /* core: LP region protocol (src/core/region.cc) */                       \
    X(CoreRegionCommits,   "core.region_commits",    "blocks",  "core")       \
    X(CoreRegionValidates, "core.region_validates",  "blocks",  "core")       \
    /* recovery: validate/recover driver (src/core/recovery.cc) */            \
    X(RecoveryRounds,      "recovery.rounds",        "rounds",  "recovery")   \
    X(RecoveryBlocksFlagged, "recovery.blocks_flagged", "blocks",             \
      "recovery")                                                             \
    X(RecoveryBlocksReexecuted, "recovery.blocks_reexecuted", "blocks",       \
      "recovery")                                                             \
    X(RecoveryCrashesSurvived, "recovery.crashes_survived", "crashes",        \
      "recovery")                                                             \
    X(RecoveryConverged,   "recovery.converged",     "runs",    "recovery")   \
    /* analysis: schedule explorer (src/analysis) */                          \
    X(AnalysisSchedulesRun, "analysis.schedules_run", "runs", "analysis")     \
    X(AnalysisDecisions,   "analysis.sched_decisions", "decisions",           \
      "analysis")                                                             \
    X(AnalysisRaces,       "analysis.races_flagged", "races", "analysis")     \
    X(AnalysisBacktracks,  "analysis.backtracks_enqueued", "prefixes",        \
      "analysis")                                                             \
    X(AnalysisViolations,  "analysis.invariant_violations", "violations",     \
      "analysis")                                                             \
    /* service: live KV serving harness (src/service) */                      \
    X(ServiceRequestsEnqueued, "service.requests_enqueued", "requests",       \
      "service")                                                              \
    X(ServiceRequestsAcked, "service.requests_acked", "requests", "service")  \
    X(ServiceBatchesServed, "service.batches_served", "batches", "service")   \
    X(ServiceInsertDrops,  "service.insert_drops",    "requests", "service")  \
    X(ServiceInsertsCoalesced, "service.inserts_coalesced", "requests",       \
      "service")                                                              \
    X(ServiceSearchMisses, "service.search_misses",   "requests", "service")  \
    X(ServiceCrashesInjected, "service.crashes_injected", "crashes",          \
      "service")                                                              \
    X(ServiceBatchesReplayed, "service.batches_replayed", "batches",          \
      "service")                                                              \
    X(ServiceRequestsLost, "service.requests_lost",   "requests", "service")

/** Histogram catalog: symbol, dotted name, unit of samples, subsystem. */
#define GPULP_HISTOGRAM_LIST(X)                                               \
    X(StoreQuadProbeLen,   "store.quad.probe_len",   "probes/insert",         \
      "store")                                                                \
    X(StoreLoadFactorPct,  "store.load_factor_pct",  "percent", "store")      \
    X(SimBlockCycles,      "sim.block_cycles",       "cycles/block", "sim")   \
    X(RecoveryRoundFlagged, "recovery.round_flagged", "blocks/round",         \
      "recovery")                                                             \
    X(ServiceRequestLatency, "service.request_latency", "cycles/request",     \
      "service")                                                              \
    X(ServiceBatchCycles,  "service.batch_cycles",   "cycles/batch",          \
      "service")                                                              \
    X(ServiceAvailabilityGap, "service.availability_gap", "cycles/crash",     \
      "service")
// clang-format on

/** Every counter in the catalog. */
enum class Ctr : uint32_t {
#define GPULP_OBS_X(sym, name, unit, subsys) sym,
    GPULP_COUNTER_LIST(GPULP_OBS_X)
#undef GPULP_OBS_X
        kCount
};

/** Every histogram in the catalog. */
enum class Hist : uint32_t {
#define GPULP_OBS_X(sym, name, unit, subsys) sym,
    GPULP_HISTOGRAM_LIST(GPULP_OBS_X)
#undef GPULP_OBS_X
        kCount
};

constexpr size_t kNumCounters = static_cast<size_t>(Ctr::kCount);
constexpr size_t kNumHistograms = static_cast<size_t>(Hist::kCount);

/** Histogram buckets: sample value v lands in bucket bit_width(v). */
constexpr size_t kHistBuckets = 65;

/** Dotted metric name (e.g. "nvm.dirty_evictions"). */
const char *name(Ctr c);
const char *name(Hist h);

/** Unit of the metric's values. */
const char *unit(Ctr c);
const char *unit(Hist h);

/** Subsystem that emits the metric. */
const char *subsystem(Ctr c);
const char *subsystem(Hist h);

namespace detail {

/** One thread's private slice of every counter and histogram. */
struct Shard {
    std::array<std::atomic<uint64_t>, kNumCounters> counters{};

    struct HistCell {
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> sum{0};
        std::atomic<uint64_t> min{UINT64_MAX};
        std::atomic<uint64_t> max{0};
        std::array<std::atomic<uint64_t>, kHistBuckets> buckets{};
    };
    std::array<HistCell, kNumHistograms> hists{};
};

/** Global enable flag; one relaxed load gates every hot-path bump. */
extern std::atomic<bool> g_counters_enabled;

/**
 * This thread's shard, or nullptr before its first bump. Constant-
 * initialized, so reading it is one TLS load with no guard or wrapper.
 */
inline thread_local Shard *t_shard = nullptr;

/**
 * Lease this thread's shard from the registry and cache it in t_shard
 * (cold path, once per thread); it goes back to the registry when the
 * thread exits.
 */
Shard *leaseShard();

/** This thread's shard, leased on the first call. */
inline Shard &
shard()
{
    Shard *s = t_shard;
    if (s == nullptr) [[unlikely]]
        s = leaseShard();
    return *s;
}

/** Out-of-line histogram fold (CAS loops for min/max). */
void observeSlow(Shard &s, Hist h, uint64_t value);

} // namespace detail

/** True when counter collection is on (cheap; callable from hot paths). */
inline bool
countersEnabled()
{
    return detail::g_counters_enabled.load(std::memory_order_relaxed);
}

/**
 * Turn collection on or off. Existing totals are kept; use
 * resetCounters() for a clean slate. Thread-safe.
 */
void setCountersEnabled(bool enabled);

/** Add @p delta to counter @p c (no-op while disabled). */
inline void
add(Ctr c, uint64_t delta = 1)
{
    if (!countersEnabled())
        return;
    // The shard is single-writer (thread-private), so a relaxed
    // load+store beats an atomic RMW: no lock prefix on the hot path,
    // still race-free against the concurrent snapshot() reader.
    auto &cell = detail::shard().counters[static_cast<size_t>(c)];
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
}

/** Fold @p value into histogram @p h (no-op while disabled). */
inline void
observe(Hist h, uint64_t value)
{
    if (!countersEnabled())
        return;
    detail::observeSlow(detail::shard(), h, value);
}

/** Merged view of one histogram. */
struct HistSnapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0; //!< meaningful only when count > 0
    uint64_t max = 0;
    std::array<uint64_t, kHistBuckets> buckets{};

    double
    mean() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }

    /**
     * The @p q-quantile (q in [0, 1]) extracted from the power-of-two
     * buckets: the bucket holding the rank-ceil(q*count) sample is
     * located exactly and the position within it linearly interpolated
     * over the bucket's value range, then clamped to [min, max]. A
     * single-valued histogram therefore reports exact percentiles, and
     * any estimate is off by at most the width of its bucket. Returns
     * 0 on an empty histogram.
     */
    double percentile(double q) const;
};

/** Merged totals across every shard ever leased. */
struct CountersSnapshot {
    std::array<uint64_t, kNumCounters> counters{};
    std::array<HistSnapshot, kNumHistograms> hists{};

    uint64_t
    operator[](Ctr c) const
    {
        return counters[static_cast<size_t>(c)];
    }

    const HistSnapshot &
    operator[](Hist h) const
    {
        return hists[static_cast<size_t>(h)];
    }
};

/**
 * Merge all shards into one snapshot. Exact between launches; a
 * consistent partial view while workers are still bumping.
 */
CountersSnapshot snapshotCounters();

/** Zero every counter and histogram in every shard. */
void resetCounters();

/**
 * Write the snapshot as the "counters" member of the writer's open
 * object: zero counters are elided; histograms appear under
 * "histograms" with count/sum/min/max, mean, p50/p99/p999 and their
 * non-empty power-of-two buckets.
 */
void writeCounters(JsonWriter &w, const CountersSnapshot &snap);

/**
 * Apply GPULP_COUNTERS ("1"/"0" force on/off) and GPULP_TRACE (a path
 * enables tracing, see obs/trace.h) exactly once per process. Called
 * from Device construction so every binary honours the env vars; safe
 * and cheap to call repeatedly.
 */
void initFromEnvOnce();

} // namespace gpulp::obs

#endif // GPULP_OBS_COUNTERS_H
