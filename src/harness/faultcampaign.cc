#include "faultcampaign.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/prng.h"
#include "core/persist.h"
#include "obs/trace.h"
#include "nvm/nvm_cache.h"
#include "sim/device.h"
#include "workloads/workload.h"

namespace gpulp {

namespace {

/** Per-cell seed so cells draw independent random crash points.
 *  PersistModel::Lazy contributes 0, keeping lazy cells' crash points
 *  identical to the pre-model-matrix campaign. */
uint64_t
mixSeed(uint64_t seed, const std::string &workload, TableKind table,
        ChecksumKind kind, PersistModel model)
{
    uint64_t h = seed ^ 0x243f6a8885a308d3ull;
    for (char c : workload)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    h ^= (static_cast<uint64_t>(table) + 1) << 32;
    h ^= (static_cast<uint64_t>(kind) + 1) << 40;
    h ^= static_cast<uint64_t>(model) << 48;
    return h;
}

TrialResult
runTrial(Device &dev, NvmCache &nvm, Workload &w, const LpContext &ctx,
         const LaunchConfig &launch, const std::vector<char> &pristine,
         const std::vector<std::vector<OutputSpan>> &block_spans,
         const std::vector<std::vector<uint8_t>> &golden_blocks,
         uint64_t point)
{
    TrialResult trial;
    trial.crash_point = point;
    const uint64_t num_blocks = launch.numBlocks();

    // Rewind to the durable pre-kernel state: inputs initialized,
    // checksum store cleared, cache cold.
    std::memcpy(dev.mem().raw(0), pristine.data(), pristine.size());
    nvm.invalidateAll();
    nvm.persistAll();
    nvm.resetStats();

    // Run into the power failure. With a single worker the launch
    // always aborts mid-grid; with many workers a near-end latch can
    // slip past every thread's last operation, in which case the grid
    // "completed" but nothing after the latch persisted — the crash
    // semantics are identical either way.
    nvm.crashAfterStores(point);
    dev.launch(launch, [&](ThreadCtx &t) { w.kernel(t, &ctx); });
    trial.torn_lines = nvm.crash();

    // Ground truth + the model's own failure verdict on the crashed
    // image, before recovery runs.
    BlockClassification cls =
        classifyCrash(dev, launch, w, ctx, block_spans, golden_blocks);
    trial.corrupt_blocks = cls.corrupt_blocks;
    trial.flagged_blocks = cls.flagged_blocks;
    trial.true_fails = cls.true_fails;
    trial.false_fails = cls.false_fails;
    trial.false_passes = cls.false_passes;

    RecoveryReport rep = persistRecover(
        dev, launch, *ctx.strategy,
        [&](ThreadCtx &t) { w.kernel(t, &ctx); },
        [&](ThreadCtx &t, RecoverySet &failed) {
            w.validation(t, ctx, failed);
        });
    trial.blocks_recovered = rep.blocks_recovered;
    trial.recovery_rounds = rep.rounds;
    trial.crashes_survived = rep.crashes_survived;
    trial.validate_cycles = rep.validate_cycles;
    trial.recover_cycles = rep.recover_cycles;
    trial.converged = rep.converged;

    // The recovered result must be *durable*: crash once more and
    // compare what NVM holds against the golden bytes.
    nvm.crash();
    trial.output_matches_golden = true;
    for (uint64_t b = 0; b < num_blocks; ++b) {
        if (readOutputSpans(dev.mem(), block_spans[b]) != golden_blocks[b]) {
            trial.output_matches_golden = false;
            break;
        }
    }
    trial.verify_ok = w.verify();
    return trial;
}

CellResult
runCell(const CampaignOptions &opts, const std::string &name,
        PersistModel model, TableKind table, ChecksumKind kind,
        uint32_t *workers_out)
{
    DeviceParams dparams;
    dparams.num_workers = opts.num_workers;
    Device dev(dparams);
    NvmParams nparams;
    nparams.cache_bytes = opts.nvm_cache_bytes;
    NvmCache nvm(dev.mem(), nparams);
    if (opts.policy_factory)
        dev.setSchedulePolicyFactory(opts.policy_factory);
    // GPULP_NVM_DEVICE=file:<path> runs the cell against the
    // file-backed device; each cell starts the log fresh.
    std::unique_ptr<PersistLog> log = persistLogFromEnv(/*truncate=*/true);
    if (log)
        nvm.attachPersistLog(log.get());
    dev.attachNvm(&nvm);
    if (workers_out)
        *workers_out = dev.resolveWorkers();

    auto w = makeWorkload(name, opts.scale);
    w->setup(dev);
    if (w->outputSpans().empty()) {
        GPULP_FATAL("workload '%s' exposes no output spans; it cannot "
                    "join the fault campaign",
                    name.c_str());
    }

    const LaunchConfig launch = w->launchConfig();
    const uint64_t num_blocks = launch.numBlocks();
    LpConfig cfg = campaignCellConfig(*w, table, kind);
    cfg.persist = model;
    // Eager sizes its undo log by the workload's worst-case store count.
    std::unique_ptr<PersistStrategy> strategy = makePersistStrategy(
        dev, cfg, launch, w->persistentStoresPerThread());
    LpContext ctx = strategy->context();

    std::vector<std::vector<OutputSpan>> block_spans(num_blocks);
    for (uint64_t b = 0; b < num_blocks; ++b) {
        block_spans[b] = w->blockOutputSpans(b);
        GPULP_ASSERT(!block_spans[b].empty(),
                     "workload '%s' has no spans for block %llu",
                     name.c_str(), static_cast<unsigned long long>(b));
    }

    // Durable pristine snapshot (taken before any kernel ran) that
    // every trial rewinds to.
    nvm.persistAll();
    std::vector<char> pristine(dev.mem().used());
    std::memcpy(pristine.data(), dev.mem().raw(0), pristine.size());

    // Golden crash-free run: the store count the sweep spans and the
    // byte image every trial must recover back to.
    nvm.resetStats();
    LaunchResult gold = dev.launch(launch, [&](ThreadCtx &t) {
        w->kernel(t, &ctx);
    });
    GPULP_ASSERT(!gold.crashed, "golden run crashed");
    const uint64_t golden_stores = nvm.stats().stores_observed;
    nvm.persistAll();
    std::string why;
    GPULP_ASSERT(w->verify(&why), "golden run of '%s' is wrong: %s",
                 name.c_str(), why.c_str());
    std::vector<std::vector<uint8_t>> golden_blocks(num_blocks);
    for (uint64_t b = 0; b < num_blocks; ++b)
        golden_blocks[b] = readOutputSpans(dev.mem(), block_spans[b]);

    CellResult cell;
    cell.workload = name;
    cell.model = model;
    cell.table = table;
    cell.checksum = kind;
    cell.num_blocks = num_blocks;
    cell.golden_stores = golden_stores;

    Prng rng(mixSeed(opts.seed, name, table, kind, model));
    for (uint64_t point : pickCrashPoints(opts.grid_points,
                                          opts.random_points,
                                          golden_stores, rng)) {
        cell.trials.push_back(runTrial(dev, nvm, *w, ctx, launch,
                                       pristine, block_spans,
                                       golden_blocks, point));
    }
    return cell;
}

} // namespace

std::vector<uint8_t>
readOutputSpans(const GlobalMemory &mem,
                const std::vector<OutputSpan> &spans)
{
    std::vector<uint8_t> bytes;
    for (const OutputSpan &s : spans) {
        const char *p = mem.raw(s.addr);
        bytes.insert(bytes.end(), p, p + s.bytes);
    }
    return bytes;
}

LpConfig
campaignCellConfig(const Workload &w, TableKind table, ChecksumKind kind)
{
    LpConfig cfg = table == TableKind::GlobalArray ? LpConfig::scalable()
                                                   : LpConfig::naive(table);
    cfg.checksum = kind;
    if (table == TableKind::QuadProbe)
        cfg.load_factor = w.quadLoadFactor();
    else if (table == TableKind::Cuckoo)
        cfg.load_factor = w.cuckooLoadFactor();
    return cfg;
}

std::set<uint64_t>
pickCrashPoints(uint32_t grid_points, uint32_t random_points,
                uint64_t stores, Prng &rng)
{
    GPULP_ASSERT(stores >= 4, "workload too small to crash (%llu stores)",
                 static_cast<unsigned long long>(stores));
    const uint64_t hi = stores - 2;
    std::set<uint64_t> points;
    for (uint32_t i = 1; i <= grid_points; ++i) {
        uint64_t p = hi * i / (grid_points + 1);
        points.insert(std::clamp<uint64_t>(p, 1, hi));
    }
    for (uint32_t i = 0; i < random_points; ++i)
        points.insert(1 + rng.nextBelow(hi));
    const uint64_t want = grid_points + random_points;
    while (points.size() < want && points.size() < hi)
        points.insert(1 + rng.nextBelow(hi));
    return points;
}

CrashSchedule::CrashSchedule(uint32_t points, uint64_t horizon_stores,
                             Prng &rng)
{
    uint32_t grid = points / 2 + points % 2;
    points_ = pickCrashPoints(grid, points - grid, horizon_stores, rng);
}

uint64_t
CrashSchedule::nextAfter(uint64_t observed)
{
    auto it = points_.upper_bound(observed);
    // Points at or behind the current store count can no longer fire;
    // a horizon underestimate strands them, so drop them silently.
    points_.erase(points_.begin(), it);
    if (points_.empty())
        return 0;
    uint64_t p = *points_.begin();
    points_.erase(points_.begin());
    return p;
}

BlockClassification
classifyCrash(Device &dev, const LaunchConfig &launch, Workload &w,
              const LpContext &ctx,
              const std::vector<std::vector<OutputSpan>> &block_spans,
              const std::vector<std::vector<uint8_t>> &golden_blocks)
{
    const uint64_t num_blocks = launch.numBlocks();
    BlockClassification cls;

    // Ground truth: byte-diff each block's persisted output against
    // the golden run. Never-executed blocks still hold pristine bytes
    // and count as corrupt — their work is missing from NVM.
    std::vector<bool> corrupt(num_blocks);
    for (uint64_t b = 0; b < num_blocks; ++b) {
        corrupt[b] =
            readOutputSpans(dev.mem(), block_spans[b]) != golden_blocks[b];
        cls.corrupt_blocks += corrupt[b];
    }

    // The model's verdict on the crashed image, before recovery runs.
    RecoverySet flagged(dev, num_blocks);
    LaunchResult v = ctx.strategy->verdict(
        dev, launch, flagged, [&](ThreadCtx &t, RecoverySet &failed) {
            w.validation(t, ctx, failed);
        });
    GPULP_ASSERT(!v.crashed, "classification validation crashed");
    for (uint64_t b = 0; b < num_blocks; ++b) {
        bool f = flagged.isFailedHost(b);
        cls.flagged_blocks += f;
        if (corrupt[b] && f)
            ++cls.true_fails;
        else if (!corrupt[b] && f)
            ++cls.false_fails;
        else if (corrupt[b] && !f)
            ++cls.false_passes;
    }
    return cls;
}

uint64_t
CellResult::falsePasses() const
{
    uint64_t total = 0;
    for (const TrialResult &t : trials)
        total += t.false_passes;
    return total;
}

bool
CellResult::passed() const
{
    if (trials.empty())
        return false;
    for (const TrialResult &t : trials) {
        if (t.false_passes != 0 || !t.converged ||
            !t.output_matches_golden || !t.verify_ok) {
            return false;
        }
    }
    return true;
}

CampaignResult
runFaultCampaign(const CampaignOptions &opts)
{
    if (opts.scale <= 0.0 || opts.scale > 1.0)
        GPULP_FATAL("campaign scale must be in (0, 1], got %f", opts.scale);
    if (opts.grid_points + opts.random_points == 0)
        GPULP_FATAL("campaign needs at least one crash point");
    if (opts.workloads.empty() || opts.tables.empty() ||
        opts.checksums.empty()) {
        GPULP_FATAL("campaign needs >= 1 workload, table and checksum");
    }
    if (opts.models.empty())
        GPULP_FATAL("campaign needs >= 1 persistency model");

    CampaignResult result;
    result.options = opts;
    obs::TraceSpan span("fault_campaign", "harness");
    for (const std::string &name : opts.workloads) {
        for (PersistModel model : opts.models) {
            if (model == PersistModel::Lazy) {
                // Only the lazy model has a checksum store to sweep.
                for (TableKind table : opts.tables) {
                    for (ChecksumKind kind : opts.checksums) {
                        obs::TraceSpan cell_span("campaign_cell",
                                                 "harness");
                        result.cells.push_back(
                            runCell(opts, name, model, table, kind,
                                    &result.workers));
                    }
                }
            } else {
                // eager/strict/epoch-* carry no table or checksum; one
                // cell per workload (the recorded table/checksum are
                // the defaults and purely informational).
                obs::TraceSpan cell_span("campaign_cell", "harness");
                result.cells.push_back(
                    runCell(opts, name, model, TableKind::GlobalArray,
                            ChecksumKind::ModularParity,
                            &result.workers));
            }
        }
    }
    result.counters = obs::snapshotCounters();
    return result;
}

void
writeCampaignJson(const CampaignResult &result, std::FILE *out)
{
    const CampaignOptions &o = result.options;
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"campaign\": \"crash_fault_injection\",\n");
    std::fprintf(out, "  \"scale\": %.6f,\n", o.scale);
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(o.seed));
    std::fprintf(out, "  \"grid_points\": %u,\n", o.grid_points);
    std::fprintf(out, "  \"random_points\": %u,\n", o.random_points);
    std::fprintf(out, "  \"workers\": %u,\n", result.workers);
    std::fprintf(out, "  \"passed\": %s,\n",
                 result.passed() ? "true" : "false");
    std::fprintf(out, "  \"cells\": [\n");
    for (size_t c = 0; c < result.cells.size(); ++c) {
        const CellResult &cell = result.cells[c];
        std::fprintf(out, "    {\n");
        std::fprintf(out, "      \"workload\": \"%s\",\n",
                     cell.workload.c_str());
        std::fprintf(out, "      \"model\": \"%s\",\n",
                     toString(cell.model));
        std::fprintf(out, "      \"table\": \"%s\",\n",
                     toString(cell.table));
        std::fprintf(out, "      \"checksum\": \"%s\",\n",
                     toString(cell.checksum));
        std::fprintf(out, "      \"num_blocks\": %llu,\n",
                     static_cast<unsigned long long>(cell.num_blocks));
        std::fprintf(out, "      \"golden_stores\": %llu,\n",
                     static_cast<unsigned long long>(cell.golden_stores));
        std::fprintf(out, "      \"crash_points\": %zu,\n",
                     cell.trials.size());
        std::fprintf(out, "      \"false_passes\": %llu,\n",
                     static_cast<unsigned long long>(cell.falsePasses()));
        std::fprintf(out, "      \"verdict\": \"%s\",\n",
                     cell.passed() ? "pass" : "FAIL");
        std::fprintf(out, "      \"trials\": [\n");
        for (size_t i = 0; i < cell.trials.size(); ++i) {
            const TrialResult &t = cell.trials[i];
            std::fprintf(
                out,
                "        {\"crash_point\": %llu, \"torn_lines\": %llu, "
                "\"corrupt_blocks\": %llu, \"flagged_blocks\": %llu, "
                "\"true_fails\": %llu, \"false_fails\": %llu, "
                "\"false_passes\": %llu, \"blocks_recovered\": %llu, "
                "\"rounds\": %llu, \"crashes_survived\": %llu, "
                "\"validate_cycles\": %llu, \"recover_cycles\": %llu, "
                "\"converged\": %s, \"durable_match\": %s, "
                "\"verify_ok\": %s}%s\n",
                static_cast<unsigned long long>(t.crash_point),
                static_cast<unsigned long long>(t.torn_lines),
                static_cast<unsigned long long>(t.corrupt_blocks),
                static_cast<unsigned long long>(t.flagged_blocks),
                static_cast<unsigned long long>(t.true_fails),
                static_cast<unsigned long long>(t.false_fails),
                static_cast<unsigned long long>(t.false_passes),
                static_cast<unsigned long long>(t.blocks_recovered),
                static_cast<unsigned long long>(t.recovery_rounds),
                static_cast<unsigned long long>(t.crashes_survived),
                static_cast<unsigned long long>(t.validate_cycles),
                static_cast<unsigned long long>(t.recover_cycles),
                t.converged ? "true" : "false",
                t.output_matches_golden ? "true" : "false",
                t.verify_ok ? "true" : "false",
                i + 1 < cell.trials.size() ? "," : "");
        }
        std::fprintf(out, "      ]\n");
        std::fprintf(out, "    }%s\n",
                     c + 1 < result.cells.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  ");
    obs::writeCountersJson(result.counters, out, "  ");
    std::fprintf(out, "\n}\n");
}

} // namespace gpulp
