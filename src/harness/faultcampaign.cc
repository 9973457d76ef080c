#include "faultcampaign.h"

#include <algorithm>

#include "common/json.h"
#include "common/prng.h"
#include "obs/trace.h"

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

CellResult
runCell(const CampaignOptions &opts, const std::string &name,
        PersistModel model, TableKind table, ChecksumKind kind,
        uint32_t *workers_out)
{
    TrialCell spec;
    spec.workload = name;
    spec.scale = opts.scale;
    spec.num_workers = opts.num_workers;
    spec.nvm_cache_bytes = opts.nvm_cache_bytes;
    spec.model = model;
    spec.table = table;
    spec.checksum = kind;
    // GPULP_NVM_DEVICE=file:<path> runs the cell against the
    // file-backed device; each cell starts the log fresh.
    CrashTrial trial(spec, persistLogFromEnv(/*truncate=*/true));
    if (workers_out)
        *workers_out = trial.device().resolveWorkers();

    CellResult cell;
    cell.workload = name;
    cell.model = model;
    cell.table = table;
    cell.checksum = kind;
    cell.num_blocks = trial.numBlocks();
    cell.golden_stores = trial.runGolden();

    Prng rng(mixSeed(opts.seed, name, table, kind, model));
    for (uint64_t point : pickCrashPoints(opts.grid_points,
                                          opts.random_points,
                                          cell.golden_stores, rng))
        cell.trials.push_back(trial.crashAt(point));
    return cell;
}

} // namespace

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
    return !trials.empty() &&
           std::all_of(trials.begin(), trials.end(),
                       [](const TrialResult &t) { return t.passed(); });
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
writeCampaignJson(JsonWriter &w, const CampaignResult &result)
{
    const CampaignOptions &o = result.options;
    w.beginObject();
    w.member("campaign", "crash_fault_injection");
    w.member("scale", o.scale);
    w.member("seed", o.seed);
    w.member("grid_points", o.grid_points);
    w.member("random_points", o.random_points);
    w.member("workers", result.workers);
    w.member("passed", result.passed());
    w.beginArray("cells");
    for (const CellResult &cell : result.cells) {
        w.beginObject();
        w.member("workload", cell.workload);
        w.member("model", toString(cell.model));
        w.member("table", toString(cell.table));
        w.member("checksum", toString(cell.checksum));
        w.member("num_blocks", cell.num_blocks);
        w.member("golden_stores", cell.golden_stores);
        w.member("crash_points", cell.trials.size());
        w.member("false_passes", cell.falsePasses());
        w.member("verdict", cell.passed() ? "pass" : "FAIL");
        w.beginArray("trials");
        for (const TrialResult &t : cell.trials) {
            w.beginObject(JsonWriter::kOneLine);
            forEachTrialField(
                t, [&](const char *key, const auto &v) { w.member(key, v); });
            w.end();
        }
        w.end();
        w.end();
    }
    w.end();
    obs::writeCounters(w, result.counters);
    w.end();
}

} // namespace gpulp
