#include "crashtrial.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/prng.h"

namespace gpulp {

namespace {

/** Concatenated current-arena bytes of a span list. */
std::vector<uint8_t>
readOutputSpans(const GlobalMemory &mem, const std::vector<OutputSpan> &spans)
{
    std::vector<uint8_t> bytes;
    for (const OutputSpan &s : spans) {
        const char *p = mem.raw(s.addr);
        bytes.insert(bytes.end(), p, p + s.bytes);
    }
    return bytes;
}

DeviceParams
deviceParams(const TrialCell &cell)
{
    DeviceParams p;
    p.num_workers = cell.num_workers;
    return p;
}

} // namespace

void
writeTrialJsonFields(const TrialResult &trial, std::FILE *out)
{
    const char *sep = "";
    forEachTrialField(trial, [&](const char *key, const auto &v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, bool>)
            std::fprintf(out, "%s\"%s\": %s", sep, key, v ? "true" : "false");
        else
            std::fprintf(out, "%s\"%s\": %llu", sep, key,
                         static_cast<unsigned long long>(v));
        sep = ", ";
    });
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

CrashTrial::CrashTrial(const TrialCell &cell, std::unique_ptr<PersistLog> log)
    : log_(std::move(log)),
      dev_(deviceParams(cell)),
      nvm_(dev_.mem(), NvmParams{.cache_bytes = cell.nvm_cache_bytes})
{
    if (log_)
        nvm_.attachPersistLog(log_.get());
    dev_.attachNvm(&nvm_);

    w_ = makeWorkload(cell.workload, cell.scale);
    w_->setup(dev_);
    if (w_->outputSpans().empty()) {
        GPULP_FATAL("workload '%s' exposes no output spans; it cannot "
                    "run crash trials",
                    cell.workload.c_str());
    }
    launch_ = w_->launchConfig();
    LpConfig cfg = campaignCellConfig(*w_, cell.table, cell.checksum);
    cfg.persist = cell.model;
    // Eager sizes its undo log by the workload's worst-case store count.
    strategy_ = makePersistStrategy(dev_, cfg, launch_,
                                    w_->persistentStoresPerThread());
    ctx_ = strategy_->context();

    spans_.resize(numBlocks());
    for (uint64_t b = 0; b < numBlocks(); ++b) {
        spans_[b] = w_->blockOutputSpans(b);
        GPULP_ASSERT(!spans_[b].empty(),
                     "workload '%s' has no spans for block %llu",
                     cell.workload.c_str(),
                     static_cast<unsigned long long>(b));
    }

    // Durable pristine snapshot (taken before any kernel ran) that
    // every trial rewinds to: inputs initialized, metadata cleared.
    nvm_.persistAll();
    pristine_.resize(dev_.mem().used());
    std::memcpy(pristine_.data(), dev_.mem().raw(0), pristine_.size());
}

std::vector<size_t>
CrashTrial::blockBytes() const
{
    std::vector<size_t> bytes(numBlocks());
    for (uint64_t b = 0; b < numBlocks(); ++b) {
        for (const OutputSpan &s : spans_[b])
            bytes[b] += s.bytes;
    }
    return bytes;
}

uint64_t
CrashTrial::runGolden()
{
    nvm_.resetStats();
    LaunchResult gold = runKernel();
    GPULP_ASSERT(!gold.crashed, "golden run crashed");
    const uint64_t stores = nvm_.stats().stores_observed;
    nvm_.persistAll();
    std::string why;
    GPULP_ASSERT(w_->verify(&why), "golden run of '%s' is wrong: %s",
                 w_->name(), why.c_str());
    golden_.resize(numBlocks());
    for (uint64_t b = 0; b < numBlocks(); ++b)
        golden_[b] = readOutputSpans(dev_.mem(), spans_[b]);
    return stores;
}

void
CrashTrial::adoptGolden(std::vector<std::vector<uint8_t>> blocks)
{
    GPULP_ASSERT(blocks.size() == numBlocks(),
                 "golden image has %zu blocks, the rig %llu", blocks.size(),
                 static_cast<unsigned long long>(numBlocks()));
    golden_ = std::move(blocks);
}

void
CrashTrial::rewind()
{
    std::memcpy(dev_.mem().raw(0), pristine_.data(), pristine_.size());
    nvm_.invalidateAll();
    nvm_.persistAll();
    nvm_.resetStats();
}

LaunchResult
CrashTrial::runKernel()
{
    return dev_.launch(launch_,
                       [&](ThreadCtx &t) { w_->kernel(t, &ctx_); });
}

uint64_t
CrashTrial::firstDivergedBlock()
{
    uint64_t b = 0;
    while (b < numBlocks() &&
           readOutputSpans(dev_.mem(), spans_[b]) == golden_[b])
        ++b;
    return b;
}

TrialResult
CrashTrial::crashAt(uint64_t point)
{
    TrialResult trial;
    trial.crash_point = point;
    rewind();
    // Run into the power failure. With a single worker the launch
    // always aborts mid-grid; with many workers a near-end latch can
    // slip past every thread's last operation, in which case the grid
    // "completed" but nothing after the latch persisted — the crash
    // semantics are identical either way.
    nvm_.crashAfterStores(point);
    runKernel();
    trial.torn_lines = nvm_.crash();
    finish(trial);
    return trial;
}

void
CrashTrial::finish(TrialResult &trial)
{
    const uint64_t num_blocks = numBlocks();
    const ValidateFn validate = [&](ThreadCtx &t, RecoverySet &failed) {
        w_->validation(t, ctx_, failed);
    };

    // Ground truth: byte-diff each block's persisted output against the
    // golden run. Never-executed blocks still hold pristine bytes and
    // count as corrupt — their work is missing from NVM.
    std::vector<bool> corrupt(num_blocks);
    for (uint64_t b = 0; b < num_blocks; ++b) {
        corrupt[b] = readOutputSpans(dev_.mem(), spans_[b]) != golden_[b];
        trial.corrupt_blocks += corrupt[b];
    }

    // The model's verdict on the crashed image — exactly what recovery
    // decides after a reboot — crossed with the ground truth.
    RecoverySet flagged(dev_, num_blocks);
    LaunchResult v = strategy_->verdict(dev_, launch_, flagged, validate);
    GPULP_ASSERT(!v.crashed, "classification validation crashed");
    for (uint64_t b = 0; b < num_blocks; ++b) {
        const bool f = flagged.isFailedHost(b);
        trial.flagged_blocks += f;
        trial.true_fails += corrupt[b] && f;
        trial.false_fails += !corrupt[b] && f;
        trial.false_passes += corrupt[b] && !f;
    }

    RecoveryReport rep = persistRecover(
        dev_, launch_, *strategy_,
        [&](ThreadCtx &t) { w_->kernel(t, &ctx_); }, validate);
    trial.blocks_recovered = rep.blocks_recovered;
    trial.recovery_rounds = rep.rounds;
    trial.crashes_survived = rep.crashes_survived;
    trial.validate_cycles = rep.validate_cycles;
    trial.recover_cycles = rep.recover_cycles;
    trial.converged = rep.converged;

    // The recovered result must be durable: crash once more and compare
    // what NVM holds against the golden bytes.
    nvm_.crash();
    trial.output_matches_golden = firstDivergedBlock() == num_blocks;
    trial.verify_ok = w_->verify();
}

} // namespace gpulp
