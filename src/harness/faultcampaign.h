/**
 * @file
 * Crash-consistency fault-injection campaign.
 *
 * The paper's claim is not that LP is fast — it is that LP-protected
 * kernels *survive crashes*: validation recomputes per-block checksums
 * against the store and recovery re-executes exactly the failed blocks
 * (Sec. II-A, IV-A, Listing 7). This harness turns that claim into a
 * testable statement. For every campaign cell — a (workload,
 * persistency model, checksum store, checksum kind) tuple — it:
 *
 *  1. runs the protected kernel crash-free and snapshots the golden
 *     output;
 *  2. sweeps crash points over the observed-store count: a
 *     deterministic grid of fractions plus Prng-seeded random points;
 *  3. for each point: re-arms NvmCache::crashAfterStores(), runs the
 *     kernel to the crash, rewinds to the persisted image, and
 *     byte-diffs every block's persistent output against the golden
 *     run — ground truth for which blocks are actually corrupt;
 *  4. classifies each block by crossing the ground truth with the
 *     model's own failure verdict (PersistStrategy::verdict — lazy:
 *     the checksum validation kernel; eager/strict/epoch: the durable
 *     per-block commit flag):
 *       - true fail:   corrupt and flagged (recovery will repair it);
 *       - false fail:  intact but flagged (checksum entry or commit
 *                      flag did not persist; wasted re-execution,
 *                      still correct);
 *       - false pass:  corrupt but NOT flagged — silent corruption,
 *                      the one outcome that breaks the model's
 *                      guarantee;
 *  5. runs the crash-tolerant recovery driver (persistRecover, with
 *     undo-log rollback for eager) and re-diffs the recovered output
 *     against golden.
 *
 * A campaign passes iff every trial converged with zero false-passes
 * and a byte-identical durable output. runFaultCampaign() is
 * deterministic for a fixed (options, workers) pair.
 */

#ifndef GPULP_HARNESS_FAULTCAMPAIGN_H
#define GPULP_HARNESS_FAULTCAMPAIGN_H

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/lp_config.h"
#include "mem/timing.h"
#include "obs/counters.h"
#include "sim/sched_policy.h"

namespace gpulp {

class Device;
class GlobalMemory;
class Prng;
class Workload;
struct LpContext;
struct LaunchConfig;
struct OutputSpan;

/** What to sweep and how hard. */
struct CampaignOptions {
    /** Workload scale in (0, 1]; campaign cells are O(points) kernel
     *  launches, so keep this small. */
    double scale = 0.004;

    /** Seed for the random crash points (mixed per cell). */
    uint64_t seed = 1;

    /** Evenly-spaced crash points over the observed-store count. */
    uint32_t grid_points = 12;

    /** Additional Prng-drawn crash points per cell. */
    uint32_t random_points = 8;

    /** Worker threads for the parallel block engine (0 = auto). */
    uint32_t num_workers = 1;

    /** NVM cache size; small enough that natural evictions persist a
     *  nontrivial, partial subset of the output before the crash. */
    size_t nvm_cache_bytes = 16 * 1024;

    /** Workloads to sweep; must implement the outputSpans() hook. */
    std::vector<std::string> workloads = {"spmv", "mri-q", "tmm"};

    /** Checksum stores to sweep (every backend by default, so each new
     *  table kind is crash-tested the moment it parses). */
    std::vector<TableKind> tables = {TableKind::QuadProbe,
                                     TableKind::Cuckoo,
                                     TableKind::GlobalArray,
                                     TableKind::Bucket2,
                                     TableKind::Bucket2Opt};

    /** Checksum kinds to sweep. */
    std::vector<ChecksumKind> checksums = {ChecksumKind::ModularParity};

    /** Persistency models to sweep. The lazy model crosses with every
     *  (table, checksum) pair; the other models carry no checksum
     *  store, so each contributes exactly one cell per workload. */
    std::vector<PersistModel> models = {PersistModel::Lazy};

    /**
     * Optional schedule policy installed on every cell's device (empty
     * = the production deterministic scheduler). Lets the campaign's
     * crash sweep run under an adversarial resume order, crossing
     * crash-at-store injection with schedule exploration (see
     * src/analysis/explorer.h and docs/SCHEDULE_EXPLORATION.md).
     */
    SchedulePolicyFactory policy_factory;
};

/** Outcome of one crash point within a cell. */
struct TrialResult {
    uint64_t crash_point = 0;     //!< stores persisted before the cut
    uint64_t torn_lines = 0;      //!< dirty lines dropped at the crash
    uint64_t corrupt_blocks = 0;  //!< ground truth: output != golden
    uint64_t flagged_blocks = 0;  //!< validation verdict: marked failed
    uint64_t true_fails = 0;      //!< corrupt and flagged
    uint64_t false_fails = 0;     //!< intact but flagged (benign)
    uint64_t false_passes = 0;    //!< corrupt but NOT flagged (fatal)
    uint64_t blocks_recovered = 0;
    uint64_t recovery_rounds = 0;
    uint64_t crashes_survived = 0;
    Cycles validate_cycles = 0;
    Cycles recover_cycles = 0;
    bool converged = false;       //!< recovery driver reached 0 failures
    bool output_matches_golden = false; //!< durable output byte-identical
    bool verify_ok = false;       //!< workload host-reference check
};

/** One (workload, model, table, checksum) sweep. */
struct CellResult {
    std::string workload;
    /** Persistency model the cell ran under; table/checksum only
     *  describe the configuration when this is PersistModel::Lazy. */
    PersistModel model = PersistModel::Lazy;
    TableKind table = TableKind::GlobalArray;
    ChecksumKind checksum = ChecksumKind::ModularParity;
    uint64_t num_blocks = 0;
    uint64_t golden_stores = 0;   //!< observed stores in the clean run
    std::vector<TrialResult> trials;

    /** Sum of silent corruptions across trials. */
    uint64_t falsePasses() const;

    /** All trials converged to the golden output with no false-pass. */
    bool passed() const;
};

/** Whole-campaign outcome. */
struct CampaignResult {
    CampaignOptions options;
    uint32_t workers = 0;         //!< resolved worker count actually used
    std::vector<CellResult> cells;

    /** obs counter totals over the whole campaign (empty when counter
     *  collection is disabled); embedded in the JSON report. */
    obs::CountersSnapshot counters;

    bool
    passed() const
    {
        for (const CellResult &cell : cells) {
            if (!cell.passed())
                return false;
        }
        return !cells.empty();
    }
};

/**
 * Run the campaign. Fatal on configuration errors (unknown workload, a
 * workload without outputSpans() support, out-of-range scale).
 */
CampaignResult runFaultCampaign(const CampaignOptions &opts);

// Shared crash-classification machinery ------------------------------------
//
// tools/crash_harness replays the same ground-truth protocol against a
// process that was genuinely SIGKILLed, so the helpers the campaign
// classifies with are exported here rather than buried in the .cc.

/** Concatenated current-arena bytes of a span list. */
std::vector<uint8_t> readOutputSpans(const GlobalMemory &mem,
                                     const std::vector<OutputSpan> &spans);

/** The LP configuration a (table, checksum) campaign cell runs under. */
LpConfig campaignCellConfig(const Workload &w, TableKind table,
                            ChecksumKind kind);

/**
 * Crash points for one cell: @p grid_points evenly-spaced fractions of
 * @p stores plus @p random_points Prng draws, deduplicated and topped
 * back up. Points stay in [1, stores-2] so at least one store is
 * attempted after the latch and the run reliably crashes.
 */
std::set<uint64_t> pickCrashPoints(uint32_t grid_points,
                                   uint32_t random_points, uint64_t stores,
                                   Prng &rng);

/**
 * A consumable plan of crash points for an open-ended run — the
 * serving case. The campaign knows its store horizon up front (one
 * golden run per cell); a live server does not, so it estimates the
 * horizon after the first batch, builds a schedule over it with
 * pickCrashPoints(), and then pulls points one at a time as absolute
 * observed-store counts to arm NvmCache::crashAfterStores() against.
 */
class CrashSchedule
{
  public:
    /**
     * @param points Total crash points to spread over the horizon
     *        (half grid, half Prng-drawn, like a campaign cell).
     * @param horizon_stores Projected observed-store count of the whole
     *        run; must be >= 4 (pickCrashPoints' floor).
     */
    CrashSchedule(uint32_t points, uint64_t horizon_stores, Prng &rng);

    /**
     * Next scheduled point strictly after @p observed stores, or 0
     * when the schedule is exhausted. Consumes the returned point and
     * discards any points already at or behind @p observed.
     */
    uint64_t nextAfter(uint64_t observed);

    /** Points not yet consumed. */
    size_t remaining() const { return points_.size(); }

  private:
    std::set<uint64_t> points_;
};

/** Per-block crash classification against a golden run. */
struct BlockClassification {
    uint64_t corrupt_blocks = 0; //!< ground truth: output != golden
    uint64_t flagged_blocks = 0; //!< validation verdict: marked failed
    uint64_t true_fails = 0;     //!< corrupt and flagged
    uint64_t false_fails = 0;    //!< intact but flagged (benign)
    uint64_t false_passes = 0;   //!< corrupt but NOT flagged (fatal)
};

/**
 * Ground-truth classification of the image currently in @p dev's
 * arena: byte-diff every block's spans against @p golden_blocks, take
 * the verdict of @p ctx's strategy — the validation kernel under lazy,
 * the durable commit flags otherwise, exactly what recovery would
 * decide after a reboot — and cross the two.
 */
BlockClassification classifyCrash(
    Device &dev, const LaunchConfig &launch, Workload &w,
    const LpContext &ctx,
    const std::vector<std::vector<OutputSpan>> &block_spans,
    const std::vector<std::vector<uint8_t>> &golden_blocks);

/** Emit the campaign report as JSON to @p out. */
void writeCampaignJson(const CampaignResult &result, std::FILE *out);

} // namespace gpulp

#endif // GPULP_HARNESS_FAULTCAMPAIGN_H
