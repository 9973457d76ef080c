/**
 * @file
 * Crash-consistency fault-injection campaign.
 *
 * The paper's claim is not that LP is fast — it is that LP-protected
 * kernels *survive crashes* (Sec. II-A, IV-A, Listing 7). The campaign
 * sweeps that claim over cells — (workload, persistency model,
 * checksum store, checksum kind) tuples. Per cell it builds one
 * CrashTrial (crashtrial.h), takes the golden run, and arms the crash
 * in-process at every point of a sweep over the golden run's observed
 * stores: a deterministic grid of fractions plus Prng-seeded random
 * points. Each trial rewinds, runs into NvmCache::crashAfterStores(),
 * and then classifies, recovers and re-checks through the engine.
 *
 * A campaign passes iff every trial converged with zero false-passes
 * and a byte-identical, host-verified durable output. False fails —
 * intact blocks flagged for a benign re-execution — do not fail it.
 * runFaultCampaign() is deterministic for a fixed (options, workers)
 * pair.
 */

#ifndef GPULP_HARNESS_FAULTCAMPAIGN_H
#define GPULP_HARNESS_FAULTCAMPAIGN_H

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "harness/crashtrial.h"
#include "obs/counters.h"

namespace gpulp {

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

/** Emit the campaign report as JSON to @p out. */
void writeCampaignJson(const CampaignResult &result, std::FILE *out);

} // namespace gpulp

#endif // GPULP_HARNESS_FAULTCAMPAIGN_H
