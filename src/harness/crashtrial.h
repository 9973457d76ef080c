/**
 * @file
 * The crash-trial engine behind the fault campaign, the kill-9 harness
 * and the schedule explorer.
 *
 * The paper's claim is that validation flags exactly the blocks a crash
 * corrupted, and that re-executing those blocks restores the output
 * (Sec. II-A, IV-A, Listing 7). A CrashTrial checks it for one cell —
 * a (workload, persistency model, checksum store, checksum kind) tuple:
 *
 *  1. the rig: device, NVM cache, optional persist log, the workload
 *     set up, the model's PersistStrategy, every block's output spans
 *     and the durable pristine snapshot trials rewind to;
 *  2. the golden run: the kernel crash-free, whose per-block output
 *     bytes are the ground truth every trial is judged against;
 *  3. the trial tail, on whatever crashed image the caller left in the
 *     arena: byte-diff every block against golden and cross that with
 *     the model's own verdict (PersistStrategy::verdict — lazy: the
 *     validation kernel; eager/strict/epoch: the durable commit flags):
 *       - true fail:   corrupt and flagged (recovery will repair it);
 *       - false fail:  intact but flagged (a checksum entry or commit
 *                      flag did not persist; wasted re-execution,
 *                      still correct);
 *       - false pass:  corrupt but NOT flagged — silent corruption,
 *                      the one outcome that breaks the guarantee;
 *     then persistRecover(), crash() once more, byte-diff the durable
 *     output against golden and run the host reference check.
 *
 * The tools differ only in where they arm the crash. The campaign and
 * the explorer call crashAt() in-process (the explorer under whatever
 * schedule policy it installed); the kill-9 harness builds one rig in a
 * victim that SIGKILLs itself mid-store and another in a fresh process
 * that restores the persist log and calls finish().
 */

#ifndef GPULP_HARNESS_CRASHTRIAL_H
#define GPULP_HARNESS_CRASHTRIAL_H

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/persist.h"
#include "nvm/nvm_cache.h"
#include "nvm/persist_log.h"
#include "sim/device.h"
#include "workloads/workload.h"

namespace gpulp {

class Prng;

/** Outcome of one crash point. */
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

    /** No false-pass, and recovery converged to the durable golden
     *  output that the host reference accepts. */
    bool
    passed() const
    {
        return false_passes == 0 && converged && output_matches_golden &&
               verify_ok;
    }

    bool operator==(const TrialResult &) const = default;
};

/**
 * Call @p fn(key, field) for every TrialResult field, in report order;
 * @p key is the field's JSON name. Every writer and reader of a trial
 * (the JSON reports, the kill-9 hand-off record) walks this one list.
 */
template <typename Trial, typename Fn>
void
forEachTrialField(Trial &t, Fn &&fn)
{
    fn("crash_point", t.crash_point);
    fn("torn_lines", t.torn_lines);
    fn("corrupt_blocks", t.corrupt_blocks);
    fn("flagged_blocks", t.flagged_blocks);
    fn("true_fails", t.true_fails);
    fn("false_fails", t.false_fails);
    fn("false_passes", t.false_passes);
    fn("blocks_recovered", t.blocks_recovered);
    fn("rounds", t.recovery_rounds);
    fn("crashes_survived", t.crashes_survived);
    fn("validate_cycles", t.validate_cycles);
    fn("recover_cycles", t.recover_cycles);
    fn("converged", t.converged);
    fn("durable_match", t.output_matches_golden);
    fn("verify_ok", t.verify_ok);
}

/** Write @p trial's fields as comma-separated JSON members (no braces). */
void writeTrialJsonFields(const TrialResult &trial, std::FILE *out);

/** Which cell a CrashTrial runs. */
struct TrialCell {
    std::string workload; //!< must implement blockOutputSpans()
    double scale = 0.004;
    uint32_t num_workers = 1;
    /** Small, so natural evictions persist a nontrivial, partial subset
     *  of the output before the crash. */
    size_t nvm_cache_bytes = 16 * 1024;
    PersistModel model = PersistModel::Lazy;
    /** Checksum store and kind; they configure only the lazy model. */
    TableKind table = TableKind::GlobalArray;
    ChecksumKind checksum = ChecksumKind::ModularParity;
};

/** The LP configuration a (table, checksum) cell runs under. */
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
 * One cell's rig, golden image and trial tail. A victim and its
 * recovery process must build the rig identically — same parameters,
 * same set-up order, same allocations — because the persist log
 * replays by raw arena address (restoreFromLog() checks it).
 */
class CrashTrial
{
  public:
    /**
     * Build the rig and take the durable pristine snapshot. Fatal if
     * the workload exposes no output spans. @p log, when given, is
     * attached before set-up, so the snapshot's persistAll() seeds it
     * with the whole pre-kernel image.
     */
    explicit CrashTrial(const TrialCell &cell,
                        std::unique_ptr<PersistLog> log = nullptr);
    CrashTrial(const CrashTrial &) = delete;
    CrashTrial &operator=(const CrashTrial &) = delete;

    Device &device() { return dev_; }
    NvmCache &nvm() { return nvm_; }
    const Workload &workload() const { return *w_; }
    uint64_t numBlocks() const { return launch_.numBlocks(); }

    /** Output bytes each block owns, in block order. */
    std::vector<size_t> blockBytes() const;

    /**
     * The crash-free golden run from the pristine image, under whatever
     * schedule policy the device has installed; records the golden
     * bytes. Fatal if it crashes or fails host verification.
     * @return Observed stores: the horizon crash points are drawn over.
     */
    uint64_t runGolden();

    /** Golden bytes per block, from runGolden() or adoptGolden(). */
    const std::vector<std::vector<uint8_t>> &golden() const
    {
        return golden_;
    }

    /** Take golden bytes computed by another process, one entry per
     *  block (readGoldenFile() checks each has blockBytes()' size). */
    void adoptGolden(std::vector<std::vector<uint8_t>> blocks);

    /** Rewind the arena and NVM to the durable pristine snapshot, cache
     *  cold and NVM statistics zeroed. */
    void rewind();

    /** Launch the protected kernel once. */
    LaunchResult runKernel();

    /** First block whose output differs from golden in the arena, or
     *  numBlocks() when every block matches. */
    uint64_t firstDivergedBlock();

    /**
     * One in-process trial: rewind, crash after @p point observed
     * stores, run the kernel into the crash, then finish().
     */
    TrialResult crashAt(uint64_t point);

    /**
     * The trial tail on the crashed image in the arena: classify every
     * block, recover, crash once more, diff the durable output against
     * golden and run the host check. Fills every field of a fresh
     * @p trial but crash_point and torn_lines.
     */
    void finish(TrialResult &trial);

  private:
    std::unique_ptr<PersistLog> log_; //!< outlives the cache that logs
    Device dev_;
    NvmCache nvm_;
    std::unique_ptr<Workload> w_;
    LaunchConfig launch_;
    std::unique_ptr<PersistStrategy> strategy_;
    LpContext ctx_;
    std::vector<std::vector<OutputSpan>> spans_; //!< per block
    std::vector<char> pristine_;
    std::vector<std::vector<uint8_t>> golden_;
};

} // namespace gpulp

#endif // GPULP_HARNESS_CRASHTRIAL_H
