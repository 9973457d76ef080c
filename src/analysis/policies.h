/**
 * @file
 * Concrete SchedulePolicy implementations for schedule exploration,
 * plus the trace plumbing the explorer consumes.
 *
 * All three policies derive from RecordingPolicy, which owns the
 * mechanics every explored run needs: the decision log (chosen tid +
 * ready-set snapshot at every pick), the happens-before race tracker
 * (src/analysis/race.h), the schedule signature (FNV-1a over the
 * chosen-tid sequence) and DPOR backtrack candidates. Subclasses only
 * decide *which* ready thread runs next:
 *
 *  - DeterministicPolicy: the production pick — cyclic lowest flat tid
 *    from the last resumed thread. Installing it must be behaviourally
 *    invisible: golden fixtures stay bit-identical (asserted by
 *    SchedTest).
 *  - SeededRandomPolicy: uniform pick over the ready set at every
 *    decision point, from an explicit Prng seed. Same seed, same
 *    schedule.
 *  - DporLitePolicy: replays a forced decision prefix, then falls back
 *    to the deterministic pick. The explorer grows prefixes from
 *    backtrack candidates — conflicting access pairs whose order the
 *    schedule could legally flip — giving bounded dynamic
 *    partial-order reduction.
 *
 * One policy instance serves one block run on one worker thread; the
 * TraceCollector is the only cross-thread object (mutex-guarded
 * merge, performed in the policy destructor).
 */

#ifndef GPULP_ANALYSIS_POLICIES_H
#define GPULP_ANALYSIS_POLICIES_H

#include <mutex>
#include <unordered_map>
#include <vector>

#include "analysis/race.h"
#include "common/prng.h"
#include "sim/sched_policy.h"

namespace gpulp {

/** One scheduling decision: who ran, who else could have. */
struct SchedDecision {
    uint32_t chosen = 0;
    std::vector<uint32_t> ready; //!< ready tids at the pick (ascending)
};

/**
 * A DPOR backtrack candidate: at decision @p decision, running
 * @p alt_tid instead could reverse a conflicting pair. Validity
 * (alt_tid was ready there, and differs from the original pick) is
 * checked against the decision log by the explorer.
 */
struct BacktrackCandidate {
    uint32_t decision = 0;
    uint32_t alt_tid = 0;
};

/** Everything one block run's policy recorded. */
struct BlockTrace {
    uint64_t rank = 0;
    uint64_t signature = 0; //!< FNV-1a over the chosen-tid sequence
    std::vector<SchedDecision> decisions;
    std::vector<RaceRecord> races;
    uint64_t races_total = 0; //!< includes races beyond the record cap
    std::vector<BacktrackCandidate> backtracks;
};

/**
 * Thread-safe sink for the block traces of one explored schedule
 * (policies of concurrent blocks merge from their worker threads).
 */
class TraceCollector
{
  public:
    void merge(BlockTrace &&trace);

    /** Merged traces, sorted by block rank. */
    std::vector<BlockTrace> sortedBlocks() const;

    /**
     * Order-independent signature of the whole schedule: commutative
     * mix over (rank, per-block signature), so concurrent block
     * completion order cannot perturb it.
     */
    uint64_t combinedSignature() const;

    uint64_t totalRaces() const;

    void clear();

  private:
    mutable std::mutex mu_;
    std::vector<BlockTrace> blocks_;
};

/** Decision-recording base; subclasses choose the pick. */
class RecordingPolicy : public SchedulePolicy
{
  public:
    /**
     * @param rank Block rank (labels the trace).
     * @param collector Sink merged into at destruction; nullptr runs
     *        the policy without recording (pick permutation only) —
     *        the cheap mode the seeded determinism tests use.
     */
    RecordingPolicy(uint64_t rank, TraceCollector *collector);
    ~RecordingPolicy() override;

    uint32_t pick(ReadySet &ready, uint32_t last) final;
    void onBlockStart(uint32_t num_threads) override;
    void onResume(uint32_t tid) override;
    void onPark(uint32_t tid, SchedEvent ev) override;
    void onRelease(SchedEvent ev, const uint32_t *woken, uint32_t n,
                   uint32_t releaser) override;
    void onGlobalAccess(uint32_t tid, Addr addr, uint32_t bytes,
                        AccessKind kind) override;
    void onSharedAccess(uint32_t tid, uint32_t slot, uint32_t offset,
                        uint32_t bytes, AccessKind kind) override;

  protected:
    /**
     * Pick an index into @p ready (ascending tids, never empty).
     * @p last as in SchedulePolicy::pick; @p decision is the index of
     * this decision in the block's log.
     */
    virtual size_t choose(const std::vector<uint32_t> &ready, uint32_t last,
                          size_t decision) = 0;

    /** The production pick: cyclic lowest tid after @p last. */
    static size_t cyclicChoice(const std::vector<uint32_t> &ready,
                               uint32_t last);

  private:
    void recordAccess(uint32_t tid, bool shared, uint32_t slot,
                      uint64_t addr, uint32_t bytes, AccessKind kind);

    TraceCollector *collector_;
    BlockTrace trace_;
    HbTracker hb_;
    std::vector<uint32_t> scratch_;
    size_t decision_count_ = 0;
    bool recording_;
    /** Per atomic address: last (tid, decision), for DPOR candidates. */
    std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>>
        last_atomic_;
};

/** The production cyclic pick, now as a policy (bit-identical). */
class DeterministicPolicy final : public RecordingPolicy
{
  public:
    using RecordingPolicy::RecordingPolicy;

  protected:
    size_t
    choose(const std::vector<uint32_t> &ready, uint32_t last,
           size_t) override
    {
        return cyclicChoice(ready, last);
    }
};

/** Uniform random pick at every decision point, from a fixed seed. */
class SeededRandomPolicy final : public RecordingPolicy
{
  public:
    SeededRandomPolicy(uint64_t rank, TraceCollector *collector,
                       uint64_t seed)
        : RecordingPolicy(rank, collector), rng_(seed)
    {
    }

  protected:
    size_t
    choose(const std::vector<uint32_t> &ready, uint32_t,
           size_t) override
    {
        return static_cast<size_t>(rng_.nextBelow(ready.size()));
    }

  private:
    Prng rng_;
};

/** Forced-prefix replay with deterministic tail (DPOR-lite). */
class DporLitePolicy final : public RecordingPolicy
{
  public:
    DporLitePolicy(uint64_t rank, TraceCollector *collector,
                   std::vector<uint32_t> forced)
        : RecordingPolicy(rank, collector), forced_(std::move(forced))
    {
    }

  protected:
    size_t
    choose(const std::vector<uint32_t> &ready, uint32_t last,
           size_t decision) override
    {
        if (decision < forced_.size()) {
            for (size_t i = 0; i < ready.size(); ++i) {
                if (ready[i] == forced_[decision])
                    return i;
            }
            // The forced tid is not ready here: the prefix diverged
            // (e.g. a different launch shape). Fall through.
        }
        return cyclicChoice(ready, last);
    }

  private:
    std::vector<uint32_t> forced_;
};

} // namespace gpulp

#endif // GPULP_ANALYSIS_POLICIES_H
