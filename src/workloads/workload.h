/**
 * @file
 * Workload abstraction for the paper's benchmark suite (Table I).
 *
 * Each workload reproduces the structure of one of the paper's
 * benchmarks — tiled matrix multiplication [18], six Parboil kernels
 * [19] and MEGA-KV [12] — at a scale that runs on one host core. The
 * thread-block counts match Table III of the paper exactly, because
 * the block count is the variable behind every scalability result;
 * per-block work is functionally reduced, with the remaining full-size
 * arithmetic charged to the timing model (see each workload's header).
 *
 * A workload exposes one kernel body that runs either bare (baseline,
 * no crash support — the paper's reference) or protected when handed
 * an LpContext: every persistent store then goes through the context's
 * persistency strategy (under lazy, folded into the region checksum)
 * and the block commits its region at the end. It also exposes the
 * matching validation kernel the lazy model's recovery verdict runs.
 */

#ifndef GPULP_WORKLOADS_WORKLOAD_H
#define GPULP_WORKLOADS_WORKLOAD_H

#include <memory>
#include <string>
#include <vector>

#include "core/persist.h"
#include "core/recovery.h"
#include "core/runtime.h"
#include "sim/device.h"

namespace gpulp {

/** One contiguous range of persistent output bytes in device memory. */
struct OutputSpan {
    Addr addr = kNullAddr;
    uint64_t bytes = 0;
};

/**
 * One benchmark from the paper's suite.
 *
 * Lifecycle: construct (choosing a scale), setup(dev) to allocate and
 * host-initialize device buffers, then launch the kernel through
 * runBaseline()/runWithLp(). verify() checks device results against a
 * host-computed reference.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name, lower-case (e.g. "tmm"). */
    virtual const char *name() const = 0;

    /** Performance bottleneck per Table I of the paper. */
    virtual const char *bottleneck() const = 0;

    /** Grid/block dimensions of the protected kernel. */
    virtual LaunchConfig launchConfig() const = 0;

    /** Allocate device buffers and host-initialize inputs. */
    virtual void setup(Device &dev) = 0;

    /**
     * The kernel body. With @p lp == nullptr this is the baseline; with
     * an LpContext every persistent store goes through its strategy
     * and the block commits its region at the end (collective).
     */
    virtual void kernel(ThreadCtx &t, const LpContext *lp) = 0;

    /**
     * Validation kernel body: recompute the block's checksums from the
     * output data found in memory, compare with the checksum store and
     * mark mismatching blocks in @p failed (collective).
     */
    virtual void validation(ThreadCtx &t, const LpContext &lp,
                            RecoverySet &failed) = 0;

    /** Check device outputs against the host reference. */
    virtual bool verify(std::string *why = nullptr) const = 0;

    /** Bytes of persistent output data (space-overhead denominator). */
    virtual uint64_t outputBytes() const = 0;

    /**
     * Maximum number of persistent stores a single thread performs in
     * one kernel execution — sizes the eager model's per-thread undo
     * log when the kernel runs under PersistModel::Eager.
     */
    virtual uint64_t persistentStoresPerThread() const { return 1; }

    /**
     * Golden-output capture hook: the device-memory spans holding this
     * workload's persistent output, valid after setup(). The fault
     * campaign snapshots these after a crash-free run and byte-diffs
     * them against recovered state. All eight paper kernels override
     * it; a workload that returns {} cannot run crash trials
     * (CrashTrial rejects it).
     */
    virtual std::vector<OutputSpan> outputSpans() const { return {}; }

    /**
     * The subset of outputSpans() bytes owned by thread block @p rank,
     * for classifying per-block corruption. Blocks must own disjoint
     * byte ranges; only meaningful when outputSpans() is non-empty.
     */
    virtual std::vector<OutputSpan> blockOutputSpans(uint64_t rank) const
    {
        (void)rank;
        return {};
    }

    /**
     * Load factor the paper's table sizing produced for this benchmark
     * with quadratic probing, inferred from Table II's collision rates.
     */
    virtual double quadLoadFactor() const = 0;

    /** Cuckoo-table counterpart of quadLoadFactor(). */
    virtual double cuckooLoadFactor() const = 0;
};

/**
 * Deterministic per-block duration jitter, charged once at kernel
 * entry. Real GPU thread blocks vary in duration (data-dependent
 * branches, memory luck), which desynchronizes the waves in which
 * blocks reach their LP commit; without it every block of a uniform
 * kernel would commit at the same instant and manufacture contention
 * the hardware does not see.
 *
 * @param t The calling thread.
 * @param span Maximum jitter in cycles (roughly 15% of block work).
 */
void chargeBlockJitter(ThreadCtx &t, uint32_t span);

/** Run the baseline (no crash support) kernel once. */
LaunchResult runBaseline(Device &dev, Workload &w);

/** Run the protected kernel once under @p strategy's model (an
 *  LpRuntime for the paper's lazy persistency). */
LaunchResult runWithLp(Device &dev, Workload &w, PersistStrategy &strategy);

/**
 * Fractional overhead of @p lp_cycles versus @p baseline_cycles
 * (0.081 == 8.1%), the metric of Fig. 5 and Tables III-V.
 */
double overheadOf(Cycles baseline_cycles, Cycles lp_cycles);

/**
 * Construct a workload by name ("tmm", "tpacf", "mri-gridding", "spmv",
 * "sad", "histo", "cutcp", "mri-q").
 *
 * @param scale Fraction of the paper-scale thread-block count, in
 *        (0, 1]. 1.0 reproduces Table III's block counts; tests use
 *        small fractions.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       double scale = 1.0);

/** Names of the eight kernels of Fig. 5 / Tables II-V, paper order. */
const std::vector<std::string> &workloadNames();

} // namespace gpulp

#endif // GPULP_WORKLOADS_WORKLOAD_H
