/**
 * @file
 * Experiment driver shared by the paper-reproduction benches.
 *
 * A driver owns one Device per workload, sets the workload up once,
 * measures the baseline once and then measures any number of LP
 * configurations against it, returning the overhead metric the paper
 * reports. Hashed-table load factors default to the per-benchmark
 * values inferred from Table II (see Workload::quadLoadFactor()).
 */

#ifndef GPULP_HARNESS_DRIVER_H
#define GPULP_HARNESS_DRIVER_H

#include <concepts>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace gpulp {

/** One measured (workload, LP configuration) pair. */
struct MeasuredRun {
    std::string workload;
    LpConfig config;
    Cycles baseline_cycles = 0;
    Cycles lp_cycles = 0;
    double overhead = 0.0;          //!< fractional (0.081 == 8.1%)
    StoreStats store_stats;         //!< collision counters (Table II)
    uint64_t lp_footprint_bytes = 0;//!< store + scratch
    uint64_t output_bytes = 0;      //!< persistent workload output
    uint64_t num_blocks = 0;
    MemTrafficStats baseline_traffic;
    MemTrafficStats lp_traffic;

    bool operator==(const MeasuredRun &) const = default;
};

/** Call @p fn(name, value) for every integer result of @p run: the one
 *  field list behind digestRuns() and bench/paper_tables' JSON cells. */
template <typename Fn>
void
forEachRunCount(const MeasuredRun &run, Fn &&fn)
{
    const StoreStats &s = run.store_stats;
    const MemTrafficStats &b = run.baseline_traffic, &l = run.lp_traffic;
    fn("baseline_cycles", run.baseline_cycles);
    fn("lp_cycles", run.lp_cycles);
    fn("inserts", s.inserts);
    fn("collisions", s.collisions);
    fn("probes", s.probes);
    fn("kicks", s.kicks);
    fn("stash_inserts", s.stash_inserts);
    fn("displacements", s.displacements);
    fn("opt_retries", s.opt_retries);
    fn("lp_footprint_bytes", run.lp_footprint_bytes);
    fn("output_bytes", run.output_bytes);
    fn("blocks", run.num_blocks);
    fn("baseline_loads", b.global_loads);
    fn("baseline_stores", b.global_stores);
    fn("baseline_atomics", b.global_atomics);
    fn("baseline_bytes_read", b.bytes_read);
    fn("baseline_bytes_written", b.bytes_written);
    fn("baseline_atomic_conflicts", b.atomic_conflicts);
    fn("baseline_atomic_wait_cycles", b.atomic_wait_cycles);
    fn("lp_loads", l.global_loads);
    fn("lp_stores", l.global_stores);
    fn("lp_atomics", l.global_atomics);
    fn("lp_bytes_read", l.bytes_read);
    fn("lp_bytes_written", l.bytes_written);
    fn("lp_atomic_conflicts", l.atomic_conflicts);
    fn("lp_atomic_wait_cycles", l.atomic_wait_cycles);
}

/**
 * FNV-1a over every integer result of @p runs, in order: one value that
 * moves when any simulated result of the runs moves.
 */
uint64_t digestRuns(std::span<const MeasuredRun> runs);

/**
 * Per-workload measurement context: device + initialized workload +
 * cached baseline.
 */
class WorkloadBench
{
  public:
    /**
     * @param name Workload name (see workloadNames()).
     * @param scale Fraction of the paper-scale block count.
     */
    explicit WorkloadBench(const std::string &name, double scale = 1.0);

    /** The workload under test. */
    Workload &workload() { return *workload_; }

    /** The device everything runs on. */
    Device &device() { return *dev_; }

    /** Baseline kernel time (first call runs the kernel). */
    Cycles baselineCycles();

    /**
     * Measure one LP configuration. A zero cfg.load_factor is replaced
     * by the workload's calibrated per-table default.
     */
    MeasuredRun measure(LpConfig cfg);

  private:
    std::string name_;
    std::unique_ptr<Device> dev_;
    std::unique_ptr<Workload> workload_;
    bool baseline_done_ = false;
    Cycles baseline_cycles_ = 0;
    MemTrafficStats baseline_traffic_;
};

/** Prepare benches for every workload in the suite at @p scale. */
std::vector<std::unique_ptr<WorkloadBench>> makeSuite(double scale = 1.0);

/**
 * Scale factor for bench binaries: reads the GPULP_SCALE environment
 * variable (a float in (0, 1]), defaulting to 1.0 (paper-scale block
 * counts). A value that does not parse in full, is not finite, or is
 * outside (0, 1] is a fatal configuration error.
 */
double benchScaleFromEnv();

/**
 * Parse @p text as a scale factor in (0, 1]; @p what names the source
 * (an environment variable or CLI flag) in the fatal diagnostic when
 * the text is garbage, has trailing junk, is non-finite or is out of
 * range.
 */
double parseScaleOrDie(const char *text, const char *what);

/**
 * Parse @p text as a decimal integer in [0, @p max]; @p what names the
 * flag in the fatal diagnostic when the text is garbage, has trailing
 * junk, is signed or is out of range.
 */
uint64_t parseUintOrDie(const char *text, const char *what, uint64_t max);

/** parseUintOrDie() up to the largest @p T. */
template <std::unsigned_integral T>
T
parseUintOrDie(const char *text, const char *what)
{
    return static_cast<T>(
        parseUintOrDie(text, what, std::numeric_limits<T>::max()));
}

/** parseUintOrDie() for a worker count: 0 (auto) to kMaxWorkers. */
uint32_t parseWorkersOrDie(const char *text, const char *what);

/** The argument after the flag argv[@p i], stepping @p i past it;
 *  fatal when the flag is the last argument. */
const char *flagValue(int argc, char **argv, int &i);

/** The non-empty items of the comma-separated list @p text. */
std::vector<std::string> splitList(const std::string &text);

} // namespace gpulp

#endif // GPULP_HARNESS_DRIVER_H
