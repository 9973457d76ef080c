#include "driver.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/fnv.h"

namespace gpulp {

WorkloadBench::WorkloadBench(const std::string &name, double scale)
    : name_(name)
{
    DeviceParams params;
    params.arena_bytes = 768ull * 1024 * 1024;
    dev_ = std::make_unique<Device>(params);
    workload_ = makeWorkload(name, scale);
    workload_->setup(*dev_);
}

Cycles
WorkloadBench::baselineCycles()
{
    if (!baseline_done_) {
        LaunchResult r = runBaseline(*dev_, *workload_);
        GPULP_ASSERT(!r.crashed, "baseline run crashed");
        baseline_cycles_ = r.cycles;
        baseline_traffic_ = r.traffic;
        baseline_done_ = true;
    }
    return baseline_cycles_;
}

MeasuredRun
WorkloadBench::measure(LpConfig cfg)
{
    if (cfg.load_factor <= 0.0) {
        if (cfg.table == TableKind::QuadProbe)
            cfg.load_factor = workload_->quadLoadFactor();
        else if (cfg.table == TableKind::Cuckoo)
            cfg.load_factor = workload_->cuckooLoadFactor();
    }

    MeasuredRun run;
    run.workload = name_;
    run.config = cfg;
    run.baseline_cycles = baselineCycles();
    run.baseline_traffic = baseline_traffic_;
    run.num_blocks = workload_->launchConfig().numBlocks();
    run.output_bytes = workload_->outputBytes();

    LpRuntime lp(*dev_, cfg, workload_->launchConfig());
    LaunchResult r = runWithLp(*dev_, *workload_, lp);
    GPULP_ASSERT(!r.crashed, "LP run crashed");

    run.lp_cycles = r.cycles;
    run.lp_traffic = r.traffic;
    run.overhead = overheadOf(run.baseline_cycles, run.lp_cycles);
    run.store_stats = lp.store().stats();
    run.lp_footprint_bytes = lp.footprintBytes();
    return run;
}

uint64_t
digestRuns(std::span<const MeasuredRun> runs)
{
    uint64_t h = kFnvOffset;
    for (const MeasuredRun &r : runs)
        forEachRunCount(r,
                        [&](const char *, uint64_t v) { h = fnvStep(h, v); });
    return h;
}

std::vector<std::unique_ptr<WorkloadBench>>
makeSuite(double scale)
{
    std::vector<std::unique_ptr<WorkloadBench>> benches;
    for (const std::string &name : workloadNames())
        benches.push_back(std::make_unique<WorkloadBench>(name, scale));
    return benches;
}

double
parseScaleOrDie(const char *text, const char *what)
{
    // atof() is not good enough here: it silently accepts trailing
    // garbage ("0.5abc" -> 0.5) and "nan" sails through a
    // (<= 0 || > 1) range check because NaN fails both comparisons.
    errno = 0;
    char *end = nullptr;
    double scale = std::strtod(text, &end);
    if (end == text || *end != '\0')
        GPULP_FATAL("%s must be a number in (0, 1], got '%s'", what, text);
    if (errno == ERANGE || !std::isfinite(scale))
        GPULP_FATAL("%s must be finite and in (0, 1], got '%s'", what, text);
    if (scale <= 0.0 || scale > 1.0)
        GPULP_FATAL("%s must be in (0, 1], got '%s'", what, text);
    return scale;
}

uint64_t
parseUintOrDie(const char *text, const char *what, uint64_t max)
{
    // strtoull() alone would take "-1" as 2^64 - 1 and clamp overflow.
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0')
        GPULP_FATAL("%s must be a non-negative integer, got '%s'", what,
                    text);
    if (errno == ERANGE || v > max)
        GPULP_FATAL("%s must be at most %llu, got '%s'", what,
                    static_cast<unsigned long long>(max), text);
    return v;
}

uint32_t
parseWorkersOrDie(const char *text, const char *what)
{
    return static_cast<uint32_t>(parseUintOrDie(text, what, kMaxWorkers));
}

const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        GPULP_FATAL("%s needs a value", argv[i]);
    return argv[++i];
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= text.size()) {
        size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

double
benchScaleFromEnv()
{
    const char *env = std::getenv("GPULP_SCALE");
    if (!env)
        return 1.0;
    return parseScaleOrDie(env, "GPULP_SCALE");
}

} // namespace gpulp
