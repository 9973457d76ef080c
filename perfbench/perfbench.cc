/**
 * @file
 * Benchmark binary: runs one benchmark workload through gpulp's public
 * entry points and prints the raw measurements as one JSON object on
 * stdout. perfbench/run.py builds this binary, turns the raw numbers
 * into end-to-end and per-layer metrics, and checks them.
 *
 * Usage:
 *   perfbench --workload suite|suite-parallel|kv-zipf|crash-sweep
 *             --seed N --seconds S [--trace PATH]
 *
 * Every run sets the workload up kSetupWarmups times untimed (the
 * allocator settles over the first few), runs one untimed warm-up pass,
 * then repeats that fixed unit of work — a "pass" — until S seconds have
 * elapsed. kSetupsPerPass throw-away set-ups follow every pass, so the
 * set-up samples span the run instead of one burst at its start. With --trace the first half of S runs
 * untraced and the second half records a Chrome trace (plus JSONL) at
 * PATH; the benchmark's own spans (category "perfbench") bracket every
 * library call so run.py can split host time per layer.
 *
 * Every pass must reproduce the first pass's simulated results
 * bit-for-bit; the FNV-1a digest of those results is printed so two
 * commits (or two worker counts) can be compared exactly.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "harness/driver.h"
#include "harness/faultcampaign.h"
#include "nvm/nvm_cache.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "paper_refs.h"
#include "service/server.h"

using namespace gpulp;

namespace {

using Clock = std::chrono::steady_clock;

/** Workload sizes. The suite's inputs are fixed by its generators; the
 *  seed only reaches the KV request stream and the crash points. */
constexpr double kSuiteScale = 0.05;
constexpr uint32_t kParallelWorkers = 4;
constexpr uint64_t kKvRequests = 100000;
constexpr double kCrashScale = 0.004;
constexpr uint32_t kCrashGridPoints = 6;
constexpr uint32_t kCrashRandomPoints = 4;
constexpr int kSetupWarmups = 8;
constexpr int kSetupsPerPass = 3;

const std::vector<std::string> kCrashWorkloads = {"tmm", "spmv", "mri-q"};
const std::vector<PersistModel> kCrashModels = {
    PersistModel::Lazy, PersistModel::Eager, PersistModel::Strict,
    PersistModel::EpochBlock, PersistModel::EpochKernel};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a (64-bit) over the little-endian bytes of every value fed. */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(double d)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }

    void
    add(const MemTrafficStats &t)
    {
        for (uint64_t v : {t.global_loads, t.global_stores, t.global_atomics,
                           t.bytes_read, t.bytes_written, t.atomic_conflicts,
                           t.atomic_wait_cycles})
            add(v);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Flat JSON object builder (numbers, strings, number arrays). */
class JsonObject
{
  public:
    void
    num(const std::string &key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        field(key, buf);
    }

    void
    str(const std::string &key, const std::string &v)
    {
        std::string quoted = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += (c == '\n' ? ' ' : c);
        }
        field(key, quoted + "\"");
    }

    void
    nums(const std::string &key, const std::vector<double> &vs)
    {
        std::string arr = "[";
        for (size_t i = 0; i < vs.size(); ++i) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", vs[i]);
            arr += buf;
        }
        field(key, arr + "]");
    }

    void
    object(const std::string &key, const JsonObject &o)
    {
        field(key, o.text());
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    void
    field(const std::string &key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + key + "\": " + value;
    }

    std::string body_;
};

/** What one pass produced: its simulated results and output checks. */
struct PassResult {
    uint64_t digest = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string why;  //!< first failed check, if any
    JsonObject sim;   //!< simulated metrics (identical on every pass)
};

/**
 * One benchmark workload: a set-up, then a repeatable pass. Each returns
 * the host seconds it counts as its timed work; tearing state down is
 * not counted. setup(true) keeps the state for the passes, setup(false)
 * only measures.
 */
class Bench
{
  public:
    virtual ~Bench() = default;
    virtual double setup(bool keep) = 0;
    virtual double pass(PassResult &out) = 0;
    virtual uint32_t workers() const { return 1; }

    /** Names for the "kernel"/"model" args of the pass's own spans. */
    std::vector<std::string> labels;

    /** Set-ups a pass performs itself, timed but outside its return. */
    std::vector<double> setup_samples;
};

// ---------------------------------------------------------------------------
// suite / suite-parallel: the eight paper kernels, baseline + LP each.

class SuiteBench : public Bench
{
  public:
    explicit SuiteBench(uint32_t workers) : workers_(workers)
    {
        // WorkloadBench devices resolve their worker count from the
        // environment at launch time.
        setenv("GPULP_WORKERS", std::to_string(workers).c_str(), 1);
        labels = workloadNames();
    }

    uint32_t workers() const override { return workers_; }

    double
    setup(bool keep) override
    {
        const Clock::time_point t0 = Clock::now();
        std::vector<Kernel> fresh;
        for (const std::string &name : workloadNames()) {
            Kernel k;
            k.bench = std::make_unique<WorkloadBench>(name, kSuiteScale);
            k.lp = std::make_unique<LpRuntime>(
                k.bench->device(), LpConfig::scalable(),
                k.bench->workload().launchConfig());
            fresh.push_back(std::move(k));
        }
        const double seconds = secondsSince(t0);
        if (keep)
            kernels_ = std::move(fresh);
        return seconds;
    }

    double
    pass(PassResult &out) override
    {
        const Clock::time_point t0 = Clock::now();
        Digest digest;
        std::vector<double> overheads;
        double err_pp = 0.0;
        uint64_t accesses = 0, atomic_wait = 0;
        for (size_t i = 0; i < kernels_.size(); ++i) {
            Workload &w = kernels_[i].bench->workload();
            Device &dev = kernels_[i].bench->device();

            LaunchResult base;
            {
                obs::TraceSpan span("baseline", "perfbench", i, "kernel");
                base = runBaseline(dev, w);
            }
            check(w, base, out);

            kernels_[i].lp->reset();
            LaunchResult lp;
            {
                obs::TraceSpan span("lp", "perfbench", i, "kernel");
                lp = runWithLp(dev, w, *kernels_[i].lp);
            }
            check(w, lp, out);

            const double o = overheadOf(base.cycles, lp.cycles);
            overheads.push_back(o);
            err_pp += std::fabs(100.0 * o - paper::kArrayShfl[i]);
            for (const LaunchResult *r : {&base, &lp}) {
                const MemTrafficStats &t = r->traffic;
                accesses += t.global_loads + t.global_stores +
                            t.global_atomics;
                atomic_wait += t.atomic_wait_cycles;
                digest.add(static_cast<uint64_t>(r->cycles));
                digest.add(t);
            }
            out.sim.num(w.name() + std::string(".baseline_cycles"),
                        static_cast<double>(base.cycles));
            out.sim.num(w.name() + std::string(".lp_cycles"),
                        static_cast<double>(lp.cycles));
        }
        const double gmean = geomeanOverhead(overheads);
        err_pp /= static_cast<double>(kernels_.size());
        digest.add(gmean);
        digest.add(err_pp);
        out.sim.num("lp_overhead_gmean", gmean);
        out.sim.num("paper_err_pp", err_pp);
        out.sim.num("mem.global_accesses", static_cast<double>(accesses));
        out.sim.num("mem.atomic_wait_cycles",
                    static_cast<double>(atomic_wait));
        out.digest = digest.value();
        return secondsSince(t0);
    }

  private:
    struct Kernel {
        std::unique_ptr<WorkloadBench> bench;
        std::unique_ptr<LpRuntime> lp;
    };

    static void
    check(const Workload &w, const LaunchResult &r, PassResult &out)
    {
        obs::TraceSpan span("verify", "perfbench");
        ++out.attempted;
        std::string why;
        bool ok = !r.crashed && w.verify(&why);
        if (r.crashed)
            why = "launch crashed";
        if (!ok) {
            ++out.failed;
            if (out.why.empty())
                out.why = std::string(w.name()) + ": " + why;
        }
    }

    uint32_t workers_;
    std::vector<Kernel> kernels_;
};

// ---------------------------------------------------------------------------
// kv-zipf: crash-free MEGA-KV serving.

class KvBench : public Bench
{
  public:
    explicit KvBench(uint64_t seed)
    {
        opts_.seed = seed;
        opts_.num_workers = 1;
    }

    double
    setup(bool keep) override
    {
        if (keep)
            server_.reset();
        const Clock::time_point t0 = Clock::now();
        auto server = std::make_unique<service::KvServer>(opts_);
        const double seconds = secondsSince(t0);
        if (keep)
            server_ = std::move(server);
        return seconds;
    }

    double
    pass(PassResult &out) override
    {
        // KvServer::serve is single-shot: every pass serves from a
        // freshly constructed server, timed as set-up, not as serving.
        if (!server_) {
            obs::TraceSpan span("setup", "perfbench");
            setup_samples.push_back(setup(true));
        }
        const Clock::time_point t0 = Clock::now();
        service::ServeReport rep;
        {
            obs::TraceSpan span("serve", "perfbench");
            rep = server_->serve(kKvRequests);
        }
        const double serve_s = secondsSince(t0);
        server_.reset();

        uint64_t unconverged = 0;
        for (const service::CrashEvent &ev : rep.crashes)
            unconverged += ev.converged ? 0 : ev.requests_recovered;
        out.attempted += rep.requests_acked;
        out.failed += rep.acked_lost + rep.phantom_keys + unconverged;
        if (!rep.audit_ok || unconverged != 0) {
            out.why = "kv audit failed: " + std::to_string(rep.acked_lost) +
                      " acked-lost, " + std::to_string(rep.phantom_keys) +
                      " phantom, " + std::to_string(unconverged) +
                      " unconverged";
        }

        Digest digest;
        for (uint64_t v :
             {rep.requests_enqueued, rep.requests_acked,
              rep.inserts_coalesced, rep.batches_served, rep.insert_drops,
              rep.search_misses, rep.checkpoints,
              static_cast<uint64_t>(rep.total_cycles),
              static_cast<uint64_t>(rep.device_busy_cycles),
              rep.latency.count, rep.latency.sum, rep.latency.min,
              rep.latency.max})
            digest.add(v);
        for (uint64_t b : rep.latency.buckets)
            digest.add(b);
        out.digest = digest.value();

        const double acked = static_cast<double>(rep.requests_acked);
        out.sim.num("kv_lat_p50_cycles", rep.latency.percentile(0.50));
        out.sim.num("kv_lat_p999_cycles", rep.latency.percentile(0.999));
        out.sim.num("kv_sim_req_per_kcycle",
                    acked / (static_cast<double>(rep.total_cycles) / 1e3));
        out.sim.num("service.requests_acked", acked);
        out.sim.num("service.coalesce_ratio",
                    static_cast<double>(rep.inserts_coalesced) /
                        static_cast<double>(rep.requests_enqueued));
        out.sim.num("service.insert_drop_ratio",
                    static_cast<double>(rep.insert_drops) / acked);
        return serve_s;
    }

  private:
    service::KvServerOptions opts_;
    std::unique_ptr<service::KvServer> server_;
};

// ---------------------------------------------------------------------------
// crash-sweep: the fault campaign over every persistency model.

class CrashBench : public Bench
{
  public:
    explicit CrashBench(uint64_t seed)
    {
        opts_.scale = kCrashScale;
        opts_.seed = seed;
        opts_.grid_points = kCrashGridPoints;
        opts_.random_points = kCrashRandomPoints;
        opts_.num_workers = 1;
        opts_.workloads = kCrashWorkloads;
        for (PersistModel m : kCrashModels)
            labels.push_back(toString(m));
    }

    /**
     * runFaultCampaign sets every cell up itself; this times the same
     * device + NVM + workload set-up once per swept workload.
     */
    double
    setup(bool) override
    {
        struct Cell {
            std::unique_ptr<Device> dev;
            std::unique_ptr<NvmCache> nvm;
            std::unique_ptr<Workload> workload;
        };
        std::vector<Cell> cells;
        const Clock::time_point t0 = Clock::now();
        for (const std::string &name : opts_.workloads) {
            DeviceParams dp;
            dp.num_workers = opts_.num_workers;
            Cell c;
            c.dev = std::make_unique<Device>(dp);
            NvmParams np;
            np.cache_bytes = opts_.nvm_cache_bytes;
            c.nvm = std::make_unique<NvmCache>(c.dev->mem(), np);
            c.dev->attachNvm(c.nvm.get());
            c.workload = makeWorkload(name, opts_.scale);
            c.workload->setup(*c.dev);
            cells.push_back(std::move(c));
        }
        return secondsSince(t0);
    }

    double
    pass(PassResult &out) override
    {
        const Clock::time_point t0 = Clock::now();
        Digest digest;
        std::vector<double> kcycles;
        uint64_t rounds = 0, reexec = 0, true_fails = 0, flagged = 0,
                 torn = 0;
        for (PersistModel model : kCrashModels) {
            CampaignOptions opts = opts_;
            opts.models = {model};
            CampaignResult res;
            {
                obs::TraceSpan span("campaign", "perfbench",
                                    static_cast<uint64_t>(model), "model");
                res = runFaultCampaign(opts);
            }
            if (!res.passed() && out.why.empty())
                out.why = std::string("campaign failed under ") +
                          toString(model);
            for (const CellResult &cell : res.cells) {
                digest.add(cell.golden_stores);
                for (const TrialResult &t : cell.trials) {
                    ++out.attempted;
                    const bool ok = t.converged && t.output_matches_golden &&
                                    t.verify_ok && t.false_passes == 0;
                    out.failed += ok ? 0 : 1;
                    for (uint64_t v :
                         {t.crash_point, t.torn_lines, t.corrupt_blocks,
                          t.flagged_blocks, t.true_fails, t.false_fails,
                          t.false_passes, t.blocks_recovered,
                          t.recovery_rounds, t.crashes_survived,
                          static_cast<uint64_t>(t.validate_cycles),
                          static_cast<uint64_t>(t.recover_cycles),
                          uint64_t{t.converged},
                          uint64_t{t.output_matches_golden},
                          uint64_t{t.verify_ok}})
                        digest.add(v);
                    kcycles.push_back(
                        static_cast<double>(t.validate_cycles +
                                            t.recover_cycles) /
                        1e3);
                    rounds += t.recovery_rounds;
                    reexec += t.blocks_recovered;
                    true_fails += t.true_fails;
                    flagged += t.flagged_blocks;
                    torn += t.torn_lines;
                }
            }
        }
        out.digest = digest.value();
        const double trials = static_cast<double>(kcycles.size());
        std::sort(kcycles.begin(), kcycles.end());
        auto quantile = [&](double q) {
            // Nearest-rank quantile: exact and reproducible.
            size_t rank = static_cast<size_t>(std::ceil(q * trials));
            return kcycles[std::clamp<size_t>(rank, 1, kcycles.size()) - 1];
        };
        out.sim.num("crash_trials", trials);
        out.sim.num("recovery_kcycles_p50", quantile(0.50));
        out.sim.num("recovery_kcycles_p95", quantile(0.95));
        out.sim.num("recovery.rounds_per_trial",
                    static_cast<double>(rounds) / trials);
        out.sim.num("recovery.reexec_blocks_per_trial",
                    static_cast<double>(reexec) / trials);
        out.sim.num("recovery.useful_reexec_ratio",
                    flagged ? static_cast<double>(true_fails) /
                                  static_cast<double>(flagged)
                            : 1.0);
        out.sim.num("nvm.torn_lines_per_trial",
                    static_cast<double>(torn) / trials);
        return secondsSince(t0);
    }

  private:
    CampaignOptions opts_;
};

// ---------------------------------------------------------------------------

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    std::string trace_path;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "suite|suite-parallel|kv-zipf|crash-sweep --seed N "
                 "--seconds S [--trace PATH]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage();
        const std::string flag = argv[i];
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0')
                usage();
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(o.seconds > 0.0) ||
                o.seconds > 600.0)
                usage();
        } else if (flag == "--trace") {
            o.trace_path = value;
        } else {
            usage();
        }
    }
    return o;
}

std::unique_ptr<Bench>
makeBench(const Options &o)
{
    if (o.workload == "suite")
        return std::make_unique<SuiteBench>(1);
    if (o.workload == "suite-parallel") {
        const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
        return std::make_unique<SuiteBench>(std::min(kParallelWorkers, hw));
    }
    if (o.workload == "kv-zipf")
        return std::make_unique<KvBench>(o.seed);
    if (o.workload == "crash-sweep")
        return std::make_unique<CrashBench>(o.seed);
    usage();
}

/** Counter deltas per pass over one timed section. */
JsonObject
countersPerPass(const obs::CountersSnapshot &before,
                const obs::CountersSnapshot &after, size_t passes)
{
    JsonObject o;
    for (size_t c = 0; c < obs::kNumCounters; ++c) {
        const uint64_t delta = after.counters[c] - before.counters[c];
        o.num(obs::name(static_cast<obs::Ctr>(c)),
              static_cast<double>(delta) / static_cast<double>(passes));
    }
    return o;
}

/** Fold one pass's checks into @p checks. */
void
foldChecks(const PassResult &r, PassResult &checks)
{
    checks.attempted += r.attempted;
    checks.failed += r.failed;
    if (checks.why.empty())
        checks.why = r.why;
}

/**
 * Pass repeatedly for @p seconds, checking every pass against the
 * warm-up pass @p first and sampling set-ups between passes; returns
 * the number of passes.
 */
size_t
timedSection(Bench &bench, double seconds, const PassResult &first,
             std::vector<double> &pass_s, std::vector<double> &setup_s,
             PassResult &checks)
{
    obs::TraceSpan span("timed", "perfbench");
    const Clock::time_point t0 = Clock::now();
    size_t passes = 0;
    do {
        PassResult r;
        {
            obs::TraceSpan pass_span("pass", "perfbench");
            pass_s.push_back(bench.pass(r));
        }
        foldChecks(r, checks);
        if (r.digest != first.digest) {
            ++checks.failed;
            if (checks.why.empty())
                checks.why = "simulated results changed between passes";
        }
        ++passes;
        for (int i = 0; i < kSetupsPerPass; ++i) {
            obs::TraceSpan setup_span("setup", "perfbench");
            setup_s.push_back(bench.setup(false));
        }
    } while (secondsSince(t0) < seconds);
    return passes;
}

/**
 * Peak resident set of this process in MiB. VmHWM, unlike getrusage's
 * ru_maxrss, starts afresh at exec, so it excludes the parent's size.
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    std::unique_ptr<Bench> bench = makeBench(opts);
    obs::setCountersEnabled(true);

    for (int i = 0; i < kSetupWarmups; ++i)
        bench->setup(false);
    std::vector<double> setup_s = {bench->setup(true)};

    const bool traced = !opts.trace_path.empty();
    const double untraced_seconds = traced ? opts.seconds / 2 : opts.seconds;
    PassResult first, checks;
    bench->pass(first);
    foldChecks(first, checks);
    std::vector<double> pass_s, traced_pass_s;

    const obs::CountersSnapshot before = obs::snapshotCounters();
    const size_t passes = timedSection(*bench, untraced_seconds, first,
                                       pass_s, setup_s, checks);
    const obs::CountersSnapshot after = obs::snapshotCounters();

    size_t traced_passes = 0;
    if (traced) {
        obs::enableTrace(opts.trace_path);
        traced_passes = timedSection(*bench, opts.seconds / 2, first,
                                     traced_pass_s, setup_s, checks);
        if (!obs::flushTrace())
            return 1;
        obs::disableTrace();
    }

    setup_s.insert(setup_s.end(), bench->setup_samples.begin(),
                   bench->setup_samples.end());

    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64,
                  first.digest);
    JsonObject out;
    out.str("workload", opts.workload);
    out.str("seed", std::to_string(opts.seed));
    out.num("workers", bench->workers());
    out.str("digest", digest_hex);
    out.num("attempted", static_cast<double>(checks.attempted));
    out.num("failed", static_cast<double>(checks.failed));
    out.str("why", checks.why);
    out.num("peak_rss_mib", peakRssMib());
    out.nums("setup_s", setup_s);
    out.nums("pass_s", pass_s);
    out.nums("traced_pass_s", traced_pass_s);
    out.num("traced_passes", static_cast<double>(traced_passes));
    out.object("counters_per_pass", countersPerPass(before, after, passes));
    out.object("sim", first.sim);
    JsonObject labels;
    for (size_t i = 0; i < bench->labels.size(); ++i)
        labels.str(std::to_string(i), bench->labels[i]);
    out.object("labels", labels);
    std::printf("%s\n", out.text().c_str());
    return 0;
}
