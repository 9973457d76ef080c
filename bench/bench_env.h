/**
 * @file
 * Shared environment/CLI handling for every bench main.
 *
 * The single entry point benchCli():
 *
 *  - seeds the scale from GPULP_SCALE (benchScaleFromEnv) and lets
 *    --scale override it, both via parseScaleOrDie so a typo dies loudly
 *    instead of degenerating to scale 0;
 *  - accepts --json PATH (machine-readable result file) and
 *    --trace PATH (Chrome trace + JSONL, see obs/trace.h) uniformly;
 *  - arms the observability layer: counters are ON for bench binaries
 *    (they exist to measure) unless GPULP_COUNTERS=0 vetoes, and
 *    GPULP_TRACE also enables tracing for benches with no --trace flag.
 *
 * Benches that accept no flags still call benchCli(name, argc, argv) so
 * stray arguments fail fast with a usage line instead of being ignored.
 */

#ifndef GPULP_BENCH_BENCH_ENV_H
#define GPULP_BENCH_BENCH_ENV_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "common/json.h"
#include "harness/driver.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace gpulp {

/** Parsed common bench options. */
struct BenchCli {
    const char *bench = nullptr;      //!< binary name, used in JSON/usage
    double scale = 1.0;               //!< workload scale in (0, 1]
    const char *json_path = nullptr;  //!< --json PATH or nullptr
    const char *trace_path = nullptr; //!< --trace PATH or nullptr
    const char *view = nullptr;       //!< --view NAME (paper_tables)
    std::chrono::steady_clock::time_point start; //!< set by benchCli()

    /** Wall-clock seconds since benchCli() returned. */
    double
    wallSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }
};

/**
 * Parse the common bench flags and arm observability. Exits with usage
 * on unknown arguments; fatal on malformed --scale / GPULP_SCALE.
 * @p takes_view also accepts paper_tables' --view NAME.
 */
inline BenchCli
benchCli(const char *bench, int argc, char **argv, bool takes_view = false)
{
    BenchCli cli;
    cli.bench = bench;
    cli.scale = benchScaleFromEnv();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
            cli.scale = parseScaleOrDie(argv[++i], "--scale");
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            cli.json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            cli.trace_path = argv[++i];
        } else if (takes_view && std::strcmp(argv[i], "--view") == 0 &&
                   i + 1 < argc) {
            cli.view = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--scale F] [--json PATH] "
                         "[--trace PATH]%s\n",
                         bench, takes_view ? " [--view NAME]" : "");
            std::exit(2);
        }
    }

    // Benches measure things, so counters default ON here (the library
    // default stays OFF); GPULP_COUNTERS=0 still vetoes, GPULP_TRACE
    // still applies, both via the once-per-process env hook.
    obs::setCountersEnabled(true);
    obs::initFromEnvOnce();
    if (cli.trace_path != nullptr)
        obs::enableTrace(cli.trace_path);
    cli.start = std::chrono::steady_clock::now();
    return cli;
}

/**
 * Finish a bench run: flush the trace and write the generic
 * {bench, scale, wall_seconds, counters} object to --json; @p members,
 * when set, writes the bench's own members before the counters.
 */
inline void
benchFinish(const BenchCli &cli,
            const std::function<void(JsonWriter &)> &members = nullptr)
{
    const double wall_seconds = cli.wallSeconds();
    if (obs::traceEnabled() && obs::flushTrace()) {
        std::printf("\nwrote Chrome trace %s (+.jsonl); load it in "
                    "chrome://tracing or https://ui.perfetto.dev\n",
                    obs::tracePath().c_str());
    }
    if (!writeJsonFile(cli.json_path, [&](JsonWriter &w) {
            w.beginObject();
            w.member("bench", cli.bench);
            w.member("scale", cli.scale);
            w.member("wall_seconds", wall_seconds);
            if (members)
                members(w);
            obs::writeCounters(w, obs::snapshotCounters());
            w.end();
        }))
        std::exit(1);
}

} // namespace gpulp

#endif // GPULP_BENCH_BENCH_ENV_H
