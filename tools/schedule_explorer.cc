/**
 * @file
 * Adversarial schedule-exploration driver.
 *
 * Sweeps (workload x schedule-policy) cells, exploring many distinct
 * fiber interleavings of each workload's kernel under the pluggable
 * scheduler (src/analysis/explorer.h): seeded random permutation of
 * every resume pick, and DPOR-lite backtracking at conflicting
 * decision points. Every explored interleaving must complete, verify
 * against the host reference, reproduce the deterministic golden
 * output bytes, and expose no interleaving race the happens-before
 * analyzer did not already flag on the deterministic baseline.
 * Optionally each cell also crosses explored schedules with
 * crash-at-store injection and asserts the checksum-protocol
 * invariants (no false-pass, recovery converges to golden durable
 * bytes). Exits non-zero on any violation, novel race, or missed
 * coverage floor, so CI can use it as an ordering-correctness gate.
 *
 * Usage:
 *   schedule_explorer [--scale F] [--seed N] [--schedules N]
 *                     [--workloads a,b,c] [--policies random,dpor]
 *                     [--table quad|cuckoo|array|bucket2opt]
 *                     [--crash-points N] [--crash-schedules N]
 *                     [--workers N] [--min-distinct N]
 *                     [--json PATH] [--trace PATH] [--quiet]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/explorer.h"
#include "harness/driver.h"
#include "obs/counters.h"
#include "obs/trace.h"

using namespace gpulp;

namespace {

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

uint64_t
parseU64(const char *text, const char *what)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        GPULP_FATAL("%s must be a non-negative integer, got '%s'", what,
                    text);
    return v;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--scale F] [--seed N] [--schedules N]\n"
        "          [--workloads a,b,c]\n"
        "          [--policies deterministic,random,dpor]\n"
        "          [--table quad|cuckoo|array|bucket2opt]\n"
        "          [--crash-points N] [--crash-schedules N]\n"
        "          [--workers N] [--min-distinct N]\n"
        "          [--json PATH] [--trace PATH] [--quiet]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    ExplorerOptions opts;
    const char *json_path = nullptr;
    const char *trace_path = nullptr;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                GPULP_FATAL("%s needs a value", flag);
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--scale") == 0) {
            opts.scale = parseScaleOrDie(value("--scale"), "--scale");
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            opts.seed = parseU64(value("--seed"), "--seed");
        } else if (std::strcmp(argv[i], "--schedules") == 0) {
            opts.schedules = static_cast<uint32_t>(
                parseU64(value("--schedules"), "--schedules"));
        } else if (std::strcmp(argv[i], "--workloads") == 0) {
            opts.workloads = splitList(value("--workloads"));
        } else if (std::strcmp(argv[i], "--policies") == 0) {
            opts.policies.clear();
            for (const std::string &p : splitList(value("--policies")))
                opts.policies.push_back(policyKindFromString(p));
        } else if (std::strcmp(argv[i], "--table") == 0) {
            opts.table = tableKindFromString(value("--table"));
        } else if (std::strcmp(argv[i], "--crash-points") == 0) {
            opts.crash_points = static_cast<uint32_t>(
                parseU64(value("--crash-points"), "--crash-points"));
        } else if (std::strcmp(argv[i], "--crash-schedules") == 0) {
            opts.crash_schedules = static_cast<uint32_t>(
                parseU64(value("--crash-schedules"), "--crash-schedules"));
        } else if (std::strcmp(argv[i], "--workers") == 0) {
            opts.num_workers = static_cast<uint32_t>(
                parseU64(value("--workers"), "--workers"));
        } else if (std::strcmp(argv[i], "--min-distinct") == 0) {
            opts.min_distinct_per_workload = static_cast<uint32_t>(
                parseU64(value("--min-distinct"), "--min-distinct"));
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json_path = value("--json");
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            trace_path = value("--trace");
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }

    obs::setCountersEnabled(true);
    obs::initFromEnvOnce();
    if (trace_path != nullptr)
        obs::enableTrace(trace_path);

    ExplorerResult result = runScheduleExploration(opts);

    if (!quiet) {
        std::printf("=== schedule exploration: scale %.4f, seed %llu, "
                    "%u schedules/cell, workers %u ===\n",
                    opts.scale,
                    static_cast<unsigned long long>(opts.seed),
                    opts.schedules, result.workers);
        for (const ExplorerCellResult &cell : result.cells) {
            std::printf(
                "%-14s %-13s %4llu runs  %4llu distinct  "
                "%4llu races  %3llu novel  %4llu backtracks  "
                "%3llu crash-trials  %llu false-pass  %s\n",
                cell.workload.c_str(), toString(cell.policy),
                static_cast<unsigned long long>(cell.runs),
                static_cast<unsigned long long>(cell.distinct),
                static_cast<unsigned long long>(cell.races_flagged),
                static_cast<unsigned long long>(cell.novel_races),
                static_cast<unsigned long long>(cell.backtracks),
                static_cast<unsigned long long>(cell.crash_trials),
                static_cast<unsigned long long>(cell.false_passes),
                cell.passed() ? "pass" : "FAIL");
            for (const std::string &v : cell.violations)
                std::printf("    ! %s\n", v.c_str());
        }
        for (const auto &[name, distinct] : result.workloadDistinct()) {
            std::printf("coverage: %-14s %llu distinct interleavings%s\n",
                        name.c_str(),
                        static_cast<unsigned long long>(distinct),
                        opts.min_distinct_per_workload > 0 &&
                                distinct < opts.min_distinct_per_workload
                            ? "  (BELOW FLOOR)"
                            : "");
        }
        std::printf("exploration verdict: %s\n",
                    result.passed() ? "PASS" : "FAIL");
    }

    if (obs::traceEnabled() && obs::flushTrace() && !quiet)
        std::printf("wrote Chrome trace %s (+.jsonl)\n",
                    obs::tracePath().c_str());
    if (json_path) {
        std::FILE *f = std::fopen(json_path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n", json_path);
            return 1;
        }
        writeExplorationJson(result, f);
        std::fclose(f);
        if (!quiet)
            std::printf("wrote %s\n", json_path);
    }

    return result.passed() ? 0 : 1;
}
