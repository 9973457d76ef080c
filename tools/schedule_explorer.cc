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
#include <cstring>
#include <string>

#include "analysis/explorer.h"
#include "common/json.h"
#include "harness/driver.h"
#include "obs/counters.h"
#include "obs/trace.h"

using namespace gpulp;

namespace {

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
        auto value = [&] { return flagValue(argc, argv, i); };
        if (std::strcmp(argv[i], "--scale") == 0) {
            opts.scale = parseScaleOrDie(value(), "--scale");
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            opts.seed = parseUintOrDie<uint64_t>(value(), "--seed");
        } else if (std::strcmp(argv[i], "--schedules") == 0) {
            opts.schedules = parseUintOrDie<uint32_t>(value(), "--schedules");
        } else if (std::strcmp(argv[i], "--workloads") == 0) {
            opts.workloads = splitList(value());
        } else if (std::strcmp(argv[i], "--policies") == 0) {
            opts.policies.clear();
            for (const std::string &p : splitList(value()))
                opts.policies.push_back(policyKindFromString(p));
        } else if (std::strcmp(argv[i], "--table") == 0) {
            opts.table = tableKindFromString(value());
        } else if (std::strcmp(argv[i], "--crash-points") == 0) {
            opts.crash_points = parseUintOrDie<uint32_t>(
                value(), "--crash-points");
        } else if (std::strcmp(argv[i], "--crash-schedules") == 0) {
            opts.crash_schedules = parseUintOrDie<uint32_t>(
                value(), "--crash-schedules");
        } else if (std::strcmp(argv[i], "--workers") == 0) {
            opts.num_workers = parseWorkersOrDie(value(), "--workers");
        } else if (std::strcmp(argv[i], "--min-distinct") == 0) {
            opts.min_distinct_per_workload = parseUintOrDie<uint32_t>(
                value(), "--min-distinct");
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json_path = value();
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            trace_path = value();
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
    const auto write = [&](JsonWriter &w) { writeExplorationJson(w, result); };
    if (!writeJsonFile(json_path, write, quiet))
        return 1;

    return result.passed() ? 0 : 1;
}
