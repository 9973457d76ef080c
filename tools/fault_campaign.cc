/**
 * @file
 * Crash-consistency fault-injection campaign driver.
 *
 * Sweeps injected crash points across (workload x checksum-store x
 * checksum-kind) cells, classifies every thread block of every trial
 * as true-fail / false-fail / false-pass against a golden crash-free
 * run, and re-checks that the recovered output is byte-identical and
 * durable. Exits non-zero on any false-pass (silent corruption), any
 * recovered-output mismatch, or any non-converging recovery, so CI can
 * use it as a correctness gate.
 *
 * Usage:
 *   fault_campaign [--scale F] [--seed N] [--grid N] [--random N]
 *                  [--workers N] [--workloads a,b,c]
 *                  [--models lazy,eager,strict,epoch-block,epoch-kernel]
 *                  [--tables quad,cuckoo,array,bucket2opt]
 *                  [--checksums modular,parity,both]
 *                  [--json PATH] [--trace PATH] [--quiet]
 *
 * Counters are collected by default (GPULP_COUNTERS=0 vetoes) and the
 * whole-campaign totals are embedded in the --json report under
 * "counters"; --trace additionally records a Chrome trace of every
 * launch, validate/recover round and crash (see obs/trace.h).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/json.h"
#include "harness/driver.h"
#include "harness/faultcampaign.h"
#include "obs/counters.h"
#include "obs/trace.h"

using namespace gpulp;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--scale F] [--seed N] [--grid N] [--random N]\n"
        "          [--workers N] [--workloads a,b,c]\n"
        "          [--models lazy,eager,strict,epoch-block,"
        "epoch-kernel]\n"
        "          [--tables quad,cuckoo,array,bucket2opt]\n"
        "          [--checksums modular,parity,both]\n"
        "          [--json PATH] [--trace PATH] [--quiet]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignOptions opts;
    const char *json_path = nullptr;
    const char *trace_path = nullptr;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        auto value = [&] { return flagValue(argc, argv, i); };
        if (std::strcmp(argv[i], "--scale") == 0) {
            opts.scale = parseScaleOrDie(value(), "--scale");
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            opts.seed = parseUintOrDie<uint64_t>(value(), "--seed");
        } else if (std::strcmp(argv[i], "--grid") == 0) {
            opts.grid_points = parseUintOrDie<uint32_t>(value(), "--grid");
        } else if (std::strcmp(argv[i], "--random") == 0) {
            opts.random_points = parseUintOrDie<uint32_t>(value(), "--random");
        } else if (std::strcmp(argv[i], "--workers") == 0) {
            opts.num_workers = parseWorkersOrDie(value(), "--workers");
        } else if (std::strcmp(argv[i], "--workloads") == 0) {
            opts.workloads = splitList(value());
        } else if (std::strcmp(argv[i], "--models") == 0) {
            opts.models.clear();
            for (const std::string &m : splitList(value()))
                opts.models.push_back(persistModelFromString(m));
        } else if (std::strcmp(argv[i], "--tables") == 0) {
            opts.tables.clear();
            for (const std::string &t : splitList(value()))
                opts.tables.push_back(tableKindFromString(t));
        } else if (std::strcmp(argv[i], "--checksums") == 0) {
            opts.checksums.clear();
            for (const std::string &k : splitList(value()))
                opts.checksums.push_back(checksumKindFromString(k));
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

    // The campaign is a measurement tool: counters default ON (the
    // library default is OFF); GPULP_COUNTERS=0 / GPULP_TRACE apply.
    obs::setCountersEnabled(true);
    obs::initFromEnvOnce();
    if (trace_path != nullptr)
        obs::enableTrace(trace_path);

    CampaignResult result = runFaultCampaign(opts);

    if (!quiet) {
        std::printf("=== fault campaign: scale %.4f, seed %llu, "
                    "%u grid + %u random points, workers %u ===\n",
                    opts.scale,
                    static_cast<unsigned long long>(opts.seed),
                    opts.grid_points, opts.random_points, result.workers);
        for (const CellResult &cell : result.cells) {
            uint64_t torn = 0, corrupt = 0, recovered = 0, ffails = 0;
            for (const TrialResult &t : cell.trials) {
                torn += t.torn_lines;
                corrupt += t.corrupt_blocks;
                recovered += t.blocks_recovered;
                ffails += t.false_fails;
            }
            std::printf(
                "%-14s %-12s %-7s %-8s %3zu points  %5llu corrupt  "
                "%5llu recovered  %4llu torn  %3llu false-fail  "
                "%llu false-pass  %s\n",
                cell.workload.c_str(), toString(cell.model),
                toString(cell.table),
                toString(cell.checksum), cell.trials.size(),
                static_cast<unsigned long long>(corrupt),
                static_cast<unsigned long long>(recovered),
                static_cast<unsigned long long>(torn),
                static_cast<unsigned long long>(ffails),
                static_cast<unsigned long long>(cell.falsePasses()),
                cell.passed() ? "pass" : "FAIL");
        }
        std::printf("campaign verdict: %s\n",
                    result.passed() ? "PASS" : "FAIL");
    }

    if (obs::traceEnabled() && obs::flushTrace() && !quiet)
        std::printf("wrote Chrome trace %s (+.jsonl)\n",
                    obs::tracePath().c_str());
    const auto write = [&](JsonWriter &w) { writeCampaignJson(w, result); };
    if (!writeJsonFile(json_path, write, quiet))
        return 1;

    return result.passed() ? 0 : 1;
}
