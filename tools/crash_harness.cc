/**
 * @file
 * Kill-9 crash-recovery harness driver.
 *
 * Where fault_campaign simulates crashes inside one process, this tool
 * kills for real: per crash point it forks a victim that SIGKILLs
 * itself mid-store, then forks a fresh process that recovers from the
 * file-backed persist log the victim left behind (or from re-setup
 * state on the in-memory device, which the kill annihilates). Blocks
 * are classified true-fail / false-fail / false-pass against a golden
 * run computed in the launching process, so a pass also certifies
 * cross-process determinism. Exits non-zero on any false-pass, any
 * victim that did not die by SIGKILL, or any recovery that failed to
 * converge to the golden bytes — CI uses it as a correctness gate.
 *
 * Usage:
 *   crash_harness [--workloads a,b,c] [--device mem|file] [--scale F]
 *                 [--seed N] [--grid N] [--random N] [--workers N]
 *                 [--table quad|cuckoo|array|bucket2opt]
 *                 [--checksum modular|parity|both]
 *                 [--log PATH] [--work-dir PATH] [--keep-files]
 *                 [--json PATH] [--quiet]
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness/crashharness.h"
#include "harness/driver.h"

using namespace gpulp;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workloads a,b,c] [--device mem|file] [--scale F]\n"
        "          [--seed N] [--grid N] [--random N] [--workers N]\n"
        "          [--table quad|cuckoo|array|bucket2opt]\n"
        "          [--checksum modular|parity|both]\n"
        "          [--batch BYTES] [--log PATH] [--work-dir PATH]\n"
        "          [--keep-files] [--json PATH] [--quiet]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    CrashHarnessOptions base;
    std::vector<std::string> workloads = {"tmm", "spmv", "mri-q"};
    const char *json_path = nullptr;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        auto value = [&] { return flagValue(argc, argv, i); };
        if (std::strcmp(argv[i], "--workloads") == 0) {
            workloads = splitList(value());
        } else if (std::strcmp(argv[i], "--device") == 0) {
            std::string dev = value();
            if (dev == "mem")
                base.file_device = false;
            else if (dev == "file")
                base.file_device = true;
            else
                GPULP_FATAL("unknown device '%s' (want mem or file)",
                            dev.c_str());
        } else if (std::strcmp(argv[i], "--scale") == 0) {
            base.scale = parseScaleOrDie(value(), "--scale");
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            base.seed = parseUintOrDie<uint64_t>(value(), "--seed");
        } else if (std::strcmp(argv[i], "--grid") == 0) {
            base.grid_points = parseUintOrDie<uint32_t>(value(), "--grid");
        } else if (std::strcmp(argv[i], "--random") == 0) {
            base.random_points = parseUintOrDie<uint32_t>(value(), "--random");
        } else if (std::strcmp(argv[i], "--workers") == 0) {
            base.num_workers = parseWorkersOrDie(value(), "--workers");
        } else if (std::strcmp(argv[i], "--table") == 0) {
            base.table = tableKindFromString(value());
        } else if (std::strcmp(argv[i], "--checksum") == 0) {
            base.checksum = checksumKindFromString(value());
        } else if (std::strcmp(argv[i], "--batch") == 0) {
            base.log_batch_bytes = parseUintOrDie<size_t>(value(), "--batch");
        } else if (std::strcmp(argv[i], "--log") == 0) {
            base.log_path = value();
        } else if (std::strcmp(argv[i], "--work-dir") == 0) {
            base.work_dir = value();
        } else if (std::strcmp(argv[i], "--keep-files") == 0) {
            base.keep_files = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json_path = value();
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (workloads.empty())
        GPULP_FATAL("need at least one workload");

    std::vector<CrashHarnessResult> results;
    for (const std::string &name : workloads) {
        CrashHarnessOptions opts = base;
        opts.workload = name;
        results.push_back(runCrashHarness(opts));
    }

    bool all_passed = true;
    for (const CrashHarnessResult &r : results)
        all_passed = all_passed && r.passed();

    if (!quiet) {
        std::printf("=== crash harness: device %s, scale %.4f, seed %llu, "
                    "%u grid + %u random kills, workers %u ===\n",
                    base.file_device ? "file" : "mem", base.scale,
                    static_cast<unsigned long long>(base.seed),
                    base.grid_points, base.random_points,
                    base.num_workers);
        for (const CrashHarnessResult &r : results) {
            uint64_t killed = 0, corrupt = 0, recovered = 0, fpass = 0;
            uint64_t replayed = 0, torn = 0;
            for (const CrashTrialResult &t : r.trials) {
                killed += t.killed_by_sigkill;
                corrupt += t.corrupt_blocks;
                recovered += t.blocks_recovered;
                fpass += t.false_passes;
                replayed += t.entries_replayed;
                torn += t.torn_tail_bytes;
            }
            std::printf(
                "%-14s %3zu kills (%llu sigkilled)  %5llu corrupt  "
                "%5llu recovered  %6llu replayed  %4llu torn-B  "
                "%llu false-pass  %s\n",
                r.options.workload.c_str(), r.trials.size(),
                static_cast<unsigned long long>(killed),
                static_cast<unsigned long long>(corrupt),
                static_cast<unsigned long long>(recovered),
                static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(torn),
                static_cast<unsigned long long>(fpass),
                r.passed() ? "pass" : "FAIL");
        }
        std::printf("harness verdict: %s\n", all_passed ? "PASS" : "FAIL");
    }

    const auto write = [&](JsonWriter &w) {
        w.beginObject();
        w.member("harness", "kill9_crash_recovery");
        w.member("passed", all_passed);
        w.beginArray("runs");
        for (const CrashHarnessResult &r : results)
            writeCrashHarnessJson(w, r);
        w.end();
        w.end();
    };
    if (!writeJsonFile(json_path, write, quiet))
        return 1;

    return all_passed ? 0 : 1;
}
