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
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/crashharness.h"
#include "harness/driver.h"

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
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                GPULP_FATAL("%s needs a value", flag);
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--workloads") == 0) {
            workloads = splitList(value("--workloads"));
        } else if (std::strcmp(argv[i], "--device") == 0) {
            std::string dev = value("--device");
            if (dev == "mem")
                base.file_device = false;
            else if (dev == "file")
                base.file_device = true;
            else
                GPULP_FATAL("unknown device '%s' (want mem or file)",
                            dev.c_str());
        } else if (std::strcmp(argv[i], "--scale") == 0) {
            base.scale = parseScaleOrDie(value("--scale"), "--scale");
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            base.seed = parseU64(value("--seed"), "--seed");
        } else if (std::strcmp(argv[i], "--grid") == 0) {
            base.grid_points =
                static_cast<uint32_t>(parseU64(value("--grid"), "--grid"));
        } else if (std::strcmp(argv[i], "--random") == 0) {
            base.random_points = static_cast<uint32_t>(
                parseU64(value("--random"), "--random"));
        } else if (std::strcmp(argv[i], "--workers") == 0) {
            base.num_workers = static_cast<uint32_t>(
                parseU64(value("--workers"), "--workers"));
        } else if (std::strcmp(argv[i], "--table") == 0) {
            base.table = tableKindFromString(value("--table"));
        } else if (std::strcmp(argv[i], "--checksum") == 0) {
            base.checksum = checksumKindFromString(value("--checksum"));
        } else if (std::strcmp(argv[i], "--batch") == 0) {
            base.log_batch_bytes =
                static_cast<size_t>(parseU64(value("--batch"), "--batch"));
        } else if (std::strcmp(argv[i], "--log") == 0) {
            base.log_path = value("--log");
        } else if (std::strcmp(argv[i], "--work-dir") == 0) {
            base.work_dir = value("--work-dir");
        } else if (std::strcmp(argv[i], "--keep-files") == 0) {
            base.keep_files = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json_path = value("--json");
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

    if (json_path) {
        std::FILE *f = std::fopen(json_path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n", json_path);
            return 1;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"harness\": \"kill9_crash_recovery\",\n");
        std::fprintf(f, "  \"passed\": %s,\n",
                     all_passed ? "true" : "false");
        std::fprintf(f, "  \"runs\": [\n");
        for (size_t i = 0; i < results.size(); ++i) {
            writeCrashHarnessJson(results[i], f);
            std::fprintf(f, "%s\n", i + 1 < results.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        if (!quiet)
            std::printf("wrote %s\n", json_path);
    }

    return all_passed ? 0 : 1;
}
