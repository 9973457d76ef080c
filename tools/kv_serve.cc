/**
 * @file
 * Live-serving MEGA-KV driver: the fault campaign, run against a
 * store that is *serving* when the crash hits.
 *
 * Generates a continuous scrambled-Zipf request stream, keeps the
 * simulated device saturated with back-to-back batches, arms
 * mid-batch crash-at-store latches while requests are in flight,
 * recovers through LP checksums and reports what clients actually
 * experienced: p50/p99/p999 request latency, the availability gap of
 * every crash, and the acknowledged-but-lost count — which must be
 * zero for the run to exit 0, so CI can gate on it.
 *
 * Usage:
 *   kv_serve [--ops N] [--zipf THETA] [--mix I/S/E] [--crash-points N]
 *            [--seed N] [--batch N] [--buckets N] [--keyspace N]
 *            [--checkpoint N] [--workers N] [--json PATH] [--quiet]
 *
 * Counters are collected by default (GPULP_COUNTERS=0 vetoes) and
 * embedded in the --json report under "counters".
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/json.h"
#include "harness/driver.h"
#include "obs/counters.h"
#include "service/server.h"

using namespace gpulp;
using namespace gpulp::service;

namespace {

double
parseTheta(const char *text)
{
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || v < 0.0 || v >= 1.0)
        GPULP_FATAL("--zipf must be in [0, 1), got '%s'", text);
    return v;
}

OpMix
parseMix(const char *text)
{
    OpMix mix;
    unsigned insert = 0, search = 0, erase = 0;
    if (std::sscanf(text, "%u/%u/%u", &insert, &search, &erase) != 3 ||
        insert + search + erase != 100)
        GPULP_FATAL("--mix must be I/S/E percentages summing to 100, "
                    "got '%s'", text);
    mix.insert_pct = insert;
    mix.search_pct = search;
    mix.erase_pct = erase;
    return mix;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--ops N] [--zipf THETA] [--mix I/S/E]\n"
        "          [--crash-points N] [--seed N] [--batch N]\n"
        "          [--buckets N] [--keyspace N] [--checkpoint N]\n"
        "          [--workers N] [--json PATH] [--quiet]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    KvServerOptions opts;
    uint64_t ops = 50000;
    uint32_t crash_points = 0;
    const char *json_path = nullptr;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        auto value = [&] { return flagValue(argc, argv, i); };
        if (std::strcmp(argv[i], "--ops") == 0) {
            ops = parseUintOrDie<uint64_t>(value(), "--ops");
        } else if (std::strcmp(argv[i], "--zipf") == 0) {
            opts.zipf_theta = parseTheta(value());
        } else if (std::strcmp(argv[i], "--mix") == 0) {
            opts.mix = parseMix(value());
        } else if (std::strcmp(argv[i], "--crash-points") == 0) {
            crash_points = parseUintOrDie<uint32_t>(value(), "--crash-points");
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            opts.seed = parseUintOrDie<uint64_t>(value(), "--seed");
        } else if (std::strcmp(argv[i], "--batch") == 0) {
            opts.batch_ops = parseUintOrDie<uint32_t>(value(), "--batch");
        } else if (std::strcmp(argv[i], "--buckets") == 0) {
            opts.buckets = parseUintOrDie<uint32_t>(value(), "--buckets");
        } else if (std::strcmp(argv[i], "--keyspace") == 0) {
            opts.keyspace = parseUintOrDie<uint32_t>(value(), "--keyspace");
        } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
            opts.checkpoint_batches = parseUintOrDie<uint32_t>(
                value(), "--checkpoint");
        } else if (std::strcmp(argv[i], "--workers") == 0) {
            opts.num_workers = parseWorkersOrDie(value(), "--workers");
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json_path = value();
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }

    obs::setCountersEnabled(true);
    obs::initFromEnvOnce();

    KvServer server(opts);
    ServeReport report = server.serve(ops, crash_points);

    if (!quiet) {
        std::printf(
            "=== kv_serve: %" PRIu64 " ops, zipf %.2f, mix %u/%u/%u, "
            "%u crash points, seed %" PRIu64 " ===\n",
            ops, opts.zipf_theta, opts.mix.insert_pct,
            opts.mix.search_pct, opts.mix.erase_pct, crash_points,
            opts.seed);
        std::printf(
            "served   %" PRIu64 " requests in %" PRIu64
            " batches (%" PRIu64 " cycles, device busy %" PRIu64 ")\n",
            report.requests_acked, report.batches_served,
            static_cast<uint64_t>(report.total_cycles),
            static_cast<uint64_t>(report.device_busy_cycles));
        std::printf(
            "latency  p50 %.0f  p99 %.0f  p999 %.0f  max %" PRIu64
            " cycles\n",
            report.latency.percentile(0.50),
            report.latency.percentile(0.99),
            report.latency.percentile(0.999), report.latency.max);
        std::printf(
            "app      %" PRIu64 " insert drops, %" PRIu64
            " search misses, %" PRIu64 " coalesced\n",
            report.insert_drops, report.search_misses,
            report.inserts_coalesced);
        for (const CrashEvent &ev : report.crashes) {
            std::printf(
                "crash    @ store %" PRIu64 ": %" PRIu64
                " torn lines, %" PRIu64 " batches replayed, %" PRIu64
                " blocks re-executed, availability gap %" PRIu64
                " cycles%s\n",
                ev.store_point, ev.torn_lines, ev.batches_replayed,
                ev.blocks_recovered,
                static_cast<uint64_t>(ev.availability_gap),
                ev.converged ? "" : "  [DID NOT CONVERGE]");
        }
        std::printf("audit    %" PRIu64 " acked-but-lost, %" PRIu64
                    " phantom keys, %" PRIu64
                    " resurrected drops -> %s\n",
                    report.acked_lost, report.phantom_keys,
                    report.drops_resurrected,
                    report.audit_ok ? "PASS" : "FAIL");
    }

    const auto write = [&](JsonWriter &w) {
        writeServeReportJson(w, report, opts, ops, crash_points,
                             obs::snapshotCounters());
    };
    if (!writeJsonFile(json_path, write, quiet))
        return 1;

    bool converged = true;
    for (const CrashEvent &ev : report.crashes)
        converged = converged && ev.converged;
    return (report.audit_ok && converged) ? 0 : 1;
}
