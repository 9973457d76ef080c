/**
 * @file
 * The JSON writer and the reports built on it: strings and non-finite
 * doubles parse back as written, the layout rules hold, and an
 * exploration, a kill-9 harness run and a serve() report, each built
 * by hand (no fork, no launch), parse back to the values they hold.
 */

#include <bit>
#include <limits>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "analysis/explorer.h"
#include "harness/crashharness.h"
#include "service/server.h"
#include "test_json.h"

namespace gpulp {
namespace {

TEST(JsonTest, StringsAndNonFiniteDoublesParseBackAsWritten)
{
    const std::string strings[] = {
        "say \"hi\"", "back\\slash", "two\nlines", std::string("\x01", 1),
        "tab\tcr\rff\fbs\b", "caf\xc3\xa9", ""};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::string text = jsonOf([&](JsonWriter &w) {
        w.beginObject();
        w.beginArray("strings");
        for (const std::string &s : strings)
            w.value(s);
        w.end();
        w.member(strings[0], 1); // keys are escaped too
        w.member("nan", nan);
        w.member("inf", inf);
        w.member("-inf", -inf);
        w.member("tenth", 0.1);
        w.member("big", 1e300);
        w.member("u64_max", std::numeric_limits<uint64_t>::max());
        w.member("i64_min", std::numeric_limits<int64_t>::min());
        w.member("yes", true);
        w.end();
    });

    Json doc;
    ASSERT_TRUE(parseJson(text, &doc)) << text;
    ASSERT_EQ(doc["strings"].items.size(), std::size(strings));
    for (size_t i = 0; i < std::size(strings); ++i)
        EXPECT_EQ(doc["strings"][i].text, strings[i]) << i;
    EXPECT_EQ(doc[strings[0]].u64(), 1u);
    for (const char *key : {"nan", "inf", "-inf"}) {
        EXPECT_TRUE(doc.has(key)) << key;
        EXPECT_EQ(doc[key].kind, Json::Null) << key;
    }
    // Shortest round-trip form: every double reads back exactly.
    EXPECT_EQ(doc["tenth"].text, "0.1");
    EXPECT_EQ(doc["big"].number, 1e300);
    EXPECT_EQ(doc["u64_max"].text, "18446744073709551615");
    EXPECT_EQ(doc["i64_min"].text, "-9223372036854775808");
    EXPECT_EQ(doc["yes"].kind, Json::Bool);
    EXPECT_TRUE(doc["yes"].boolean);
}

TEST(JsonTest, OneLineContainersAndTopLevelValuesKeepTheirLines)
{
    const std::string doc = jsonOf([](JsonWriter &w) {
        w.beginObject();
        w.member("a", 1);
        w.beginArray("b", JsonWriter::kOneLine);
        w.value(2);
        w.beginObject(); // nested in a one-line array: stays inline
        w.member("c", "d");
        w.end();
        w.end();
        w.beginObject("e");
        w.end();
        w.end();
    });
    EXPECT_EQ(doc, "{\n  \"a\": 1,\n  \"b\": [2, {\"c\": \"d\"}],\n"
                   "  \"e\": {}\n}\n");

    // Each top-level value ends its line: a JSONL stream.
    const std::string jsonl = jsonOf([](JsonWriter &w) {
        for (int i = 0; i < 2; ++i) {
            w.beginObject(JsonWriter::kOneLine);
            w.member("i", i);
            w.end();
        }
    });
    EXPECT_EQ(jsonl, "{\"i\": 0}\n{\"i\": 1}\n");
}

TEST(ReportJsonTest, ExplorationReportParsesBack)
{
    ExplorerResult result;
    result.options.workloads = {"tmm", "spmv"};
    result.options.min_distinct_per_workload = 2;
    result.workers = 1;
    ExplorerCellResult tmm;
    tmm.workload = "tmm";
    tmm.policy = PolicyKind::DporLite;
    tmm.runs = 5;
    tmm.distinct = 3;
    tmm.crash_trials = 8;
    tmm.signatures = {1, 2, 3};
    ExplorerCellResult spmv;
    spmv.workload = "spmv";
    spmv.runs = 4;
    spmv.signatures = {7};
    spmv.violations = {"schedule 3: output differs at \"block\" 2\n",
                       "novel race\\x"};
    result.cells = {tmm, spmv};
    result.counters.counters[static_cast<size_t>(obs::Ctr::SimBlocks)] = 9;

    const std::string text = jsonOf(
        [&](JsonWriter &w) { writeExplorationJson(w, result); });
    Json doc;
    ASSERT_TRUE(parseJson(text, &doc)) << text;
    EXPECT_EQ(doc["campaign"].text, "schedule_exploration");
    EXPECT_EQ(doc["scale"].number, result.options.scale);
    EXPECT_EQ(doc["seed"].u64(), result.options.seed);
    EXPECT_EQ(doc["min_distinct_per_workload"].u64(), 2u);
    EXPECT_FALSE(doc["passed"].boolean);
    ASSERT_EQ(doc["workload_coverage"].items.size(), 2u);
    EXPECT_EQ(doc["workload_coverage"][0]["workload"].text, "tmm");
    EXPECT_EQ(doc["workload_coverage"][0]["distinct_interleavings"].u64(),
              3u);
    EXPECT_EQ(doc["workload_coverage"][1]["distinct_interleavings"].u64(),
              1u);
    const Json &cells = doc["cells"];
    ASSERT_EQ(cells.items.size(), 2u);
    EXPECT_EQ(cells[0]["policy"].text, "dpor");
    EXPECT_EQ(cells[0]["crash_trials"].u64(), 8u);
    EXPECT_EQ(cells[0]["verdict"].text, "pass");
    EXPECT_EQ(cells[0]["violations"].kind, Json::Array);
    EXPECT_TRUE(cells[0]["violations"].items.empty());
    EXPECT_EQ(cells[1]["verdict"].text, "FAIL");
    ASSERT_EQ(cells[1]["violations"].items.size(), 2u);
    EXPECT_EQ(cells[1]["violations"][0].text, spmv.violations[0]);
    EXPECT_EQ(cells[1]["violations"][1].text, spmv.violations[1]);
    EXPECT_EQ(doc["counters"]["sim.blocks"].u64(), 9u);
}

TEST(ReportJsonTest, CrashHarnessRunParsesBack)
{
    CrashHarnessResult result;
    result.options.workload = "mri-q";
    result.options.file_device = false;
    result.options.table = TableKind::Cuckoo;
    result.options.scale = 0.004;
    result.num_blocks = 12;
    result.golden_stores = 480;
    CrashTrialResult t;
    t.crash_point = 17;
    t.corrupt_blocks = 3;
    t.flagged_blocks = 4;
    t.true_fails = 3;
    t.false_fails = 1;
    t.recovery_rounds = 2;
    t.validate_cycles = 1234567890123ull;
    t.converged = true;
    t.output_matches_golden = true;
    t.verify_ok = true;
    t.killed_by_sigkill = true;
    t.entries_replayed = 55;
    t.crc_rejected = 1;
    result.trials = {t, CrashTrialResult{}};

    const std::string text = jsonOf(
        [&](JsonWriter &w) { writeCrashHarnessJson(w, result); });
    Json doc;
    ASSERT_TRUE(parseJson(text, &doc)) << text;
    EXPECT_EQ(doc["workload"].text, "mri-q");
    EXPECT_EQ(doc["device"].text, "mem");
    EXPECT_EQ(doc["table"].text, toString(TableKind::Cuckoo));
    EXPECT_EQ(doc["scale"].number, 0.004);
    EXPECT_EQ(doc["num_blocks"].u64(), 12u);
    EXPECT_EQ(doc["golden_stores"].u64(), 480u);
    EXPECT_FALSE(doc["passed"].boolean); // the second trial was not killed
    ASSERT_EQ(doc["trials"].items.size(), 2u);

    // Every trial field, in report order, then the kill's own fields.
    const Json &got = doc["trials"][0];
    size_t i = 0;
    forEachTrialField(t, [&](const char *key, const auto &v) {
        ASSERT_LT(i, got.members.size());
        EXPECT_EQ(got.members[i].first, key);
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, bool>)
            EXPECT_EQ(got.members[i].second.boolean, v) << key;
        else
            EXPECT_EQ(got.members[i].second.u64(), v) << key;
        ++i;
    });
    EXPECT_EQ(got.members.size(), i + 5);
    EXPECT_TRUE(got["sigkilled"].boolean);
    EXPECT_EQ(got["log_bytes_at_death"].u64(), 0u);
    EXPECT_EQ(got["entries_replayed"].u64(), 55u);
    EXPECT_EQ(got["torn_tail_bytes"].u64(), 0u);
    EXPECT_EQ(got["crc_rejected"].u64(), 1u);
    EXPECT_FALSE(doc["trials"][1]["sigkilled"].boolean);
}

TEST(ReportJsonTest, ServeReportParsesBack)
{
    service::KvServerOptions opts;
    opts.zipf_theta = 0.99;
    opts.mix = {60, 30, 10};
    opts.seed = 2024;
    service::ServeReport report;
    report.requests_enqueued = 20010;
    report.requests_acked = 20000;
    report.batches_served = 11;
    report.total_cycles = report.device_busy_cycles = 987654321;
    report.latency.count = 4;
    report.latency.sum = 10;
    report.latency.min = 1;
    report.latency.max = 4;
    for (uint64_t v : {1, 2, 3, 4})
        ++report.latency.buckets[std::bit_width(v)];
    service::CrashEvent ev;
    ev.store_point = 321;
    ev.availability_gap = 4500;
    ev.converged = true;
    report.crashes = {ev};
    report.audit_ok = true;
    obs::CountersSnapshot counters;
    counters.counters[static_cast<size_t>(obs::Ctr::NvmDirtyEvictions)] = 5;

    const std::string text = jsonOf([&](JsonWriter &w) {
        service::writeServeReportJson(w, report, opts, 20000, 3, counters);
    });
    Json doc;
    ASSERT_TRUE(parseJson(text, &doc)) << text;
    const Json &cfg = doc["config"];
    EXPECT_EQ(cfg["ops"].u64(), 20000u);
    EXPECT_EQ(cfg["zipf_theta"].number, 0.99);
    EXPECT_EQ(cfg["mix"].text, "60/30/10");
    EXPECT_EQ(cfg["crash_points"].u64(), 3u);
    EXPECT_EQ(cfg["seed"].u64(), 2024u);
    EXPECT_EQ(cfg["buckets"].u64(), opts.buckets);
    EXPECT_EQ(doc["requests_acked"].u64(), 20000u);
    EXPECT_EQ(doc["batches_served"].u64(), 11u);
    EXPECT_EQ(doc["total_cycles"].u64(), 987654321u);
    EXPECT_EQ(doc["device_busy_cycles"].u64(), 987654321u);
    const Json &lat = doc["latency"];
    EXPECT_EQ(lat["count"].u64(), 4u);
    EXPECT_EQ(lat["mean"].number, report.latency.mean());
    EXPECT_EQ(lat["p50"].number, report.latency.percentile(0.50));
    EXPECT_EQ(lat["p999"].number, report.latency.percentile(0.999));
    EXPECT_EQ(lat["max"].u64(), 4u);
    ASSERT_EQ(doc["crashes"].items.size(), 1u);
    EXPECT_EQ(doc["crashes"][0]["store_point"].u64(), 321u);
    EXPECT_EQ(doc["crashes"][0]["availability_gap"].u64(), 4500u);
    EXPECT_TRUE(doc["crashes"][0]["converged"].boolean);
    EXPECT_EQ(doc["acked_lost"].u64(), 0u);
    EXPECT_TRUE(doc["audit_ok"].boolean);
    EXPECT_EQ(doc["counters"]["nvm.dirty_evictions"].u64(), 5u);
}

} // namespace
} // namespace gpulp
