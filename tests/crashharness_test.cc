/**
 * @file
 * End-to-end smoke tests for the kill-9 crash harness: a victim
 * process genuinely dies by SIGKILL mid-store and a fresh process
 * recovers the workload — from the persist log on the file device,
 * from re-setup state on the in-memory device. Plus a corruption sweep
 * over the two files that carry results between those processes.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/crashharness.h"
#include "test_files.h"

namespace gpulp {
namespace {

CrashHarnessOptions
smokeOptions()
{
    CrashHarnessOptions opts;
    opts.workload = "tmm";
    opts.scale = 0.004;
    opts.grid_points = 2;
    opts.random_points = 1;
    opts.num_workers = 1;
    return opts;
}

TEST(CrashHarnessTest, FileDeviceSurvivesRealSigkill)
{
    CrashHarnessOptions opts = smokeOptions();
    opts.file_device = true;
    CrashHarnessResult r = runCrashHarness(opts);
    ASSERT_EQ(r.trials.size(), 3u);
    uint64_t replayed = 0;
    for (const CrashTrialResult &t : r.trials) {
        EXPECT_TRUE(t.killed_by_sigkill)
            << "victim at store " << t.crash_point
            << " did not die by SIGKILL";
        EXPECT_EQ(t.false_passes, 0u);
        EXPECT_TRUE(t.converged);
        EXPECT_TRUE(t.output_matches_golden);
        EXPECT_TRUE(t.verify_ok);
        EXPECT_GT(t.log_bytes_at_death, 0u);
        replayed += t.entries_replayed;
    }
    // The log must have fed recovery something: at minimum the durable
    // pre-kernel baseline image.
    EXPECT_GT(replayed, 0u);
    EXPECT_TRUE(r.passed());
}

TEST(CrashHarnessTest, MemDeviceLosesEverythingButStillRecovers)
{
    CrashHarnessOptions opts = smokeOptions();
    opts.file_device = false;
    CrashHarnessResult r = runCrashHarness(opts);
    ASSERT_EQ(r.trials.size(), 3u);
    for (const CrashTrialResult &t : r.trials) {
        EXPECT_TRUE(t.killed_by_sigkill);
        // Total loss: every block's work is gone, validation must
        // flag all of them and recovery re-executes the whole grid.
        EXPECT_EQ(t.corrupt_blocks, r.num_blocks);
        EXPECT_EQ(t.false_passes, 0u);
        EXPECT_EQ(t.entries_replayed, 0u);
        EXPECT_TRUE(t.converged);
        EXPECT_TRUE(t.output_matches_golden);
        EXPECT_TRUE(t.verify_ok);
    }
    EXPECT_TRUE(r.passed());
}

TEST(CrashHarnessTest, DeterministicAcrossRuns)
{
    CrashHarnessOptions opts = smokeOptions();
    opts.grid_points = 1;
    opts.random_points = 1;
    CrashHarnessResult a = runCrashHarness(opts);
    CrashHarnessResult b = runCrashHarness(opts);
    EXPECT_EQ(a.trials.size(), 2u);
    EXPECT_EQ(a.golden_stores, b.golden_stores);
    EXPECT_EQ(a.trials, b.trials);
}

// ---------------------------------------------------------------------
// Hand-off readers under truncation and bit flips
// ---------------------------------------------------------------------

TEST(CrashHarnessTest, HandOffReadersRejectOrReadBackEveryCorruption)
{
    // Each reader must reject a damaged file or return records of the
    // expected shape that write back to exactly the bytes it read.
    const std::string path = ::testing::TempDir() + "gpulp_handoff.bin";
    const std::vector<size_t> shape = {3, 5, 1};
    ASSERT_TRUE(writeGoldenFile(path, {{1, 2, 3}, {4, 5, 6, 7, 8}, {9}}));
    for (const std::string &bad : corruptionsOf(slurp(path))) {
        std::ofstream(path, std::ios::binary) << bad;
        std::vector<std::vector<uint8_t>> golden;
        if (!readGoldenFile(path, shape, &golden))
            continue;
        std::vector<size_t> got;
        for (const std::vector<uint8_t> &block : golden)
            got.push_back(block.size());
        EXPECT_EQ(got, shape);
        ASSERT_TRUE(writeGoldenFile(path, golden));
        EXPECT_EQ(slurp(path), bad);
    }

    CrashTrialResult trial;
    trial.crash_point = 1428;
    trial.corrupt_blocks = 64;
    trial.recover_cycles = 24534;
    trial.converged = true;
    trial.entries_replayed = 128;
    ASSERT_TRUE(writeTrialFile(path, trial));
    for (const std::string &bad : corruptionsOf(slurp(path))) {
        std::ofstream(path, std::ios::binary) << bad;
        CrashTrialResult read;
        if (!readTrialFile(path, &read)) {
            EXPECT_EQ(read, CrashTrialResult{}) << "rejected, yet changed";
            continue;
        }
        ASSERT_TRUE(writeTrialFile(path, read));
        EXPECT_EQ(slurp(path), bad);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace gpulp
