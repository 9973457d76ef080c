/**
 * @file
 * Fault-injection campaign tests, plus the regression tests for the
 * two recovery-correctness bugs the campaign was built to catch: the
 * in-band global-array "unwritten" sentinel (a legal all-ones checksum
 * was indistinguishable from an empty slot) and the signed-zero parity
 * mismatch (-0.0f and +0.0f folded different checksum bits), and for
 * the GPULP_SCALE parse validation.
 */

#include <algorithm>
#include <array>
#include <cstdlib>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/driver.h"
#include "harness/faultcampaign.h"
#include "workloads/workload.h"

namespace gpulp {
namespace {

// ---------------------------------------------------------------------
// Sentinel regression (checksum_store.h kUnwrittenChecksum)
// ---------------------------------------------------------------------

TEST(GlobalArraySentinel, AllOnesChecksumIsALegalPayload)
{
    Device dev;
    GlobalArrayStore store(dev, 8);
    const Checksums worst{kUnwrittenChecksum, kUnwrittenChecksum};
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        store.insert(t, 3, worst);
    });

    Checksums out;
    EXPECT_TRUE(store.lookup(3, &out))
        << "an all-ones checksum must not read back as never-written";
    EXPECT_EQ(out.sum, kUnwrittenChecksum);
    EXPECT_EQ(out.parity, kUnwrittenChecksum);

    // Genuinely unwritten slots still read as absent.
    EXPECT_FALSE(store.lookup(4, &out));
    store.clear();
    EXPECT_FALSE(store.lookup(3, &out));
}

TEST(GlobalArraySentinel, RegionFoldingToAllOnesValidatesClean)
{
    // End-to-end: a region whose recomputed sum AND parity both land
    // on 0xffffffff (one protected 0xffffffff word does it) must
    // validate clean, not be mis-marked as a failed block.
    Device dev;
    LaunchConfig cfg(Dim3(4), Dim3(1));
    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();

    dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        acc.protectU32(t, 0xffffffffu);
        lpCommitRegion(t, ctx, acc);
    });

    RecoverySet failed(dev, cfg.numBlocks());
    dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        acc.protectU32(t, 0xffffffffu);
        if (t.flatThreadIdx() == 0 && !lpValidateRegion(t, ctx, acc))
            failed.markFailed(t, t.blockRank());
    });
    EXPECT_EQ(failed.failedCount(), 0u)
        << "healthy blocks mis-marked failed by the in-band sentinel";
}

TEST(GlobalArraySentinel, FootprintCountsTheValidBytes)
{
    Device dev;
    GlobalArrayStore store(dev, 100);
    EXPECT_EQ(store.footprintBytes(), 100u * 9);
}

// ---------------------------------------------------------------------
// Signed-zero regression (floatbits.h / ChecksumAccum)
// ---------------------------------------------------------------------

TEST(SignedZeroChecksum, BothZerosFoldTheSameBits)
{
    EXPECT_EQ(floatToChecksumBits(-0.0f), floatToChecksumBits(0.0f));
    EXPECT_EQ(doubleToChecksumBits(-0.0), doubleToChecksumBits(0.0));

    // Transport conversions stay raw: the sign bit is still visible...
    EXPECT_EQ(floatToOrderedInt(-0.0f), 0x80000000u);
    EXPECT_EQ(floatSignBit(-0.0f), 1u);
    // ...and the Fig. 2 paper anchor is untouched.
    EXPECT_EQ(floatToOrderedInt(3.5f), 1080033280u);
    EXPECT_EQ(floatToChecksumBits(3.5f), 1080033280u);

    // NaN payloads fold verbatim (distinct NaNs stay distinguishable).
    EXPECT_EQ(floatToChecksumBits(orderedIntToFloat(0x7fc00001u)),
              0x7fc00001u);

    const float pos[] = {0.0f, 1.5f};
    const float neg[] = {-0.0f, 1.5f};
    EXPECT_EQ(hostChecksumFloats(pos, ChecksumKind::ModularParity),
              hostChecksumFloats(neg, ChecksumKind::ModularParity));
}

TEST(SignedZeroChecksum, ValidationAcceptsTheOtherZero)
{
    // The failure mode in the wild: the original run commits -0.0f, a
    // recovery re-execution (or revalidation from memory) legitimately
    // sees +0.0f. The checksums must agree.
    Device dev;
    LaunchConfig cfg(Dim3(2), Dim3(1));
    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();
    auto out = ArrayRef<float>::allocate(dev.mem(), cfg.numBlocks());

    dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        float v = t.blockRank() == 0 ? -0.0f : 1.5f;
        t.store(out, t.blockRank(), v);
        acc.protectFloat(t, v);
        lpCommitRegion(t, ctx, acc);
    });

    // The numerically identical other zero lands in memory.
    out.hostAt(0) = 0.0f;

    RecoverySet failed(dev, cfg.numBlocks());
    dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        acc.protectFloat(t, t.load(out, t.blockRank()));
        if (t.flatThreadIdx() == 0 && !lpValidateRegion(t, ctx, acc))
            failed.markFailed(t, t.blockRank());
    });
    EXPECT_EQ(failed.failedCount(), 0u)
        << "-0.0 vs +0.0 must not fail validation";
}

// ---------------------------------------------------------------------
// GPULP_SCALE parse validation
// ---------------------------------------------------------------------

TEST(ScaleParse, AcceptsWellFormedValues)
{
    EXPECT_DOUBLE_EQ(parseScaleOrDie("0.25", "--scale"), 0.25);
    EXPECT_DOUBLE_EQ(parseScaleOrDie("1", "--scale"), 1.0);
    EXPECT_DOUBLE_EQ(parseScaleOrDie("1e-3", "--scale"), 0.001);
}

TEST(ScaleParse, RejectsGarbageTrailingJunkAndNonFinite)
{
    EXPECT_EXIT(parseScaleOrDie("0.5abc", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("pony", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    // atof-based parsing let NaN through: NaN fails both range
    // comparisons, so it sailed past "(<= 0 || > 1)".
    EXPECT_EXIT(parseScaleOrDie("nan", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("inf", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("0", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("-0.5", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("1.5", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
}

TEST(ScaleParse, EnvRoundTrip)
{
    ASSERT_EQ(setenv("GPULP_SCALE", "0.125", 1), 0);
    EXPECT_DOUBLE_EQ(benchScaleFromEnv(), 0.125);
    ASSERT_EQ(setenv("GPULP_SCALE", "0.5junk", 1), 0);
    EXPECT_EXIT(benchScaleFromEnv(), ::testing::ExitedWithCode(1),
                "GPULP_SCALE");
    ASSERT_EQ(unsetenv("GPULP_SCALE"), 0);
    EXPECT_DOUBLE_EQ(benchScaleFromEnv(), 1.0);
}

// ---------------------------------------------------------------------
// Output-span hooks
// ---------------------------------------------------------------------

TEST(OutputSpans, BlockSpansPartitionTheOutput)
{
    for (const char *name : {"tmm", "spmv", "mri-q", "sad"}) {
        Device dev;
        auto w = makeWorkload(name, 0.004);
        w->setup(dev);
        auto spans = w->outputSpans();
        ASSERT_FALSE(spans.empty()) << name;
        uint64_t total = 0;
        for (const OutputSpan &s : spans)
            total += s.bytes;
        EXPECT_EQ(total, w->outputBytes()) << name;

        // Per-block spans must tile the output exactly: disjoint,
        // inside the declared output, summing to the same byte count.
        std::vector<std::pair<Addr, Addr>> intervals;
        uint64_t block_total = 0;
        for (uint64_t b = 0; b < w->launchConfig().numBlocks(); ++b) {
            for (const OutputSpan &s : w->blockOutputSpans(b)) {
                ASSERT_GT(s.bytes, 0u) << name;
                bool inside = false;
                for (const OutputSpan &o : spans) {
                    inside |= s.addr >= o.addr &&
                              s.addr + s.bytes <= o.addr + o.bytes;
                }
                EXPECT_TRUE(inside) << name << " block " << b;
                intervals.emplace_back(s.addr, s.addr + s.bytes);
                block_total += s.bytes;
            }
        }
        EXPECT_EQ(block_total, w->outputBytes()) << name;
        std::sort(intervals.begin(), intervals.end());
        for (size_t i = 1; i < intervals.size(); ++i) {
            EXPECT_LE(intervals[i - 1].second, intervals[i].first)
                << name << ": blocks share output bytes";
        }
    }
}

// ---------------------------------------------------------------------
// Campaign smoke
// ---------------------------------------------------------------------

TEST(FaultCampaign, SmokeSweepRecoversEverythingOnAllStores)
{
    CampaignOptions opts;
    opts.scale = 0.004;
    opts.seed = 7;
    opts.grid_points = 4;
    opts.random_points = 2;
    opts.num_workers = 1;
    opts.workloads = {"spmv"};

    CampaignResult result = runFaultCampaign(opts);
    EXPECT_TRUE(result.passed());
    // quad, cuckoo, array, bucket2, bucket2opt
    ASSERT_EQ(result.cells.size(), 5u);

    for (const CellResult &cell : result.cells) {
        SCOPED_TRACE(toString(cell.table));
        EXPECT_TRUE(cell.passed());
        EXPECT_EQ(cell.trials.size(), 6u);
        EXPECT_EQ(cell.falsePasses(), 0u);
        uint64_t corrupt = 0, recovered = 0;
        for (const TrialResult &t : cell.trials) {
            EXPECT_TRUE(t.converged);
            EXPECT_TRUE(t.output_matches_golden);
            EXPECT_TRUE(t.verify_ok);
            EXPECT_EQ(t.true_fails + t.false_fails, t.flagged_blocks);
            corrupt += t.corrupt_blocks;
            recovered += t.blocks_recovered;
        }
        // The sweep is pointless unless crashes actually corrupt state
        // that recovery then repairs.
        EXPECT_GT(corrupt, 0u);
        EXPECT_GT(recovered, 0u);
    }
}

TEST(FaultCampaign, DeterministicForAFixedSeed)
{
    CampaignOptions opts;
    opts.scale = 0.004;
    opts.seed = 11;
    opts.grid_points = 2;
    opts.random_points = 1;
    opts.num_workers = 1;
    opts.workloads = {"mri-q"};
    opts.tables = {TableKind::GlobalArray};

    CampaignResult a = runFaultCampaign(opts);
    CampaignResult b = runFaultCampaign(opts);
    ASSERT_EQ(a.cells.size(), 1u);
    ASSERT_EQ(b.cells.size(), 1u);
    EXPECT_EQ(a.cells[0].trials.size(), 3u);
    EXPECT_EQ(a.cells[0].trials, b.cells[0].trials);
}

TEST(FaultCampaign, PinnedTrialsUnderEveryModel)
{
    // Every TrialResult field of one small campaign, pinned. All five
    // models share one classifier and one recovery driver and differ
    // only in their verdict, so any drift those shared paths introduce
    // into a model's simulated results fails here.
    CampaignOptions opts;
    opts.scale = 0.004;
    opts.seed = 2024;
    opts.grid_points = 2;
    opts.random_points = 1;
    opts.num_workers = 1;
    opts.workloads = {"tmm"};
    opts.tables = {TableKind::GlobalArray};
    opts.models = {PersistModel::Lazy, PersistModel::Eager,
                   PersistModel::Strict, PersistModel::EpochBlock,
                   PersistModel::EpochKernel};

    // {crash_point, torn_lines, corrupt, flagged, true_fails,
    //  false_fails, false_passes, recovered, rounds, crashes_survived,
    //  validate_cycles, recover_cycles} per trial.
    using Fields = std::array<uint64_t, 12>;
    struct Cell {
        uint64_t golden_stores;
        Fields trials[3];
    };
    const Cell pinned[] = {
        {4288,
         {{1428, 44, 64, 64, 64, 0, 0, 64, 2, 0, 178, 24534},
          {1498, 44, 64, 64, 64, 0, 0, 64, 2, 0, 178, 24534},
          {2857, 40, 44, 64, 44, 20, 0, 64, 2, 0, 178, 24534}}},
        {16448,
         {{5252, 0, 44, 44, 44, 0, 0, 44, 2, 0, 0, 26444},
          {5482, 1, 43, 43, 43, 0, 0, 43, 2, 0, 0, 26444},
          {10964, 1, 22, 22, 22, 0, 0, 22, 2, 0, 0, 26444}}},
        {4160,
         {{1201, 0, 46, 46, 46, 0, 0, 46, 2, 0, 0, 25764},
          {1386, 0, 43, 43, 43, 0, 0, 43, 2, 0, 0, 25764},
          {2772, 0, 22, 22, 22, 0, 0, 22, 2, 0, 0, 25764}}},
        {4160,
         {{1386, 0, 43, 43, 43, 0, 0, 43, 2, 0, 0, 25764},
          {2772, 0, 22, 22, 22, 0, 0, 22, 2, 0, 0, 25764},
          {3660, 0, 8, 8, 8, 0, 0, 8, 2, 0, 0, 25764}}},
        {4160,
         {{1386, 0, 43, 43, 43, 0, 0, 43, 2, 0, 0, 24444},
          {2772, 0, 22, 22, 22, 0, 0, 22, 2, 0, 0, 24444},
          {2805, 0, 21, 21, 21, 0, 0, 21, 2, 0, 0, 24444}}},
    };

    CampaignResult result = runFaultCampaign(opts);
    ASSERT_EQ(result.cells.size(), std::size(pinned));
    for (size_t c = 0; c < std::size(pinned); ++c) {
        const CellResult &cell = result.cells[c];
        SCOPED_TRACE(toString(cell.model));
        EXPECT_EQ(cell.model, opts.models[c]);
        EXPECT_EQ(cell.golden_stores, pinned[c].golden_stores);
        ASSERT_EQ(cell.trials.size(), std::size(pinned[c].trials));
        for (size_t i = 0; i < cell.trials.size(); ++i) {
            const TrialResult &t = cell.trials[i];
            const Fields got = {
                t.crash_point,     t.torn_lines,       t.corrupt_blocks,
                t.flagged_blocks,  t.true_fails,       t.false_fails,
                t.false_passes,    t.blocks_recovered, t.recovery_rounds,
                t.crashes_survived, t.validate_cycles, t.recover_cycles};
            EXPECT_EQ(got, pinned[c].trials[i]) << "trial " << i;
            EXPECT_TRUE(t.converged);
            EXPECT_TRUE(t.output_matches_golden);
            EXPECT_TRUE(t.verify_ok);
        }
    }
}

} // namespace
} // namespace gpulp
