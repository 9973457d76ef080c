/**
 * @file
 * Fig. 5, Tables II-V, Sec. IV-D.3 and Sec. VII-2 as views of one sweep
 * of (workload, LpConfig) cells: naive quad alone feeds five views, so
 * each cell is measured once, on first use, on one suite. --view picks
 * one view (default all). The run prints one digest over every cell;
 * --json adds the cells, each view's geomeans and the counters. A shape
 * check that holds at --scale 0.05 and 1 fails the run (exit 1) when it
 * breaks; the rest are known deviations, printed with their mechanism.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_env.h"
#include "common/stats.h"
#include "common/table.h"
#include "harness/driver.h"
#include "paper_refs.h"

using namespace gpulp;

namespace {

// The cells several views share; the others are spelled where used.
const LpConfig kQuad = LpConfig::naive(TableKind::QuadProbe);
const LpConfig kCuckoo = LpConfig::naive(TableKind::Cuckoo);
const LpConfig kBucket2Opt = LpConfig::naive(TableKind::Bucket2Opt);
const LpConfig kArray = LpConfig::scalable(); // == naive(GlobalArray)

// Suite positions (workloadNames() and paper::kNames share the order).
constexpr size_t kTmm = 0, kTpacf = 1, kMriGridding = 2, kSpmv = 3,
                 kSad = 4, kHisto = 5, kCutcp = 6, kMriQ = 7;

/** The suite and every cell measured on it, each exactly once. */
class Sweep
{
  public:
    explicit Sweep(double scale) : suite_(makeSuite(scale)) {}

    /** The cell (@p workload, @p cfg), measured on first use. */
    MeasuredRun
    run(size_t workload, const LpConfig &cfg)
    {
        auto it = std::ranges::find(cells_, std::pair(workload, cfg));
        if (it != cells_.end())
            return runs_[it - cells_.begin()];
        cells_.emplace_back(workload, cfg);
        runs_.push_back(suite_[workload]->measure(cfg));
        return runs_.back();
    }

    /** @p cfg on every workload, in suite order. */
    std::vector<MeasuredRun>
    column(const LpConfig &cfg)
    {
        std::vector<MeasuredRun> runs;
        for (size_t w = 0; w < suite_.size(); ++w)
            runs.push_back(run(w, cfg));
        return runs;
    }

    /** Every cell measured so far, in measurement order. */
    const std::vector<MeasuredRun> &runs() const { return runs_; }

  private:
    std::vector<std::unique_ptr<WorkloadBench>> suite_;
    std::vector<std::pair<size_t, LpConfig>> cells_;
    std::vector<MeasuredRun> runs_;
};

/** @p get of every run, e.g. perKernel(runs, &MeasuredRun::overhead). */
template <typename Get>
auto
perKernel(const std::vector<MeasuredRun> &runs, Get get)
{
    std::vector<std::decay_t<std::invoke_result_t<Get, const MeasuredRun &>>>
        out;
    for (const MeasuredRun &r : runs)
        out.push_back(std::invoke(get, r));
    return out;
}

std::vector<double>
overheads(const std::vector<MeasuredRun> &runs)
{
    return perKernel(runs, &MeasuredRun::overhead);
}

/** Slowdown factors, 1 + overhead (Table III). */
std::vector<double>
factors(const std::vector<MeasuredRun> &runs)
{
    return perKernel(runs,
                     [](const MeasuredRun &r) { return 1.0 + r.overhead; });
}

std::vector<uint64_t>
collisions(const std::vector<MeasuredRun> &runs)
{
    return perKernel(
        runs, [](const MeasuredRun &r) { return r.store_stats.collisions; });
}

std::vector<uint64_t>
blocks(const std::vector<MeasuredRun> &runs)
{
    return perKernel(runs, &MeasuredRun::num_blocks);
}

/** Measured geomeans of one view, keyed by column header. */
using Geomeans = std::vector<std::pair<std::string, double>>;

/** One printed column: a cell per kernel and the GeoMean row's cell. */
struct Col {
    std::string header;
    std::vector<std::string> cells;
    std::string gmean = "-";
    double measured_gmean = NAN; //!< reported in --json when set
};

/** Measured fractions as percentages, with their geomean overhead. */
Col
pctCol(std::string header, const std::vector<double> &values,
       int decimals = 1)
{
    Col c{std::move(header), {}};
    for (double v : values)
        c.cells.push_back(TextTable::pct(v, decimals));
    c.measured_gmean = geomeanOverhead(values);
    c.gmean = TextTable::pct(c.measured_gmean, decimals);
    return c;
}

/** Measured slowdown factors, with their geomean. */
Col
factorCol(std::string header, const std::vector<double> &values)
{
    Col c{std::move(header), {}};
    for (double v : values)
        c.cells.push_back(TextTable::factor(v));
    c.measured_gmean = geomean(values);
    c.gmean = TextTable::factor(c.measured_gmean);
    return c;
}

/** The paper's percentages. */
Col
paperPctCol(std::string header, const double (&values)[paper::kCount],
            double gmean, int decimals = 2, int gmean_decimals = 1)
{
    Col c{std::move(header), {}};
    for (double v : values)
        c.cells.push_back(TextTable::num(v, decimals) + "%");
    c.gmean = TextTable::num(gmean, gmean_decimals) + "%";
    return c;
}

/** The paper's slowdown factors. */
Col
paperFactorCol(const double (&values)[paper::kCount], double gmean)
{
    Col c{"(paper)", {}};
    for (double v : values)
        c.cells.push_back(TextTable::factor(v));
    c.gmean = TextTable::factor(gmean);
    return c;
}

Col
countCol(std::string header, std::span<const uint64_t> values)
{
    Col c{std::move(header), {}};
    for (uint64_t v : values)
        c.cells.push_back(std::to_string(v));
    return c;
}

/** Print a row per kernel (and a GeoMean row); record the geomeans. */
void
printCols(Geomeans &geo, const char *first, const std::vector<Col> &cols,
          bool gmean_row = true)
{
    std::vector<std::string> headers{first};
    for (const Col &c : cols)
        headers.push_back(c.header);
    TextTable table(headers);
    for (int i = 0; i < paper::kCount; ++i) {
        std::vector<std::string> row{paper::kNames[i]};
        for (const Col &c : cols)
            row.push_back(c.cells[i]);
        table.addRow(row);
    }
    if (gmean_row) {
        table.addSeparator();
        std::vector<std::string> row{"GeoMean"};
        for (const Col &c : cols)
            row.push_back(c.gmean);
        table.addRow(row);
    }
    table.print();
    for (const Col &c : cols) {
        if (!std::isnan(c.measured_gmean))
            geo.emplace_back(c.header, c.measured_gmean);
    }
}

/** One paper finding checked against the measurement. */
struct Check {
    std::string claim;
    bool holds;
    /** Why it fails at --scale 0.05 or 1; null: enforced. */
    const char *deviation = nullptr;
};

/** Print @p checks; false when an enforced one broke. */
bool
printChecks(const std::vector<Check> &checks)
{
    std::printf("\nShape checks (paper findings):\n");
    bool ok = true;
    for (const Check &c : checks) {
        std::printf("  %-52s %s\n", (c.claim + ":").c_str(),
                    c.holds ? "yes" : "no");
        if (!c.holds && c.deviation != nullptr)
            std::printf("    known deviation: %s\n", c.deviation);
        else if (!c.holds)
            std::printf("    ENFORCED CHECK FAILED\n");
        ok = ok && (c.holds || c.deviation != nullptr);
    }
    return ok;
}

/** Every kernel's value in @p hi is at least its value in @p lo. */
bool
neverBelow(const std::vector<double> &hi, const std::vector<double> &lo)
{
    return std::ranges::equal(hi, lo, std::greater_equal{});
}

bool
fig5(Sweep &s, Geomeans &geo)
{
    // The v2 bucketized backend at its native 90% load factor (no paper
    // reference; see docs/CHECKSUM_TABLES.md), and the global array as
    // the floor under the same reduction, so only the store differs.
    auto q = overheads(s.column(kQuad)), c = overheads(s.column(kCuckoo));
    printCols(geo, "Name",
              {pctCol("Quad", q),
               paperPctCol("Quad(paper)", paper::kQuadShfl,
                           paper::kQuadShflGmean),
               pctCol("Cuckoo", c),
               paperPctCol("Cuckoo(paper)", paper::kCuckooShfl,
                           paper::kCuckooShflGmean),
               pctCol("B2Opt", overheads(s.column(kBucket2Opt))),
               pctCol("Array", overheads(s.column(kArray))),
               countCol("blocks", blocks(s.column(kQuad)))});
    return printChecks({
        {"MRI-GRIDDING hit hardest under Quad",
         q[kMriGridding] == std::ranges::max(q)},
        {"SAD hit hardest under Cuckoo", c[kSad] == std::ranges::max(c),
         "our cuckoo cost tracks collision counts; the paper's 232.79% "
         "is not explained by its own Table II"},
        {"TPACF cheapest in both (long blocks)",
         q[kTpacf] == std::ranges::min(q) &&
             c[kTpacf] == std::ranges::min(c),
         "a --scale 0.05 artifact: TPACF's 26 blocks run as one wave "
         "whose commits queue at once; holds at --scale 1 (6.6 waves)"},
    });
}

bool
table2(Sweep &s, Geomeans &geo)
{
    // The v2 backend counts a full candidate bucket as one collision,
    // at its native 90% load factor. The global array never collides,
    // by construction (key = slot index).
    auto quad = s.column(kQuad);
    auto qc = collisions(quad), cc = collisions(s.column(kCuckoo));
    auto bc = collisions(s.column(kBucket2Opt));
    printCols(geo, "Name",
              {countCol("Quad", qc),
               countCol("Quad(paper)", paper::kQuadCollisions),
               countCol("Cuckoo", cc),
               countCol("Cuckoo(paper)", paper::kCuckooCollisions),
               countCol("B2Opt", bc),
               countCol("Array", collisions(s.column(kArray))),
               countCol("inserts", perKernel(quad, [](const MeasuredRun &r) {
                            return r.store_stats.inserts;
                        }))},
              /*gmean_row=*/false);
    auto dominate = [](const std::vector<uint64_t> &c) {
        return c[kTmm] + c[kMriGridding] + c[kSad] >
               10 * (c[kTpacf] + c[kSpmv] + c[kHisto] + c[kCutcp] +
                     c[kMriQ]);
    };
    return printChecks({
        {"TMM+MRI-GRIDDING+SAD dominate (quad)", dominate(qc)},
        {"TMM+MRI-GRIDDING+SAD dominate (cuckoo)", dominate(cc)},
        {"MRI-GRIDDING collides less under cuckoo",
         cc[kMriGridding] < qc[kMriGridding]},
        {"B2Opt collides less than quad at 0.9 vs 0.7 load",
         std::accumulate(bc.begin(), bc.end(), uint64_t{0}) <
             std::accumulate(qc.begin(), qc.end(), uint64_t{0})},
    });
}

bool
table3(Sweep &s, Geomeans &geo)
{
    auto qf = factors(s.column(kQuad)), cf = factors(s.column(kCuckoo));
    auto ql = factors(s.column(
        {.table = TableKind::QuadProbe, .lock = LockMode::LockBased}));
    auto cl = factors(
        s.column({.table = TableKind::Cuckoo, .lock = LockMode::LockBased}));
    printCols(geo, "Name",
              {factorCol("Quad free", qf),
               paperFactorCol(paper::kQuadLockFree,
                              paper::kQuadLockFreeGmean),
               factorCol("Quad lock", ql),
               paperFactorCol(paper::kQuadLockBased,
                              paper::kQuadLockBasedGmean),
               factorCol("Cuckoo free", cf),
               paperFactorCol(paper::kCuckooLockFree,
                              paper::kCuckooLockFreeGmean),
               factorCol("Cuckoo lock", cl),
               paperFactorCol(paper::kCuckooLockBased,
                              paper::kCuckooLockBasedGmean),
               countCol("blocks", blocks(s.column(kQuad)))});

    // v2 backends: the bucketized table's per-bucket seqlock, and the
    // global array, which has no atomics and no locks: the floor.
    std::printf("\nv2 backends (no paper reference; see "
                "docs/CHECKSUM_TABLES.md):\n");
    auto b2opt = s.column(kBucket2Opt);
    Col b2_opt = factorCol("Bucket2Opt", factors(b2opt));
    printCols(geo, "Name",
              {b2_opt,
               countCol("opt retries",
                        perKernel(b2opt, [](const MeasuredRun &r) {
                            return r.store_stats.opt_retries;
                        })),
               factorCol("Array", factors(s.column(kArray))),
               countCol("blocks", blocks(b2opt))});
    return printChecks({
        {"Lock-free beats lock-based everywhere",
         neverBelow(ql, qf) && neverBelow(cl, cf)},
        {"SAD and MRI-GRIDDING collapse worst (>100x)",
         ql[kSad] > 100.0 && ql[kMriGridding] > 100.0 && cl[kSad] > 100.0},
        {"Low-block-count kernels stay mild (TPACF/HISTO < 3x)",
         ql[kTpacf] < 3.0 && ql[kHisto] < 3.0,
         "compressed baselines space commits closer than one lock "
         "hand-off, so a convoy forms that the paper's kernels avoid"},
        {"Bucket2Opt no slower than lock-based quad",
         b2_opt.measured_gmean <= geomean(ql)},
    });
}

bool
table4(Sweep &s, Geomeans &geo)
{
    const auto seq = ReductionKind::SequentialGlobal;
    auto qs = overheads(s.column(kQuad)), cs = overheads(s.column(kCuckoo));
    auto qn = overheads(
        s.column({.reduction = seq, .table = TableKind::QuadProbe}));
    auto cn =
        overheads(s.column({.reduction = seq, .table = TableKind::Cuckoo}));
    printCols(geo, "Name",
              {pctCol("Quad+shfl", qs),
               paperPctCol("(paper)", paper::kQuadShfl,
                           paper::kQuadShflGmean),
               pctCol("Quad+no", qn),
               paperPctCol("(paper)", paper::kQuadNoShfl,
                           paper::kQuadNoShflGmean),
               pctCol("Cuckoo+shfl", cs),
               paperPctCol("(paper)", paper::kCuckooShfl,
                           paper::kCuckooShflGmean),
               pctCol("Cuckoo+no", cn),
               paperPctCol("(paper)", paper::kCuckooNoShfl,
                           paper::kCuckooNoShflGmean)});
    std::vector<double> delta;
    for (size_t i = 0; i < qs.size(); ++i)
        delta.push_back(qn[i] - qs[i]);
    return printChecks({
        {"No-shuffle is worse for every kernel",
         neverBelow(qn, qs) && neverBelow(cn, cs)},
        {"SPMV (bandwidth bound) blows up hardest",
         delta[kSpmv] == std::ranges::max(delta),
         "staging loads are modelled as pipelined reads; the paper's "
         "SPMV 22% -> 438% is not reproduced"},
    });
}

bool
table5(Sweep &s, Geomeans &geo)
{
    auto runs = s.column(kArray);
    auto o = overheads(runs);
    auto space = perKernel(runs, [](const MeasuredRun &r) {
        return static_cast<double>(r.lp_footprint_bytes) /
               static_cast<double>(r.output_bytes);
    });
    printCols(geo, "Benchmark",
              {pctCol("array+shuffle", o),
               paperPctCol("(paper)", paper::kArrayShfl,
                           paper::kArrayShflGmean, 1, 1),
               pctCol("Space overhead", space, 2),
               paperPctCol("(paper)", paper::kArraySpace,
                           paper::kArraySpaceGmean, 2, 2)});
    return printChecks({
        {"Every overhead under 10% (paper: 0.6-6.2%)",
         std::ranges::max(o) < 0.10,
         "the block reduction's fixed ~60-90 cycles weigh more on "
         "compressed tiny blocks (MRI-GRIDDING)"},
        {"Zero collisions, zero races by construction",
         collisions(runs) == std::vector<uint64_t>(runs.size(), 0)},
        {"SAD pays the largest space overhead",
         space[kSad] == std::ranges::max(space)},
    });
}

bool
sec4d3(Sweep &s, Geomeans &geo)
{
    const auto plain = LockMode::NoAtomic;
    auto qa = overheads(s.column(kQuad)), ca = overheads(s.column(kCuckoo));
    auto qp = overheads(
        s.column({.table = TableKind::QuadProbe, .lock = plain}));
    auto cp =
        overheads(s.column({.table = TableKind::Cuckoo, .lock = plain}));
    Col quad_plain = pctCol("Quad plain", qp);
    Col cuckoo_plain = pctCol("Cuckoo plain", cp);
    printCols(geo, "Name",
              {pctCol("Quad atomic", qa), quad_plain,
               pctCol("Cuckoo atomic", ca), cuckoo_plain});
    std::printf("\nPaper: no-atomic cuckoo overhead %.1f%%; no-atomic "
                "quad slowdown \"more than %.0fx\".\n",
                paper::kNoAtomicCuckooOverheadPct,
                paper::kNoAtomicQuadFactor);
    std::printf("Measured: no-atomic cuckoo %.1f%%; no-atomic quad "
                "slowdown %.1fx.\n",
                cuckoo_plain.measured_gmean * 100.0,
                1.0 + quad_plain.measured_gmean);
    return printChecks({
        {"Atomics never hurt (plain >= atomic everywhere)",
         neverBelow(qp, qa) && neverBelow(cp, ca)},
        {"Quad degrades far more than cuckoo",
         quad_plain.measured_gmean > 5.0 * cuckoo_plain.measured_gmean},
    });
}

bool
sec7_2(Sweep &s, Geomeans &)
{
    // The dual-checksum cell is Fig. 5's TMM quad cell.
    auto overhead = [&](ChecksumKind checksum) {
        return s.run(kTmm, {.checksum = checksum,
                            .table = TableKind::QuadProbe})
            .overhead;
    };
    double parity = overhead(ChecksumKind::Parity);
    double modular = overhead(ChecksumKind::Modular);
    double both = overhead(ChecksumKind::ModularParity);
    TextTable table({"Checksum", "Overhead", "(paper)"});
    table.addRow({"parity only", TextTable::pct(parity),
                  TextTable::num(paper::kTmmParityOnly, 1) + "%"});
    table.addRow({"modular only", TextTable::pct(modular),
                  TextTable::num(paper::kTmmModularOnly, 1) + "%"});
    table.addRow({"modular+parity", TextTable::pct(both),
                  TextTable::num(paper::kTmmBothChecksums, 1) + "%"});
    table.print();
    double bump = both - std::max(parity, modular);
    const std::string claim = "...but only by a small increment (<2%, +" +
                              TextTable::num(bump * 100.0, 2) + "%)";
    return printChecks({
        {"Dual checksum costs more than either single",
         both >= parity && both >= modular},
        {claim, bump < 0.02},
    });
}

struct View {
    const char *name; //!< --view token
    const char *title;
    bool (*render)(Sweep &, Geomeans &); //!< false: enforced check broke
};

const View kViews[] = {
    {"fig5", "Fig. 5: naive LP overhead, Quad vs Cuckoo", fig5},
    {"table2", "Table II: hash-table collisions", table2},
    {"table3", "Table III: lock-based vs lock-free insertion", table3},
    {"table4",
     "Table IV: parallel (shfl) vs sequential (noshfl) checksum reduction",
     table4},
    {"table5", "Table V: checksum global array + shuffle", table5},
    {"sec4d3", "Sec. IV-D.3: atomic vs plain (no-atomic) insertion", sec4d3},
    {"sec7-2", "Sec. VII-2: single vs dual checksum on TMM + quad", sec7_2},
};

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli = benchCli("paper_tables", argc, argv, true);
    const std::string_view name = cli.view != nullptr ? cli.view : "all";
    std::vector<const View *> views;
    for (const View &v : kViews) {
        if (name == "all" || name == v.name)
            views.push_back(&v);
    }
    if (views.empty()) {
        std::fprintf(stderr, "paper_tables: --view takes all, fig5, table2, "
                             "table3, table4, table5, sec4d3 or sec7-2\n");
        return 2;
    }

    Sweep sweep(cli.scale);
    std::vector<Geomeans> geomeans(views.size());
    bool ok = true;
    for (size_t i = 0; i < views.size(); ++i) {
        std::printf("%s=== %s (scale %.3f) ===\n", i > 0 ? "\n" : "",
                    views[i]->title, cli.scale);
        ok = views[i]->render(sweep, geomeans[i]) && ok;
    }
    const double wall_seconds = cli.wallSeconds();
    const uint64_t digest = digestRuns(sweep.runs());
    std::printf("\n%zu cells, each measured once, in %.3f s; digest "
                "%016llx\n",
                sweep.runs().size(), wall_seconds,
                static_cast<unsigned long long>(digest));

    benchFinish(cli, [&](JsonWriter &w) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(digest));
        w.member("digest", hex);
        w.beginArray("views");
        for (size_t i = 0; i < views.size(); ++i) {
            w.beginObject(JsonWriter::kOneLine);
            w.member("name", views[i]->name);
            w.beginObject("geomeans");
            for (const auto &[header, value] : geomeans[i])
                w.member(header, value);
            w.end();
            w.end();
        }
        w.end();
        w.beginArray("cells");
        for (const MeasuredRun &r : sweep.runs()) {
            w.beginObject(JsonWriter::kOneLine);
            w.member("workload", r.workload);
            w.member("config", configLabel(r.config));
            w.member("checksum", toString(r.config.checksum));
            w.member("load_factor", r.config.load_factor);
            w.member("overhead", r.overhead);
            forEachRunCount(r, [&](const char *name, uint64_t value) {
                w.member(name, value);
            });
            w.end();
        }
        w.end();
    });
    if (!ok) {
        std::fprintf(stderr, "paper_tables: an enforced shape check "
                             "failed\n");
        return 1;
    }
    return 0;
}
