/**
 * @file
 * Ablation: checksum-table load factor versus LP overhead.
 *
 * Sec. IV-C of the paper states quadratic probing "works well only if
 * the load factor is 70% or less" and cuckoo hashing "should be kept at
 * less than 50%". This sweep quantifies both cliffs on MRI-GRIDDING
 * (the collision-dominated benchmark): overhead and collisions per
 * insert as the tables fill — and shows the global array, pinned at
 * 100% load with zero collisions, as the design that escapes the
 * trade-off entirely.
 */

#include <cstdio>

#include "common/table.h"
#include "bench_env.h"
#include "harness/driver.h"

using namespace gpulp;

int
main(int argc, char **argv)
{
    BenchCli cli = benchCli("ablation_load_factor", argc, argv);
    const double scale = cli.scale;
    // A fraction of the full grid keeps the sweep quick; the cliff
    // shape is load-factor-driven, not size-driven.
    double sweep_scale = scale * 0.25;
    std::printf("=== Ablation: load factor vs overhead on MRI-GRIDDING "
                "(scale %.3f) ===\n",
                sweep_scale);

    WorkloadBench bench("mri-gridding", sweep_scale);

    TextTable table({"Load factor", "Quad overhead", "Quad coll/insert",
                     "Cuckoo overhead", "Cuckoo coll/insert",
                     "B2Opt overhead", "B2Opt coll/insert"});
    auto per_insert = [](const MeasuredRun &r) {
        return static_cast<double>(r.store_stats.collisions) /
               static_cast<double>(r.store_stats.inserts);
    };
    for (double lf : {0.30, 0.50, 0.70, 0.85, 0.95}) {
        LpConfig quad_cfg = LpConfig::naive(TableKind::QuadProbe);
        quad_cfg.load_factor = lf;
        MeasuredRun quad = bench.measure(quad_cfg);

        // Cuckoo degrades catastrophically past ~0.5 total load; cap
        // the sweep where insertion still terminates without the stash.
        double cuckoo_lf = lf < 0.5 ? lf : 0.49;
        LpConfig cuckoo_cfg = LpConfig::naive(TableKind::Cuckoo);
        cuckoo_cfg.load_factor = cuckoo_lf;
        MeasuredRun cuckoo = bench.measure(cuckoo_cfg);

        // The bucketized backend sweeps the full range: fixed-width
        // buckets are exactly what keeps it usable past 90%.
        LpConfig b2o_cfg = LpConfig::naive(TableKind::Bucket2Opt);
        b2o_cfg.load_factor = lf;
        MeasuredRun b2o = bench.measure(b2o_cfg);

        table.addRow({TextTable::num(lf, 2), TextTable::pct(quad.overhead),
                      TextTable::num(per_insert(quad), 2),
                      TextTable::pct(cuckoo.overhead) +
                          (lf >= 0.5 ? " (@0.49)" : ""),
                      TextTable::num(per_insert(cuckoo), 2),
                      TextTable::pct(b2o.overhead),
                      TextTable::num(per_insert(b2o), 2)});
    }
    MeasuredRun array = bench.measure(LpConfig::scalable());
    table.addSeparator();
    table.addRow({"array (1.00)", TextTable::pct(array.overhead), "0.00",
                  "-", "-", "-", "-"});
    table.print();

    std::printf("\nPaper guidance: quad <= ~70%%, cuckoo < 50%%; the "
                "global array runs at 100%% load,\ncollision-free and "
                "race-free (Sec. V). The bucketized two-choice backend "
                "(docs/CHECKSUM_TABLES.md)\nstays flat through 95%% but "
                "still pay the hash/probe; the array remains the floor.\n");
    benchFinish(cli);
    return 0;
}
