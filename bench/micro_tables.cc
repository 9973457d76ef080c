/**
 * @file
 * Microbenchmark: simulated insertion cost of every checksum store
 * (Fig. 3/4 and Sec. V of the paper, plus the v2 bucketized backend
 * of docs/CHECKSUM_TABLES.md) as the number of
 * concurrently inserting thread blocks grows. Custom counters report
 * simulated device cycles and collision counts: the global array's
 * insert cost stays flat and collision-free while both hashed tables
 * pay growing probe/eviction chains — the scalability argument behind
 * the paper's hash-table-less design.
 */

#include <benchmark/benchmark.h>

#include "core/checksum_store.h"
#include "sim/device.h"

namespace gpulp {
namespace {

void
runInsertSweep(benchmark::State &state, TableKind table)
{
    uint64_t keys = static_cast<uint64_t>(state.range(0));
    Cycles cycles = 0;
    uint64_t collisions = 0;
    for (auto _ : state) {
        Device dev;
        LpConfig cfg;
        cfg.table = table;
        auto store = makeChecksumStore(dev, cfg, keys);
        LaunchConfig launch(Dim3(static_cast<uint32_t>(keys)), Dim3(32));
        LaunchResult r = dev.launch(launch, [&](ThreadCtx &t) {
            if (t.flatThreadIdx() == 0) {
                store->insert(t, static_cast<uint32_t>(t.blockRank()),
                              Checksums{1, 2});
            }
        });
        cycles = r.cycles;
        collisions = store->stats().collisions;
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
    state.counters["collisions"] = static_cast<double>(collisions);
    state.counters["cycles_per_insert"] =
        static_cast<double>(cycles) / static_cast<double>(keys);
}

void
BM_InsertQuadProbe(benchmark::State &state)
{
    runInsertSweep(state, TableKind::QuadProbe);
}

void
BM_InsertCuckoo(benchmark::State &state)
{
    runInsertSweep(state, TableKind::Cuckoo);
}

void
BM_InsertGlobalArray(benchmark::State &state)
{
    runInsertSweep(state, TableKind::GlobalArray);
}

void
BM_InsertBucket2Opt(benchmark::State &state)
{
    runInsertSweep(state, TableKind::Bucket2Opt);
}

BENCHMARK(BM_InsertQuadProbe)->Arg(512)->Arg(4096)->Arg(32768);
BENCHMARK(BM_InsertCuckoo)->Arg(512)->Arg(4096)->Arg(32768);
BENCHMARK(BM_InsertGlobalArray)->Arg(512)->Arg(4096)->Arg(32768);
BENCHMARK(BM_InsertBucket2Opt)->Arg(512)->Arg(4096)->Arg(32768);

} // namespace
} // namespace gpulp

BENCHMARK_MAIN();
