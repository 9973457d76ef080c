/**
 * @file
 * Microbenchmark: simulated cost of the block-level checksum
 * reductions (Listing 3/4 of the paper). Reported through custom
 * counters in *simulated device cycles*, the unit every paper result
 * uses; wall time measures only the simulator itself.
 *
 * sim_cycles shows the O(log N) shuffle tree staying nearly flat as
 * the block grows while the sequential-global path scales linearly
 * and adds DRAM traffic (traffic_bytes counter).
 */

#include <benchmark/benchmark.h>

#include "core/reduce.h"
#include "sim/device.h"

namespace gpulp {
namespace {

void
BM_BlockReduceParallel(benchmark::State &state)
{
    Device dev;
    uint32_t threads = static_cast<uint32_t>(state.range(0));
    LaunchConfig cfg(Dim3(8), Dim3(threads));
    Cycles cycles = 0;
    uint64_t bytes = 0;
    for (auto _ : state) {
        LaunchResult r = dev.launch(cfg, [&](ThreadCtx &t) {
            Checksums local{t.flatThreadIdx(), ~t.flatThreadIdx()};
            blockReduceParallel(t, local, ChecksumKind::ModularParity);
        });
        cycles = r.cycles;
        bytes = r.traffic.totalBytes();
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
    state.counters["traffic_bytes"] = static_cast<double>(bytes);
}

void
BM_BlockReduceSequentialGlobal(benchmark::State &state)
{
    Device dev;
    uint32_t threads = static_cast<uint32_t>(state.range(0));
    LaunchConfig cfg(Dim3(8), Dim3(threads));
    auto scratch = ArrayRef<uint64_t>::allocate(
        dev.mem(), cfg.numBlocks() * threads);
    Cycles cycles = 0;
    uint64_t bytes = 0;
    for (auto _ : state) {
        LaunchResult r = dev.launch(cfg, [&](ThreadCtx &t) {
            Checksums local{t.flatThreadIdx(), ~t.flatThreadIdx()};
            blockReduceSequentialGlobal(t, local,
                                        ChecksumKind::ModularParity,
                                        scratch);
        });
        cycles = r.cycles;
        bytes = r.traffic.totalBytes();
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
    state.counters["traffic_bytes"] = static_cast<double>(bytes);
}

void
BM_WarpReduceSingleVsDual(benchmark::State &state)
{
    // The Sec. VII-2 effect at warp scope: one extra shuffle per step,
    // on a one-warp block.
    Device dev;
    bool dual = state.range(0) != 0;
    ChecksumKind kind =
        dual ? ChecksumKind::ModularParity : ChecksumKind::Modular;
    LaunchConfig cfg(Dim3(1), Dim3(kWarpSize));
    Cycles cycles = 0;
    for (auto _ : state) {
        LaunchResult r = dev.launch(cfg, [&](ThreadCtx &t) {
            Checksums local{t.laneId(), t.laneId()};
            blockReduceParallel(t, local, kind);
        });
        cycles = r.cycles;
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
}

BENCHMARK(BM_BlockReduceParallel)->Arg(32)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_BlockReduceSequentialGlobal)
    ->Arg(32)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);
BENCHMARK(BM_WarpReduceSingleVsDual)->Arg(0)->Arg(1);

} // namespace
} // namespace gpulp

BENCHMARK_MAIN();
