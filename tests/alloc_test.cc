/**
 * @file
 * Steady-state heap allocations of the block runner. This binary
 * replaces the global operator new with a counting one, which is why
 * it is not part of gpulp_tests.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/reduce.h"
#include "sim/device.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

} // namespace

// Out of line, so the compiler never sees a new-expression's pointer
// reach free() and warn about a mismatched pair.
[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes != 0 ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace gpulp {
namespace {

/** Heap allocations one launch of @p kernel over @p cfg makes. */
uint64_t
allocationsOf(Device &dev, const LaunchConfig &cfg, const KernelFn &kernel)
{
    const uint64_t before = g_allocations.load();
    dev.launch(cfg, kernel);
    return g_allocations.load() - before;
}

TEST(SteadyStateAllocTest, LaunchAllocationsDoNotGrowWithBlocksOrThreads)
{
    const KernelFn kernel = [](ThreadCtx &t) {
        t.syncthreads();
        blockReduceParallel(t, Checksums{t.flatThreadIdx(), 7u},
                            ChecksumKind::ModularParity);
    };
    const LaunchConfig small(Dim3(16), Dim3(32));
    const LaunchConfig large(Dim3(256), Dim3(256));
    for (uint32_t workers : {1u, 4u}) {
        DeviceParams params;
        params.num_workers = workers;
        Device dev(params);
        // Warm up: the workers grow their fibers, thread contexts and
        // block buffers to the largest block once.
        dev.launch(large, kernel);
        dev.launch(small, kernel);

        const uint64_t at_small = allocationsOf(dev, small, kernel);
        const uint64_t at_large = allocationsOf(dev, large, kernel);
        EXPECT_EQ(at_small, at_large)
            << workers << " workers: 16 x 32 threads made " << at_small
            << " allocations, 256 x 256 made " << at_large;
    }
}

} // namespace
} // namespace gpulp
