/**
 * @file
 * Fundamental types of the SIMT execution model: dimensions, launch
 * configuration and the simulated-crash exception.
 */

#ifndef GPULP_SIM_TYPES_H
#define GPULP_SIM_TYPES_H

#include <cstdint>

#include "common/logging.h"

namespace gpulp {

/** Number of lanes in a warp, as on all NVIDIA hardware to date. */
constexpr uint32_t kWarpSize = 32;

/** CUDA-style 3-component dimension/index. */
struct Dim3 {
    uint32_t x = 1;
    uint32_t y = 1;
    uint32_t z = 1;

    constexpr Dim3() = default;
    constexpr Dim3(uint32_t x_, uint32_t y_ = 1, uint32_t z_ = 1)
        : x(x_), y(y_), z(z_)
    {
    }

    /** Total element count. */
    constexpr uint64_t
    count() const
    {
        return static_cast<uint64_t>(x) * y * z;
    }

    constexpr bool
    operator==(const Dim3 &other) const
    {
        return x == other.x && y == other.y && z == other.z;
    }
};

/** Grid and block dimensions of a kernel launch. */
struct LaunchConfig {
    Dim3 grid;
    Dim3 block;

    constexpr LaunchConfig() = default;
    constexpr LaunchConfig(Dim3 grid_, Dim3 block_)
        : grid(grid_), block(block_)
    {
    }

    /** Number of thread blocks in the grid. */
    uint64_t numBlocks() const { return grid.count(); }

    /** Number of threads per block. */
    uint32_t
    threadsPerBlock() const
    {
        uint64_t n = block.count();
        GPULP_ASSERT(n >= 1 && n <= 1024,
                     "threads per block must be in [1, 1024], got %llu",
                     static_cast<unsigned long long>(n));
        return static_cast<uint32_t>(n);
    }

    /** Reconstruct the Dim3 block index from a linear block rank. */
    Dim3
    blockIdxOf(uint64_t rank) const
    {
        uint32_t bx = static_cast<uint32_t>(rank % grid.x);
        uint32_t by = static_cast<uint32_t>((rank / grid.x) % grid.y);
        uint32_t bz = static_cast<uint32_t>(rank / (static_cast<uint64_t>(
                                                        grid.x) *
                                                    grid.y));
        return Dim3(bx, by, bz);
    }
};

/**
 * Thrown inside kernel threads when the NVM model's injected crash
 * fires; unwinds the thread's kernel to its fiber entry, which retires
 * the thread.
 */
struct SimCrash {
};

} // namespace gpulp

#endif // GPULP_SIM_TYPES_H
