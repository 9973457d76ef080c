/**
 * @file
 * Checksum reduction across a thread block (Sec. IV-B, Listings 3-4).
 *
 * Two methods, matching the paper's comparison in Table IV:
 *
 *  - ParallelShuffle: each warp reduces its lanes' partial checksums
 *    through register-to-register shfl_down exchanges (O(log N) steps);
 *    warp leaders park results in shared memory; warp 0 performs the
 *    final reduction. No global-memory traffic at all. The simulator
 *    runs it as one block rendezvous (blockReduceParallel).
 *
 *  - SequentialGlobal: every thread stages its partial checksums in a
 *    global scratch array and one thread of the block walks them
 *    serially. This is the "without parallel reduction" baseline whose
 *    extra memory traffic crushes bandwidth-bound kernels (SPMV goes
 *    from 22% to 438% overhead in the paper).
 *
 * Both produce the same value because modular and parity checksums are
 * commutative and associative.
 */

#ifndef GPULP_CORE_REDUCE_H
#define GPULP_CORE_REDUCE_H

#include "core/checksum.h"
#include "mem/memory.h"
#include "sim/exec.h"

namespace gpulp {

/** Shared-memory slot ids reserved by the LP runtime. */
constexpr uint32_t kLpReduceSharedSlot = 0x4C50u; // "LP"

/** Pack a checksum pair into one 64-bit word. */
constexpr uint64_t
packChecksums(const Checksums &cs)
{
    return static_cast<uint64_t>(cs.sum) |
           (static_cast<uint64_t>(cs.parity) << 32);
}

/** Inverse of packChecksums(). */
constexpr Checksums
unpackChecksums(uint64_t packed)
{
    return Checksums{static_cast<uint32_t>(packed),
                     static_cast<uint32_t>(packed >> 32)};
}

/**
 * Block-level parallel reduction (Listing 3): each warp reduces its
 * lanes through a shfl_down tree (Listing 4), warp leaders park the
 * results in shared memory, barrier, warp 0 reduces the parked values,
 * barrier. The result is valid on flat thread 0; every other thread
 * gets zero checksums. All live threads must call.
 *
 * One shuffle per tree step per active checksum, so ModularParity
 * costs two shuffles per step — the Sec. VII-2 cost increment of dual
 * checksums.
 *
 * The simulator runs the whole of Listing 3 as one block rendezvous
 * (ThreadCtx::blockArrive): each thread deposits once, and the last
 * arriver computes every warp's tree (a full warp's in closed form, a
 * partial warp's step by step over the lanes that deposited), the
 * parking, warp 0's tree and both barriers, charging the cycles and
 * shuffles the per-warp steps would have. Only flat thread 0 waits for
 * the value; the others wait at their next device operation, or not at
 * all if their kernel returns first.
 */
Checksums blockReduceParallel(ThreadCtx &t, Checksums local,
                              ChecksumKind kind);

/**
 * Block-level sequential reduction through global memory: each thread
 * stores its packed partial checksums to @p scratch at its global
 * thread index, then thread 0 reduces the block's span serially.
 * The result is valid on flat thread 0. All live threads must call.
 */
Checksums blockReduceSequentialGlobal(ThreadCtx &t, Checksums local,
                                      ChecksumKind kind,
                                      ArrayRef<uint64_t> &scratch);

/**
 * Extension (Sec. VII-2's closing wish): the paper asks GPU architects
 * for "support for other parallel reduction operators beyond just
 * addition and XOR". This variant models that hardware: both checksums
 * travel in one 64-bit shuffle per step and the combine applies + to
 * the low half and ^ to the high half, halving the dual-checksum
 * shuffle count. Only meaningful for ChecksumKind::ModularParity.
 * The result is valid on flat thread 0; all live threads must call.
 */
Checksums blockReduceParallelFused(ThreadCtx &t, Checksums local);

} // namespace gpulp

#endif // GPULP_CORE_REDUCE_H
