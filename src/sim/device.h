/**
 * @file
 * The simulated GPU device: owns global memory, the timing model and
 * the kernel launcher.
 *
 * Usage mirrors the CUDA host API the paper's benchmarks use:
 *
 * @code
 *   Device dev;
 *   auto a = ArrayRef<float>::allocate(dev.mem(), n);
 *   ... host-initialize a.hostAt(i) ...
 *   LaunchResult r = dev.launch({grid, block}, [&](ThreadCtx &t) {
 *       ... kernel body against the ThreadCtx API ...
 *   });
 *   // r.cycles is the modelled kernel time
 * @endcode
 *
 * When an NvmCache is attached, all observed traffic maintains
 * persistency state and an armed crash injection aborts the grid
 * mid-flight (LaunchResult::crashed).
 */

#ifndef GPULP_SIM_DEVICE_H
#define GPULP_SIM_DEVICE_H

#include <functional>
#include <memory>
#include <vector>

#include "fiber/fiber.h"
#include "mem/memory.h"
#include "mem/timing.h"
#include "nvm/nvm_cache.h"
#include "sim/exec.h"
#include "sim/thread_pool.h"
#include "sim/types.h"

namespace gpulp {

/** Kernel body type: invoked once per simulated thread. */
using KernelFn = std::function<void(ThreadCtx &)>;

/** Construction parameters for a Device. */
struct DeviceParams {
    size_t arena_bytes = 256 * 1024 * 1024; //!< global-memory capacity
    size_t shared_bytes = 96 * 1024;        //!< shared memory per block
    size_t fiber_stack_bytes = 64 * 1024;   //!< stack per simulated thread

    /**
     * Host worker threads executing thread blocks concurrently.
     * 0 = auto: the GPULP_WORKERS environment variable if set, else
     * hardware_concurrency. 1 = legacy single-threaded execution on
     * the launching thread. Results are bit-identical at any value.
     */
    uint32_t num_workers = 0;

    /**
     * Serialize ordering-sensitive accesses (global atomics, declared
     * ordered regions) in block-rank order so functional results are
     * deterministic across worker counts. Disabling removes the rank
     * gate: embarrassingly parallel workloads are unaffected, but
     * cross-block atomic results become schedule-dependent.
     */
    bool strict_atomic_order = true;

    TimingParams timing;                    //!< timing model parameters
};

/** Outcome of one kernel launch. */
struct LaunchResult {
    Cycles cycles = 0;          //!< modelled kernel time
    Cycles critical_path = 0;   //!< slowest-SM completion cycle
    Cycles bandwidth_cycles = 0;//!< roofline time for the DRAM traffic
    bool crashed = false;       //!< true if an injected crash fired
    uint64_t blocks_completed = 0;
    MemTrafficStats traffic;    //!< traffic accumulated by this launch
};

/**
 * A simulated GPU.
 *
 * Blocks execute functionally on a pool of host workers
 * (DeviceParams::num_workers), each against its own block-local timing
 * table with the block starting at local cycle 0; serialization events
 * are recorded as a trace. The launching thread then commits blocks in
 * rank order — greedy SM schedule, trace replay against the global
 * per-address table, traffic merge — so LaunchResult is bit-identical
 * at any worker count. Cross-block *functional* order (atomic return
 * values, CAS winners, declared ordered regions) is enforced by a
 * RankGate: a block's first ordering-sensitive access waits until all
 * lower ranks completed. Blocks without such accesses — the paper's
 * collision-free global-array store — never gate and scale freely.
 */
class Device
{
  public:
    explicit Device(DeviceParams params = DeviceParams{});

    ~Device();

    /** Global memory arena. */
    GlobalMemory &mem() { return mem_; }

    /** Timing model (reset at every launch). */
    MemTiming &timing() { return timing_; }

    /** Parameters this device was built with. */
    const DeviceParams &params() const { return params_; }

    /**
     * Attach an NVM persistency model: it becomes the memory observer
     * and its crash injection is honoured by kernel threads. Pass
     * nullptr to detach.
     */
    void attachNvm(NvmCache *nvm);

    /** Attached NVM model, or nullptr. */
    NvmCache *nvm() { return nvm_; }

    /**
     * Run a kernel over the whole grid.
     *
     * Functional semantics: thread blocks run in rank order, threads
     * within a block interleave at collectives. Timing: blocks are
     * greedily scheduled onto params().timing.num_sms SMs; the launch
     * time is the later of the slowest SM and the bandwidth roofline.
     *
     * If the attached NVM model's injected crash fires, scheduling
     * stops, the partially-executed grid's volatile state remains in
     * memory (callers then invoke NvmCache::crash() to rewind to the
     * persisted image) and the result has crashed == true.
     */
    LaunchResult launch(const LaunchConfig &cfg, const KernelFn &kernel);

    /** Total kernel launches performed (for tests/stats). */
    uint64_t launchCount() const { return launch_count_; }

    /** Worker count the next launch will use (after env/auto resolution). */
    uint32_t resolveWorkers() const;

    /**
     * Declare [base, base+bytes) as an ordered region: plain loads and
     * stores to it observe block-rank order under the parallel engine.
     * Workloads declare their racy-by-design structures (MEGA-KV's key
     * table, lock-free cuckoo slots) so results stay deterministic;
     * collision-free structures need no declaration and run ungated.
     */
    void addOrderedRegion(Addr base, size_t bytes);

    /** Drop all declared ordered regions. */
    void clearOrderedRegions();

    /**
     * Install a per-block schedule-policy factory (see
     * sim/sched_policy.h): every subsequent block run asks it for a
     * policy (nullptr result = default deterministic pick for that
     * block). Pass an empty function to uninstall. The analysis layer
     * uses this to permute resume order and record traces; production
     * paths leave it unset.
     */
    void
    setSchedulePolicyFactory(SchedulePolicyFactory factory)
    {
        sched_policy_factory_ = std::move(factory);
    }

  private:
    /**
     * One worker's block execution state, kept for the worker's
     * lifetime and reset, not rebuilt, per block: its block-local
     * MemTiming (tracing enabled), its BlockState with the shared-memory
     * arena, one ThreadCtx and one fiber per thread slot. The fibers
     * are re-armed for every block, so once they and the buffers have
     * grown to the largest block the worker ran, running a block
     * allocates nothing on the host heap.
     */
    struct WorkerState {
        WorkerState(GlobalMemory &mem, const DeviceParams &params);

        // The fibers' entries hold this worker's address.
        WorkerState(const WorkerState &) = delete;
        WorkerState &operator=(const WorkerState &) = delete;

        /**
         * Prepare the thread slots for an @p n -thread block of
         * @p cfg running @p fn: rebuild the ThreadCtxs in place
         * and re-arm the fibers, creating fibers only past the
         * largest block seen so far.
         */
        void beginBlock(const KernelFn &fn, const LaunchConfig &cfg,
                        uint32_t n);

        /** Fiber entry of thread slot @p t: run the kernel on ctxs[t]. */
        void runThread(uint32_t t);

        MemTiming timing;
        BlockState block;
        std::vector<ThreadCtx> ctxs;
        std::vector<std::unique_ptr<Fiber>> fibers;
        size_t stack_bytes;
        const KernelFn *kernel = nullptr; //!< the running block's kernel
        bool crashed = false; //!< a thread of the block hit SimCrash
    };

    /** Everything one block's execution produced, pending rank commit. */
    struct BlockOutcome {
        bool crashed = false;
        Cycles local_end = 0;               //!< max thread-local cycle
        std::vector<TraceEvent> events;     //!< serialization trace
        std::vector<Cycles> thread_end;     //!< per-tid local end (traced)
        MemTrafficStats stats;              //!< block-local traffic
    };

    /**
     * Run one thread block to completion (or crash) on fibers, against
     * @p ws's block-local timing, starting at local cycle 0.
     */
    void runBlockLocal(const LaunchConfig &cfg, uint64_t rank,
                       const KernelFn &kernel, WorkerState &ws,
                       RankGate *gate, BlockOutcome &out);

    /**
     * Commit @p out at the next free SM in rank order: replay its
     * trace into the global timing table and merge its traffic.
     */
    void commitOutcome(BlockOutcome &out, std::vector<Cycles> &sm_free,
                       LaunchResult &result);

    DeviceParams params_;
    GlobalMemory mem_;
    MemTiming timing_;
    NvmCache *nvm_ = nullptr;
    uint64_t launch_count_ = 0;

    OrderedRegions ordered_regions_;
    SchedulePolicyFactory sched_policy_factory_;
    std::unique_ptr<ThreadPool> pool_;
    std::vector<std::unique_ptr<WorkerState>> worker_states_;
};

} // namespace gpulp

#endif // GPULP_SIM_DEVICE_H
