#include "device.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"

namespace gpulp {

Device::Device(DeviceParams params)
    : params_(params), mem_(params.arena_bytes), timing_(params.timing)
{
    // Every binary constructs a Device, so this is where GPULP_TRACE /
    // GPULP_COUNTERS take effect without per-tool plumbing.
    obs::initFromEnvOnce();
}

Device::~Device() = default;

void
Device::attachNvm(NvmCache *nvm)
{
    nvm_ = nvm;
    mem_.setObserver(nvm);
}

void
Device::addOrderedRegion(Addr base, size_t bytes)
{
    GPULP_ASSERT(bytes > 0, "empty ordered region");
    ordered_regions_.emplace_back(base, base + bytes);
}

void
Device::clearOrderedRegions()
{
    ordered_regions_.clear();
}

uint32_t
Device::resolveWorkers() const
{
    uint32_t w = params_.num_workers;
    if (w == 0) {
        if (const char *env = std::getenv("GPULP_WORKERS")) {
            char *end = nullptr;
            unsigned long v = std::strtoul(env, &end, 10);
            if (end != env && *end == '\0' && v > 0 && v <= 1024)
                w = static_cast<uint32_t>(v);
        }
    }
    if (w == 0) {
        w = std::thread::hardware_concurrency();
        if (w == 0)
            w = 1;
    }
    return w;
}

Device::WorkerState::WorkerState(GlobalMemory &mem,
                                 const DeviceParams &params)
    : timing(params.timing), block(mem, timing, params.shared_bytes),
      stack_bytes(params.fiber_stack_bytes)
{
    timing.setTracing(true);
}

void
Device::WorkerState::beginBlock(const KernelFn &fn, const LaunchConfig &cfg,
                                uint32_t n)
{
    kernel = &fn;
    crashed = false;
    // ThreadCtx is trivially destructible: clear() keeps the capacity,
    // so this constructs in place without allocating.
    ctxs.clear();
    for (uint32_t t = 0; t < n; ++t) {
        uint32_t tx = t % cfg.block.x;
        uint32_t ty = (t / cfg.block.x) % cfg.block.y;
        uint32_t tz = t / (cfg.block.x * cfg.block.y);
        ctxs.emplace_back(block, Dim3(tx, ty, tz), t);
    }
    // The entry names its slot, not a ThreadCtx address, so growing
    // ctxs never leaves a fiber holding a stale pointer.
    while (fibers.size() < n) {
        const uint32_t t = static_cast<uint32_t>(fibers.size());
        fibers.push_back(std::make_unique<Fiber>(
            [this, t] { return runThread(t); }, stack_bytes));
    }
    for (uint32_t t = 0; t < n; ++t)
        fibers[t]->rearm();
}

Fiber *
Device::WorkerState::runThread(uint32_t t)
{
    try {
        (*kernel)(ctxs[t]);
    } catch (const SimCrash &) {
        crashed = true;
    } catch (const std::exception &e) {
        GPULP_PANIC("kernel thread threw: %s", e.what());
    }
    return block.exitThread(ctxs[t]);
}

void
Device::runBlockLocal(const LaunchConfig &cfg, uint64_t rank,
                      const KernelFn &kernel, WorkerState &ws,
                      RankGate *gate, BlockOutcome &out)
{
    ws.timing.reset();
    obs::add(obs::Ctr::SimBlocks);
    obs::TraceSpan block_span("block", "sim", rank, "rank");
    Dim3 block_idx = cfg.blockIdxOf(rank);
    BlockState &state = ws.block;
    state.reset(nvm_, block_idx, cfg, /*start=*/0, gate, rank,
                &ordered_regions_);
    const uint32_t n = state.numThreads();

    std::unique_ptr<SchedulePolicy> policy;
    if (sched_policy_factory_) {
        policy = sched_policy_factory_(rank);
        if (policy) {
            state.setSchedulePolicy(policy.get());
            policy->onBlockStart(n);
        }
    }

    ws.beginBlock(kernel, cfg, n);
    state.run(ws.fibers);

    out.crashed = ws.crashed;
    Cycles end = 0;
    for (const ThreadCtx &ctx : ws.ctxs)
        end = std::max(end, ctx.now());
    out.local_end = end;
    obs::add(obs::Ctr::SimWarps, (n + kWarpSize - 1) / kWarpSize);
    obs::observe(obs::Hist::SimBlockCycles, end);
    out.stats = ws.timing.stats();
    out.events = ws.timing.takeTrace();
    if (!out.events.empty()) {
        out.thread_end.resize(n);
        for (uint32_t t = 0; t < n; ++t)
            out.thread_end[t] = ws.ctxs[t].now();
    }
}

void
Device::commitOutcome(BlockOutcome &out, std::vector<Cycles> &sm_free,
                      LaunchResult &result)
{
    // Greedy schedule: each block goes to the SM that frees up first.
    // With rank-order commit this is round-robin over the first wave
    // and earliest-finish-first afterwards.
    auto sm = std::min_element(sm_free.begin(), sm_free.end());
    *sm = timing_.replayBlock(*sm, out.local_end, out.events,
                              out.thread_end);
    timing_.mergeStats(out.stats);
    ++result.blocks_completed;
}

LaunchResult
Device::launch(const LaunchConfig &cfg, const KernelFn &kernel)
{
    ++launch_count_;
    timing_.reset();

    const uint64_t num_blocks = cfg.numBlocks();
    GPULP_ASSERT(num_blocks > 0, "empty grid");
    obs::add(obs::Ctr::SimLaunches);
    obs::TraceSpan launch_span("launch", "sim", num_blocks, "blocks");

    const uint32_t workers = static_cast<uint32_t>(
        std::min<uint64_t>(resolveWorkers(), num_blocks));

    while (worker_states_.size() < workers)
        worker_states_.push_back(std::make_unique<WorkerState>(mem_, params_));

    RankGate gate(num_blocks, workers);
    RankGate *gate_ptr = params_.strict_atomic_order ? &gate : nullptr;

    // Gate waits are purely event-driven now, so the NVM crash latch
    // must wake gate-parked workers itself; route it at the gate for
    // the duration of this launch (the gate is stack-local).
    if (nvm_)
        nvm_->setAbortNotifier([&gate] { gate.notifyAbort(); });

    std::vector<Cycles> sm_free(params_.timing.num_sms, 0);
    LaunchResult result;

    if (workers == 1) {
        // Legacy path: run and commit each block on the calling
        // thread. Identical numbers to the pooled path — same
        // local-execution + rank-order replay pipeline.
        WorkerState &ws = *worker_states_[0];
        for (uint64_t rank = 0; rank < num_blocks; ++rank) {
            if (nvm_ && nvm_->crashPending())
                break;
            BlockOutcome out;
            runBlockLocal(cfg, rank, kernel, ws, gate_ptr, out);
            if (out.crashed)
                break;
            gate.complete(rank);
            commitOutcome(out, sm_free, result);
        }
    } else {
        if (!pool_)
            pool_ = std::make_unique<ThreadPool>();

        std::vector<BlockOutcome> outcomes(num_blocks);
        std::atomic<uint64_t> next_rank{0};

        pool_->dispatch(workers, [&](uint32_t worker_id) {
            WorkerState &ws = *worker_states_[worker_id];
            for (;;) {
                if (nvm_ && nvm_->crashPending())
                    break;
                uint64_t rank =
                    next_rank.fetch_add(1, std::memory_order_relaxed);
                if (rank >= num_blocks)
                    break;
                BlockOutcome &out = outcomes[rank];
                runBlockLocal(cfg, rank, kernel, ws, gate_ptr, out);
                if (out.crashed)
                    break;
                gate.complete(rank);
            }
            gate.workerDone();
        });

        // Consume the contiguous completed prefix in rank order while
        // workers produce; stops early when a crash aborts the grid.
        for (uint64_t rank = 0; rank < num_blocks; ++rank) {
            if (!gate.awaitCompleted(rank))
                break;
            commitOutcome(outcomes[rank], sm_free, result);
            outcomes[rank] = BlockOutcome{}; // release trace memory
        }
        pool_->wait();
    }

    if (nvm_)
        nvm_->setAbortNotifier(nullptr);

    result.crashed = result.blocks_completed < num_blocks;
    result.critical_path =
        *std::max_element(sm_free.begin(), sm_free.end());
    result.bandwidth_cycles = timing_.bandwidthCycles();
    result.cycles = std::max(result.critical_path, result.bandwidth_cycles);
    result.traffic = timing_.stats();
    return result;
}

} // namespace gpulp
