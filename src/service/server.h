/**
 * @file
 * Live-serving harness for the MEGA-KV workload — the ROADMAP's
 * "millions of users" subsystem.
 *
 * The paper measures LP on fixed 16K-op batches that run once and
 * exit; a served KV store never stops. KvServer closes that gap with
 * an open-loop client model and a back-to-back batch scheduler:
 *
 *  - Requests arrive continuously (scrambled-Zipf keys, configurable
 *    insert/search/erase mix) and are staged into three type-
 *    homogeneous queues while the current batch runs. Arrival cycles
 *    are stamped uniformly over the running batch's execution window,
 *    so a request's latency is its queueing delay plus the batch it
 *    ultimately rides in — the device is saturated with zero
 *    host-side idle gap (device_busy_cycles == total_cycles).
 *  - The moment a queue reaches one full batch it is dispatched; the
 *    other queues keep accumulating, which is how a 50/40/10 mix
 *    yields 5:4:1 batch proportions and why rare op types pick up the
 *    long queueing tails the percentile report surfaces.
 *  - Duplicate inserts of one key within a staging window coalesce
 *    (last value wins, every arrival is acknowledged). This is the
 *    MEGA-KV batching contract, and it also guarantees one-key-per-op
 *    insert batches, which LP replay ordering relies on.
 *
 * Persistency: every mutation batch runs under Lazy Persistency with
 * its own checksum-store slot from a ring of `checkpoint_batches`
 * runtimes; a whole-cache persistAll() checkpoint retires the ring.
 * On an injected mid-batch crash the server rewinds NVM to the
 * persisted image and replays the retained window *in order* through
 * persistRecover() — later batches' stray persisted lines can flag
 * an earlier batch's blocks, but in-order replay reconverges to the
 * acknowledged state. Search batches are never replayed (no
 * durable effect); a crashed search batch is re-executed against the
 * recovered table instead.
 *
 * Honesty is audited, not assumed: every acknowledged effect is also
 * applied to a host-side reference map (dropped inserts excluded via
 * the per-op status array — the fix that keeps a full bucket from
 * masquerading as a persistency failure), and after serving the
 * reference is diffed bidirectionally against the device table. A
 * nonzero acked-but-lost count is the one outcome that breaks the
 * serving guarantee.
 *
 * One replay ambiguity is inherent rather than a bug: a full-bucket
 * drop is not idempotent. If a block containing a dropped insert is
 * re-executed during replay and a stray persisted erase has freed a
 * slot by then, the "dropped" insert lands — the client was told
 * "failed" for an op that applied, the same at-least-once ambiguity a
 * timed-out RPC has. The audit classifies these as drops_resurrected
 * (non-fatal) and keeps every other divergence fatal; keeping the
 * table's load factor low makes drops, and therefore the ambiguity,
 * vanishingly rare.
 */

#ifndef GPULP_SERVICE_SERVER_H
#define GPULP_SERVICE_SERVER_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "harness/faultcampaign.h" // CrashSchedule
#include "nvm/nvm_cache.h"
#include "obs/counters.h"
#include "service/reqgen.h"
#include "sim/device.h"
#include "workloads/megakv.h"

namespace gpulp::service {

/** Server construction knobs. */
struct KvServerOptions {
    uint32_t buckets = 4096;     //!< table buckets (kWays slots each)
    uint32_t batch_ops = 2048;   //!< ops per dispatched batch
    uint32_t keyspace = 65536;   //!< distinct keys clients draw from
    double zipf_theta = 0.99;    //!< key skew; 0 = uniform
    OpMix mix;                   //!< insert/search/erase percentages
    uint64_t seed = 1;           //!< request stream + crash points
    uint32_t checkpoint_batches = 8; //!< persistAll() cadence (ring size)
    uint32_t num_workers = 1;    //!< simulator worker threads (0 = auto)
    size_t nvm_cache_bytes = 64 * 1024; //!< small: partial persistence
};

/** One injected crash and its recovery, as observed by clients. */
struct CrashEvent {
    uint64_t store_point = 0;   //!< armed absolute observed-store count
    uint64_t at_cycle = 0;      //!< service clock when the crash hit
    uint64_t torn_lines = 0;    //!< dirty cache lines lost to the cut
    uint64_t batches_replayed = 0;
    uint64_t blocks_recovered = 0;
    uint64_t recovery_rounds = 0;
    Cycles recovery_cycles = 0;
    /** Cycles from the crash to the first request served afterwards
     *  (the in-flight batch acknowledged through recovery). */
    Cycles availability_gap = 0;
    uint64_t requests_recovered = 0; //!< in-flight acks re-served
    bool converged = false;
};

/** Everything one serve() run produced. */
struct ServeReport {
    uint64_t requests_enqueued = 0;
    uint64_t requests_acked = 0;
    uint64_t inserts_coalesced = 0;
    uint64_t batches_served = 0;  //!< committed batches, recovered ones included
    uint64_t insert_drops = 0;    //!< full-bucket app-level misses
    uint64_t search_misses = 0;   //!< status-bit true misses
    uint64_t checkpoints = 0;
    Cycles total_cycles = 0;        //!< service clock at shutdown
    Cycles device_busy_cycles = 0;  //!< == total_cycles (saturation invariant)
    obs::HistSnapshot latency;      //!< per-request cycles; use percentile()
    std::vector<CrashEvent> crashes;
    uint64_t acked_lost = 0;    //!< acknowledged effects missing from the table
    uint64_t phantom_keys = 0;  //!< table keys never acknowledged
    /**
     * Inserts acked as full-bucket drops that crash replay landed
     * anyway (a stray persisted erase freed a slot before the block
     * was re-executed). The client was told "failed" for an op that
     * applied — the at-least-once ambiguity every recovering store
     * has, reported separately because nothing acknowledged was lost.
     */
    uint64_t drops_resurrected = 0;
    bool audit_ok = false;      //!< acked_lost == 0 && phantom_keys == 0
};

/** The serving harness; one serve() run per instance. */
class KvServer
{
  public:
    explicit KvServer(const KvServerOptions &opts);

    /**
     * Serve until at least @p min_acked requests are acknowledged,
     * arming @p crash_points mid-batch crashes spread over the
     * projected store horizon (0 = crash-free). Runs on past
     * @p min_acked only to let remaining scheduled crashes fire,
     * bounded by a batch cap.
     */
    ServeReport serve(uint64_t min_acked, uint32_t crash_points = 0);

    Device &device() { return dev_; }
    MegaKv &table() { return kv_; }

  private:
    /** One staged op; >1 arrivals means coalesced insert requests. */
    struct PendingOp {
        uint32_t key = 0;
        uint32_t value = 0;
        std::vector<uint64_t> arrivals;
    };

    /** A dispatched batch retained for crash replay. */
    struct Batch {
        OpType type = OpType::Search;
        uint32_t slot = 0; //!< checksum-store ring slot
        std::vector<PendingOp> ops;
    };

    void generateWindow(uint64_t win_start, uint64_t win_end,
                        ServeReport &report);
    int fullQueue() const;
    Batch takeBatch(int type);
    void stageBatch(const Batch &batch);
    LaunchResult launchBatch(const Batch &batch, const LpContext &ctx);
    void ackBatch(const Batch &batch, ServeReport &report);
    void ackRecoveredBatch(const Batch &batch, ServeReport &report);
    void checkpoint(ServeReport &report);
    void handleCrash(Batch crashed, const LpContext &crashed_ctx,
                     Cycles partial_cycles, ServeReport &report);
    RecoveryReport replayBatch(const Batch &batch, ServeReport &report);
    void foldLatency(uint64_t cycles, ServeReport &report);
    void audit(ServeReport &report);

    KvServerOptions opts_;
    Device dev_;
    NvmCache nvm_;
    MegaKv kv_;
    std::vector<std::unique_ptr<LpRuntime>> runtimes_; //!< the ring
    RequestGenerator gen_;
    Prng crash_rng_;

    std::vector<PendingOp> queues_[kNumOpTypes];
    std::unordered_map<uint32_t, size_t> pending_inserts_; //!< key -> queue idx

    /** Acknowledged truth: what a client who heard "ok" may expect. */
    std::unordered_map<uint32_t, uint32_t> ref_;

    /** Every value acked as a full-bucket drop, per key (a hot key
     *  can drop repeatedly with different values) — lets the audit
     *  tell a resurrected drop from a genuine phantom. */
    std::unordered_map<uint32_t, std::vector<uint32_t>> dropped_;

    std::vector<Batch> window_;   //!< committed mutations since last checkpoint
    uint32_t next_slot_ = 0;
    uint64_t now_ = 0;            //!< service clock (cycles)
    std::unique_ptr<CrashSchedule> schedule_;
    bool crash_armed_ = false;
    uint64_t armed_point_ = 0;
    bool served_ = false;
};

} // namespace gpulp::service

#endif // GPULP_SERVICE_SERVER_H
