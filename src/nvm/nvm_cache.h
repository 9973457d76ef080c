/**
 * @file
 * NVM persistency-domain model: a write-back set-associative cache in
 * front of a byte-addressable NVM device.
 *
 * Lazy Persistency's whole premise is that stores persist only when
 * their cache line is *naturally evicted*. This model makes that
 * concrete for the simulator:
 *
 *  - GlobalMemory always holds the current (volatile) contents;
 *  - a shadow buffer holds the NVM (persisted) contents;
 *  - every observed store dirties a cache line; evicting a dirty line
 *    copies its bytes from the arena into the shadow (a write-back);
 *  - crash() throws away all dirty lines and restores the shadow into
 *    the arena — the exact state a crash-recovery kernel would see;
 *  - persistAll() is the paper's periodic whole-cache flush /
 *    checkpoint: it publishes the entire arena to the shadow;
 *  - optionally (attachPersistLog / GPULP_NVM_DEVICE=file:<path>) a
 *    file-backed persist log mirrors every write-back as an appended
 *    CRC32-framed entry, making the persisted image survive a real
 *    process death — restoreFromLog() rebuilds it in a fresh process
 *    (see persist_log.h and tools/crash_harness).
 *
 * The model also counts NVM line reads/writes, which is the metric of
 * the paper's write-amplification study (Sec. VII-3): LP's only extra
 * NVM writes come from naturally-evicted checksum lines.
 *
 * Crash injection: arm the cache with crashAfterStores(n); once n more
 * stores have been observed the crashPending() flag latches, and the
 * kernel launcher aborts the in-flight grid with a simulated crash.
 *
 * Crash-at-store determinism: the latch is evaluated *before* the
 * triggering store touches the cache, and once crashPending() is set
 * the persistence domain freezes — late stores from in-flight workers
 * mutate no line, evict nothing, and persistAll()/flushRange() are
 * no-ops until crash() or disarmCrash() resolves the failure. The NVM
 * image after crash() therefore reflects at most the first n observed
 * stores. Under the parallel engine the *set* of observed stores up to
 * the latch is schedule-dependent (workers race), but the invariant
 * "nothing past the latch persists" holds at every worker count; at
 * workers=1 the crash point is exactly reproducible.
 */

#ifndef GPULP_NVM_NVM_CACHE_H
#define GPULP_NVM_NVM_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/zeroed_buffer.h"
#include "mem/memory.h"
#include "nvm/persist_log.h"

namespace gpulp {

/** Geometry and device timing of the NVM persistency domain. */
struct NvmParams {
    size_t cache_bytes = 6 * 1024 * 1024; //!< V100 L2: 6 MiB
    size_t line_bytes = 128;              //!< GPU cache-line/sector size
    size_t associativity = 16;

    // NVM device characteristics, matching the paper's GPGPU-Sim setup
    // (Sec. VII-3): 160 ns read, 480 ns write, 326.4 GB/s.
    double read_latency_ns = 160.0;
    double write_latency_ns = 480.0;
    double bandwidth_gbps = 326.4;
};

/** Counters accumulated by the cache/NVM model. */
struct NvmStats {
    uint64_t load_hits = 0;
    uint64_t load_misses = 0;
    uint64_t store_hits = 0;
    uint64_t store_misses = 0;
    uint64_t clean_evictions = 0;
    uint64_t dirty_evictions = 0;  //!< natural write-backs to NVM
    uint64_t flushed_lines = 0;    //!< write-backs forced by persistAll()
    uint64_t nvm_line_reads = 0;   //!< fills served from NVM
    uint64_t stores_observed = 0;
    uint64_t torn_lines = 0;       //!< dirty lines dropped by crash()
    uint64_t stores_after_crash = 0; //!< stores frozen out post-latch

    /** Total lines written to the NVM device (natural + flushed). */
    uint64_t nvmLineWrites() const { return dirty_evictions + flushed_lines; }
};

/**
 * Write-back LRU cache over GlobalMemory with an NVM shadow.
 *
 * Install via GlobalMemory::setObserver. While installed, every typed
 * read/write is tracked; host raw() accesses bypass the model and must
 * be followed by persistAll() if their effects should be durable.
 *
 * Layout: the line state is kept as compact per-way arrays, row-major
 * by set: a tag per way (kInvalidTag marks an empty way), a last-touch
 * stamp per way and a dirty flag per way, plus one most-recently-used
 * way per set. A line's tag is its address shifted by the line size;
 * its set is the tag modulo the set count. A lookup compares the set's
 * MRU way first and scans the set only when that compare fails, so a
 * hit on the line its set touched last costs one compare (on kv-zipf
 * about 6 hits in 10; EXPERIMENTS.md, "O(1) hits in the NVM cache
 * model"). The MRU way is a hint that checks itself: a set holds each
 * tag at most once, so the hint finds exactly the way the scan would,
 * and it never changes a decision. Hit or miss, the victim (the first
 * empty way, else the lowest-index way with the smallest stamp),
 * write-backs, NvmStats and the nvm.* counters are those of a plain
 * scan of every way.
 *
 * Thread safety: all observer and persistency entry points serialize
 * on an internal mutex, because the parallel block engine drives
 * onStore/onLoad from every worker concurrently. The way arrays and
 * the MRU ways are read and written only under it, hits included (a
 * hit moves its set's MRU way). The crash latch is a
 * lock-free atomic so kernel threads can poll crashPending() on every
 * device operation without contending. Note that with more than one
 * worker the *order* in which workers' stores reach the cache is
 * schedule-dependent, so NvmStats and the set/LRU state are not part
 * of the deterministic LaunchResult contract (persisted-image
 * correctness — which lines are dropped at a crash — is maintained
 * regardless).
 */
class NvmCache : public MemObserver
{
  public:
    /**
     * @param mem Arena whose persistency state is being modelled.
     * @param params Cache geometry and NVM device characteristics.
     */
    NvmCache(GlobalMemory &mem, const NvmParams &params = NvmParams{});

    // MemObserver interface -------------------------------------------------

    void onStore(Addr addr, size_t bytes) override;
    void onLoad(Addr addr, size_t bytes) override;
    void onReset() override;

    // File-backed device ----------------------------------------------------

    /**
     * Attach (or detach, with nullptr) a file-backed persist log: the
     * shadow becomes a cache of the log, and every line write-back
     * additionally appends a framed entry, so the persisted image
     * survives the death of this process. persistAll() appends only
     * the lines that diverged from the shadow, keeping the log's byte
     * count an honest device-level write-amplification measurement.
     * The caller keeps ownership and must outlive the attachment.
     */
    void attachPersistLog(PersistLog *log);

    /** Attached log, or nullptr (the default in-memory device). */
    PersistLog *persistLog() { return log_; }

    /**
     * Rebuild the persisted image from the attached log: every live
     * entry is copied into both the NVM shadow and the arena, exactly
     * what a fresh process does after a real crash (the log was opened
     * on the dead process's file and already truncated any torn
     * tail). The cache is invalidated; stats are untouched. Entries
     * must fall inside the arena — a mismatch means the recovering
     * process laid out memory differently and is a fatal error.
     */
    void restoreFromLog();

    // Persistency operations ------------------------------------------------

    /**
     * Publish the entire arena to the NVM shadow and mark every cached
     * line clean. Models a checkpoint / whole-cache flush; also the
     * correct way to make host-side raw() initialization durable.
     */
    void persistAll();

    /**
     * Simulate a power failure: every dirty line's contents are lost
     * and the arena is rewound to the NVM shadow. The cache is
     * invalidated. crashPending() is cleared.
     *
     * @return The number of dirty ("torn") lines whose contents were
     *         dropped — the damage recovery has to repair.
     */
    uint64_t crash();

    /** Drop all lines without writing anything back (test helper). */
    void invalidateAll();

    /**
     * Write back (without evicting) every line covering
     * [addr, addr+bytes) — the semantics of clwb, the x86 instruction
     * Eager Persistency builds on (Sec. I). Returns the number of
     * dirty lines actually written to NVM.
     */
    uint64_t flushRange(Addr addr, size_t bytes);

    /**
     * Make [addr, addr+bytes) durable regardless of how it was written:
     * cached dirty lines in the range are cleaned, and any line whose
     * arena bytes diverge from the shadow is published (host raw()
     * writes never go through the observer, so a plain flushRange()
     * would miss them). The targeted counterpart of persistAll() —
     * recovery metadata resets use it so clearing a commit flag is as
     * durable as setting one was. No-op while a crash is pending.
     */
    void persistRange(Addr addr, size_t bytes);

    // Crash injection --------------------------------------------------------

    /** Latch crashPending() after @p stores more observed stores. */
    void crashAfterStores(uint64_t stores);

    /**
     * Register an action to run the instant the crash latch trips
     * (before the freeze takes effect and before the abort notifier).
     * tools/crash_harness points this at raise(SIGKILL) so the armed
     * store countdown kills the process for real instead of simulating
     * a power failure — the action may never return. Invoked with the
     * cache's mutex held.
     */
    void
    setCrashLatchAction(std::function<void()> fn)
    {
        std::lock_guard<std::mutex> lk(mu_);
        crash_latch_action_ = std::move(fn);
    }

    /** Disarm any pending crash trigger. */
    void disarmCrash();

    /** True once the armed store countdown has expired (lock-free). */
    bool
    crashPending() const
    {
        return crash_pending_.load(std::memory_order_acquire);
    }

    /**
     * Register @p fn (or clear with an empty function) to be invoked
     * exactly when the crash latch trips. Device::launch points this at
     * RankGate::notifyAbort so workers parked on the gate wake the
     * moment power "fails" instead of waiting for a frontier advance
     * that may never come. Invoked with the cache's mutex held — the
     * callee must not re-enter the cache.
     */
    void
    setAbortNotifier(std::function<void()> fn)
    {
        std::lock_guard<std::mutex> lk(mu_);
        abort_notifier_ = std::move(fn);
    }

    // Introspection ----------------------------------------------------------

    /**
     * True if every byte of [addr, addr+bytes) is durable, i.e. the NVM
     * image already matches the current arena contents.
     */
    bool isPersisted(Addr addr, size_t bytes) const;

    /** Read @p bytes of the *persisted* image (test/validation helper). */
    void readPersisted(Addr addr, size_t bytes, void *out) const;

    /** Counters since construction or resetStats(). */
    NvmStats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return stats_;
    }

    /** Zero the counters (cache contents are kept). */
    void
    resetStats()
    {
        std::lock_guard<std::mutex> lk(mu_);
        stats_ = NvmStats{};
    }

    /** Model parameters in force. */
    const NvmParams &params() const { return params_; }

    /** Nanoseconds the NVM device spent on reads+writes so far. */
    double nvmDeviceTimeNs() const;

  private:
    /** Tag of an empty way; no line of a real arena has this index. */
    static constexpr uint64_t kInvalidTag = UINT64_MAX;

    /** Returned by findWay() when the line is not cached. */
    static constexpr size_t kNoWay = SIZE_MAX;

    /** Set the line with tag @p tag maps to. */
    size_t setOf(uint64_t tag) const { return tag % sets_; }

    /** Byte address of the first byte of line @p tag. */
    Addr lineAddr(uint64_t tag) const { return tag << line_shift_; }

    /** Index into the way arrays of line @p tag in @p set, or kNoWay. */
    size_t findWay(uint64_t tag, size_t set) const;

    /** Touch line @p tag; returns hit/miss. */
    bool access(uint64_t tag, bool is_store);

    /** Empty every way (dirty contents are dropped, not written back). */
    void invalidateLines();

    /** Number of dirty ways. Only a cached line can be dirty. */
    uint64_t countDirty() const;

    /** Write a line's current arena bytes into the shadow (and append
     *  it to the persist log when one is attached). */
    void writebackLine(uint64_t tag);

    /** Append every line of [0, used) where arena != shadow to the
     *  log; the diff that makes persistAll() honest at the device. */
    void logDivergedLines();

    GlobalMemory &mem_;
    NvmParams params_;
    size_t sets_;
    unsigned line_shift_;     //!< log2(line_bytes)
    // Per-way line state, sets_ x associativity, row-major by set.
    std::vector<uint64_t> tags_;   //!< line index, or kInvalidTag
    std::vector<uint64_t> stamps_; //!< last-touch tick of a cached line
    std::vector<uint8_t> dirty_;   //!< 1 while the way holds unwritten stores
    std::vector<size_t> mru_;      //!< per set: way of the latest hit/fill
    ZeroedBuffer shadow_;
    uint64_t tick_ = 0;
    NvmStats stats_;

    /** Guards the way arrays, shadow_, tick_, stats_ and the crash
     *  countdown. */
    mutable std::mutex mu_;

    PersistLog *log_ = nullptr; //!< optional file-backed device

    bool crash_armed_ = false;
    std::atomic<bool> crash_pending_{false};
    uint64_t crash_countdown_ = 0;
    std::function<void()> abort_notifier_; //!< fired when the latch trips
    std::function<void()> crash_latch_action_; //!< e.g. raise(SIGKILL)
};

} // namespace gpulp

#endif // GPULP_NVM_NVM_CACHE_H
