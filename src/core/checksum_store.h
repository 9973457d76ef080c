/**
 * @file
 * Checksum stores: where per-region checksums live in device memory.
 *
 * Three organizations, matching Sec. IV-C and Sec. V of the paper:
 *
 *  - QuadProbeTable: open addressing with a quadratic probe sequence
 *    (Fig. 3 right). Lock-free insertion claims the key slot with
 *    atomicCAS; the paper recommends load factors of at most ~70%.
 *
 *  - CuckooTable: two tables with independent hash functions (Fig. 4);
 *    insertion evicts the incumbent with atomicExch and re-places it in
 *    the other table. Load factor below 50%. Eviction cycles fall back
 *    to a small linear-probed stash (standing in for the paper's
 *    rehash, which is not implementable mid-kernel).
 *
 *  - GlobalArrayStore (Sec. V, the paper's contribution): one slot per
 *    thread block, indexed directly by block ID. Collision-free,
 *    race-free, 100% load factor, minimum space.
 *
 * Beyond the paper, Bucket2OptTable is a bucketized two-choice table
 * guarded by per-bucket seqlocks (docs/CHECKSUM_TABLES.md §4).
 *
 * The paper's two hashed tables support three insertion disciplines
 * (LockMode): lock-free atomics, one table-wide spin lock, or the
 * CAS-free plain-load/compare/store sequence of Sec. IV-D.3 (modelled
 * as dependent global round-trips plus a verification poll loop).
 *
 * Instrumentation counters (collisions, probes, kicks) are host-side
 * only and never perturb the timing model — they reproduce Table II.
 * insert() runs on parallel block workers, so the counters are bumped
 * with relaxed host atomics; the sums are commutative and therefore
 * identical at any worker count. Read stats() only between launches.
 */

#ifndef GPULP_CORE_CHECKSUM_STORE_H
#define GPULP_CORE_CHECKSUM_STORE_H

#include <atomic>
#include <memory>
#include <string>

#include "core/checksum.h"
#include "core/lp_config.h"
#include "mem/memory.h"
#include "sim/device.h"

namespace gpulp {

/** Key slot value marking an empty hashed-table entry. */
constexpr uint32_t kEmptyKey = 0xffffffffu;

/**
 * Historical sentinel that marked a never-written global-array slot.
 *
 * Using an in-band payload value for "never written" is ambiguous: a
 * region whose true sum *and* parity both fold to 0xffffffff would be
 * indistinguishable from an unwritten slot, and validation would
 * mis-mark a healthy block as failed. GlobalArrayStore therefore keeps
 * an out-of-band valid byte per slot and treats every payload value —
 * including this one — as legal. The constant remains only so tests
 * can construct the worst-case payload.
 */
constexpr uint32_t kUnwrittenChecksum = 0xffffffffu;

/** Insertion/collision counters for one store (Table II). */
struct StoreStats {
    uint64_t inserts = 0;
    uint64_t collisions = 0;   //!< occupied probes / eviction kicks
    uint64_t probes = 0;       //!< total probe attempts (quad/bucket2opt)
    uint64_t kicks = 0;        //!< total evictions performed (cuckoo)
    uint64_t stash_inserts = 0;//!< cuckoo/bucket2opt cycle fallbacks
    uint64_t displacements = 0;//!< bucket2opt move-to-alternate-bucket events
    uint64_t opt_retries = 0;  //!< bucket2opt optimistic restarts

    bool operator==(const StoreStats &) const = default;
};

/**
 * Abstract checksum store. insert() runs on the device (one thread per
 * LP region calls it and pays its cost); lookup() is host-side and only
 * used by crash recovery, which is off the critical path.
 */
class ChecksumStore
{
  public:
    virtual ~ChecksumStore() = default;

    /**
     * Insert (or overwrite, when re-executed by recovery) the checksum
     * for region @p key. Must be called by exactly one thread per
     * region; charges that thread's cycle counter.
     */
    virtual void insert(ThreadCtx &t, uint32_t key, Checksums cs) = 0;

    /**
     * Host-side lookup for crash validation. Returns false when no
     * entry for @p key survives in (post-crash) memory.
     */
    virtual bool lookup(uint32_t key, Checksums *out) const = 0;

    /**
     * Host-side erase (retire a region's checksum, e.g. when an arena
     * reset recycles block IDs). Returns false when the backend does
     * not support erasure or the key is absent. The open-addressed
     * QuadProbeTable and the CuckooTable keep the default: removing a
     * key from a probe/eviction chain would break lookups of the keys
     * behind it without tombstone machinery neither table carries.
     * Bucketized and global-array backends override it.
     */
    virtual bool
    erase(uint32_t key)
    {
        (void)key;
        return false;
    }

    /** Re-initialize every slot to empty (host-side). */
    virtual void clear() = 0;

    /** Total entry capacity. */
    virtual uint64_t capacity() const = 0;

    /** Device-memory footprint in bytes (Table V space overhead). */
    virtual uint64_t footprintBytes() const = 0;

    /** Short name for reports. */
    virtual const char *name() const = 0;

    /** Instrumentation counters since the last clear(). */
    const StoreStats &stats() const { return stats_; }

  protected:
    /**
     * Increment a StoreStats counter from device code. insert() bodies
     * run concurrently on the block workers, so plain ++ would race;
     * a relaxed fetch_add keeps the (commutative) totals exact.
     */
    static void
    bump(uint64_t &counter)
    {
        std::atomic_ref<uint64_t>(counter).fetch_add(
            1, std::memory_order_relaxed);
    }

    StoreStats stats_;
};

/** Quadratic-probing open-addressed table. */
class QuadProbeTable : public ChecksumStore
{
  public:
    /**
     * @param dev Device whose memory backs the table.
     * @param num_keys Number of distinct keys (thread blocks) expected.
     * @param mode Insertion discipline.
     * @param load_factor Target load factor; <=0 uses the 0.7 default.
     */
    QuadProbeTable(Device &dev, uint64_t num_keys, LockMode mode,
                   double load_factor = 0.0);

    void insert(ThreadCtx &t, uint32_t key, Checksums cs) override;
    bool lookup(uint32_t key, Checksums *out) const override;
    void clear() override;
    uint64_t capacity() const override { return capacity_; }
    uint64_t footprintBytes() const override;
    const char *name() const override { return "quad"; }

  private:
    /** Slot visited on the @p i-th probe for hash @p h. */
    uint64_t probeSlot(uint32_t h, uint64_t i) const;

    /** Probe attempts before the insert loop gives up. */
    uint64_t maxProbes() const { return 2 * capacity_; }

    Addr keyAddr(uint64_t slot) const;
    Addr payloadAddr(uint64_t slot) const;

    void insertLockFree(ThreadCtx &t, uint32_t key, Checksums cs);
    void insertLockBased(ThreadCtx &t, uint32_t key, Checksums cs);
    void insertNoAtomic(ThreadCtx &t, uint32_t key, Checksums cs);

    Device &dev_;
    LockMode mode_;
    uint64_t capacity_; //!< exact sizing from the target load factor
    Addr entries_;      //!< capacity_ x 16B {key, sum, parity, pad}
    Addr lock_;         //!< table-wide lock word (LockBased)
};

/** Two-table cuckoo hash table. */
class CuckooTable : public ChecksumStore
{
  public:
    /** Maximum eviction-chain length before falling back to the stash. */
    static constexpr uint32_t kMaxKicks = 32;

    /**
     * @param dev Device whose memory backs the tables.
     * @param num_keys Number of distinct keys expected.
     * @param mode Insertion discipline.
     * @param load_factor Target *total* load factor; <=0 uses 0.45.
     */
    CuckooTable(Device &dev, uint64_t num_keys, LockMode mode,
                double load_factor = 0.0);

    void insert(ThreadCtx &t, uint32_t key, Checksums cs) override;
    bool lookup(uint32_t key, Checksums *out) const override;
    void clear() override;
    uint64_t capacity() const override;
    uint64_t footprintBytes() const override;
    const char *name() const override { return "cuckoo"; }

  private:
    uint32_t hashOf(uint32_t table, uint32_t key) const;
    Addr keyAddr(uint32_t table, uint64_t slot) const;
    Addr payloadAddr(uint32_t table, uint64_t slot) const;

    void insertLockFree(ThreadCtx &t, uint32_t key, Checksums cs);
    void insertLockBased(ThreadCtx &t, uint32_t key, Checksums cs);
    void insertNoAtomic(ThreadCtx &t, uint32_t key, Checksums cs);

    /** Last-resort linear-probed stash for eviction cycles. */
    void stashInsert(ThreadCtx &t, uint32_t key, Checksums cs);

    Device &dev_;
    LockMode mode_;
    uint64_t per_table_;  //!< slots per table (exact sizing)
    Addr tables_[2];
    Addr stash_;
    uint64_t stash_slots_;
    Addr lock_;
};

/**
 * Bucketized power-of-two-choices table (WarpSpeed-style) with
 * optimistic per-bucket versions.
 *
 * Entries live in fixed-width buckets of kBucketWidth slots; each key
 * hashes to two candidate buckets and is inserted into the lighter
 * one. A bucket probe is warp-cooperative on real hardware — the
 * warp's lanes each read one slot of the (single-cache-line-sized)
 * bucket — so probe cost is counted per bucket visited, not per slot.
 * When both candidate buckets are full, one incumbent whose alternate
 * bucket has room is displaced there (bounded attempts), and a small
 * linear stash catches the rare residue. Dense buckets keep lookups
 * bounded at load factors past 90%, where quadratic probing's chains
 * explode and cuckoo insertion stops terminating.
 *
 * Concurrency control is a per-bucket seqlock: each bucket carries a
 * 32-bit version word, even when quiescent. Writers claim a bucket by
 * CASing its version even -> odd, mutate slots with plain stores, and
 * release by bumping to the next even value. Readers (the device-side
 * probe() and host-side lookup()) snapshot the version, probe with
 * plain loads, and re-check that the version is unchanged AND even —
 * the parity check is what rules out reading a bucket mid-write, and
 * omitting it is the classic seqlock torn-read bug (see
 * OptimisticStoreTest.TornPayloadNeverObserved). Any mismatch restarts
 * the probe and counts an optimistic retry.
 *
 * Displacement touches two buckets; version claims are always taken in
 * ascending bucket-index order so concurrent displacers cannot
 * deadlock. LockMode does not apply: the backend is its own (lock-free
 * optimistic) discipline and ignores LpConfig::lock.
 */
class Bucket2OptTable : public ChecksumStore
{
  public:
    /** Slots per bucket (one 128 B bucket = one warp-wide read). */
    static constexpr uint32_t kBucketWidth = 8;

    /** Displacement attempts before falling back to the stash. */
    static constexpr uint32_t kMaxDisplacements = 16;

    /**
     * @param dev Device whose memory backs the table.
     * @param num_keys Number of distinct keys (thread blocks) expected.
     * @param load_factor Target load factor; <=0 uses the 0.9 default.
     */
    Bucket2OptTable(Device &dev, uint64_t num_keys,
                    double load_factor = 0.0);

    void insert(ThreadCtx &t, uint32_t key, Checksums cs) override;
    bool lookup(uint32_t key, Checksums *out) const override;
    bool erase(uint32_t key) override;
    void clear() override;
    uint64_t capacity() const override;
    uint64_t footprintBytes() const override;
    const char *name() const override { return "bucket2opt"; }

    /**
     * Device-side optimistic probe (the read path a warp would run).
     * Returns false when @p key is in neither candidate bucket nor the
     * stash. Retries torn snapshots; never returns a torn payload.
     */
    bool probe(ThreadCtx &t, uint32_t key, Checksums *out);

  private:
    /** White-box peer: tests construct crash-torn version/slot states
     *  (odd version word, half-written payload) directly in memory. */
    friend struct Bucket2OptTestPeer;

    uint64_t bucketOf(uint32_t key, uint32_t choice) const;
    Addr versionAddr(uint64_t bucket) const;
    Addr keyAddr(uint64_t bucket, uint32_t slot) const;
    Addr payloadAddr(uint64_t bucket, uint32_t slot) const;

    /** Spin until the bucket's version is claimed even -> odd. */
    uint32_t bucketAcquire(ThreadCtx &t, uint64_t bucket);
    void bucketRelease(ThreadCtx &t, uint64_t bucket, uint32_t claimed);

    /**
     * Holding @p bucket's version claim, write @p key / @p cs into an
     * empty or matching slot. Returns false when the bucket is full of
     * other keys.
     */
    bool tryPlaceLocked(ThreadCtx &t, uint64_t bucket, uint32_t key,
                        Checksums cs);

    /** Two-bucket displacement (ascending-order claims). */
    bool displace(ThreadCtx &t, uint64_t bucket, uint32_t key,
                  Checksums cs);

    void stashInsert(ThreadCtx &t, uint32_t key, Checksums cs);

    Device &dev_;
    uint64_t num_buckets_;
    Addr buckets_;
    Addr versions_; //!< num_buckets_ x uint32 seqlock words
    Addr stash_;
    uint64_t stash_slots_;
};

/** The paper's hash-table-less checksum global array (Sec. V). */
class GlobalArrayStore : public ChecksumStore
{
  public:
    GlobalArrayStore(Device &dev, uint64_t num_keys);

    void insert(ThreadCtx &t, uint32_t key, Checksums cs) override;
    bool lookup(uint32_t key, Checksums *out) const override;
    bool erase(uint32_t key) override;
    void clear() override;
    uint64_t capacity() const override { return num_keys_; }
    uint64_t footprintBytes() const override { return num_keys_ * 9; }
    const char *name() const override { return "array"; }

  private:
    Addr slotAddr(uint32_t key) const;
    Addr validAddr(uint32_t key) const;

    Device &dev_;
    uint64_t num_keys_;
    Addr slots_; //!< num_keys x {sum, parity}
    Addr valid_; //!< num_keys x uint8 occupancy flags
};

/** Construct the store selected by @p cfg for @p num_keys regions. */
std::unique_ptr<ChecksumStore> makeChecksumStore(Device &dev,
                                                 const LpConfig &cfg,
                                                 uint64_t num_keys);

/** Fibonacci/murmur-style 32-bit mixing hash used by the tables. */
uint32_t mixHash(uint32_t key, uint32_t seed);

} // namespace gpulp

#endif // GPULP_CORE_CHECKSUM_STORE_H
