#include "checksum_store.h"

#include <algorithm>
#include <cstring>

#include "obs/counters.h"

namespace gpulp {

namespace {

/** Entry stride for hashed tables: {key, sum, parity, pad}. */
constexpr uint64_t kEntryBytes = 16;

/**
 * Verification polls of the CAS-free quad insert (Sec. IV-D.3).
 * Without atomicCAS, racing claimants can overwrite each other's slot
 * claims, so a correct implementation must re-poll global memory until
 * the claim is stable. The count is calibrated so the end-to-end
 * slowdown lands in the paper's ">16x" regime.
 */
constexpr uint32_t kNoAtomicVerifyPolls = 384;

/** Default load factors recommended by the paper. */
constexpr double kQuadDefaultLoad = 0.7;
constexpr double kCuckooDefaultLoad = 0.45;

/**
 * Default load factor for the bucketized two-choice table. Fixed-width
 * buckets keep probe cost bounded (two bucket reads) well past the
 * open-addressing cliffs, so it defaults to the >90% regime the
 * WarpSpeed line of work targets.
 */
constexpr double kBucketDefaultLoad = 0.9;

/** Hash seeds for the two bucket choices. */
constexpr uint32_t kBucketSeedA = 0x7feb352du;
constexpr uint32_t kBucketSeedB = 0x846ca68bu;

/** Smallest odd integer >= n (odd table sizes spread probe cycles). */
uint64_t
ceilOdd(uint64_t n)
{
    return n | 1;
}

} // namespace

uint32_t
mixHash(uint32_t key, uint32_t seed)
{
    uint32_t x = key + seed * 0x9e3779b9u;
    x ^= x >> 16;
    x *= 0x85ebca6bu;
    x ^= x >> 13;
    x *= 0xc2b2ae35u;
    x ^= x >> 16;
    return x;
}

// ---------------------------------------------------------------------
// QuadProbeTable
// ---------------------------------------------------------------------

QuadProbeTable::QuadProbeTable(Device &dev, uint64_t num_keys,
                               LockMode mode, double load_factor)
    : dev_(dev), mode_(mode)
{
    double lf = load_factor > 0.0 ? load_factor : kQuadDefaultLoad;
    GPULP_ASSERT(lf > 0.0 && lf <= 1.0, "bad load factor %f", lf);
    // Exact sizing: the measured load factor must match the target, or
    // the collision behaviour of Table II cannot be reproduced.
    capacity_ = ceilOdd(static_cast<uint64_t>(
        static_cast<double>(num_keys) / lf + 1.0));
    entries_ = dev_.mem().alloc(capacity_ * kEntryBytes);
    lock_ = dev_.mem().alloc(4);
    // The CAS-free discipline (Sec. IV-D.3) touches the table with
    // plain accesses only, so nothing rank-gates it under the parallel
    // block engine; declare the table an ordered region to keep its
    // racy-by-design probe outcomes deterministic. The atomic and
    // lock-based disciplines gate on their own first CAS / lock
    // acquire and need no declaration.
    if (mode_ == LockMode::NoAtomic)
        dev_.addOrderedRegion(entries_, capacity_ * kEntryBytes);
    obs::observe(obs::Hist::StoreLoadFactorPct,
                 static_cast<uint64_t>(lf * 100.0 + 0.5));
    clear();
}

uint64_t
QuadProbeTable::probeSlot(uint32_t h, uint64_t i) const
{
    // Quadratic (triangular-number) probing for the first lap; after
    // capacity_ attempts fall back to a linear sweep, which guarantees
    // every slot is eventually visited for any table size.
    if (i < capacity_)
        return (h + i * (i + 1) / 2) % capacity_;
    return (h + i) % capacity_;
}

Addr
QuadProbeTable::keyAddr(uint64_t slot) const
{
    return entries_ + slot * kEntryBytes;
}

Addr
QuadProbeTable::payloadAddr(uint64_t slot) const
{
    return entries_ + slot * kEntryBytes + 4;
}

void
QuadProbeTable::insert(ThreadCtx &t, uint32_t key, Checksums cs)
{
    GPULP_ASSERT(key != kEmptyKey, "key collides with the empty marker");
    bump(stats_.inserts);
    obs::add(obs::Ctr::StoreQuadInserts);
    switch (mode_) {
      case LockMode::LockFree:
        insertLockFree(t, key, cs);
        break;
      case LockMode::LockBased:
        insertLockBased(t, key, cs);
        break;
      case LockMode::NoAtomic:
        insertNoAtomic(t, key, cs);
        break;
    }
}

void
QuadProbeTable::insertLockFree(ThreadCtx &t, uint32_t key, Checksums cs)
{
    uint32_t h = mixHash(key, 0x1234567u);
    for (uint64_t i = 0; i < maxProbes(); ++i) {
        uint64_t slot = probeSlot(h, i);
        bump(stats_.probes);
        obs::add(obs::Ctr::StoreQuadProbes);
        uint32_t old = t.atomicCAS(keyAddr(slot), kEmptyKey, key);
        if (old == kEmptyKey || old == key) {
            // Claimed (or re-inserting after recovery re-execution):
            // payload written plainly after the claim.
            t.storeAddr<uint32_t>(payloadAddr(slot), cs.sum);
            t.storeAddr<uint32_t>(payloadAddr(slot) + 4, cs.parity);
            obs::observe(obs::Hist::StoreQuadProbeLen, i + 1);
            return;
        }
        bump(stats_.collisions);
        obs::add(obs::Ctr::StoreQuadCollisions);
    }
    GPULP_PANIC("quad table full (%llu slots)",
                static_cast<unsigned long long>(capacity_));
}

void
QuadProbeTable::insertLockBased(ThreadCtx &t, uint32_t key, Checksums cs)
{
    t.lockAcquire(lock_);
    obs::add(obs::Ctr::StoreLockAcquires);
    uint32_t h = mixHash(key, 0x1234567u);
    for (uint64_t i = 0; i < maxProbes(); ++i) {
        uint64_t slot = probeSlot(h, i);
        bump(stats_.probes);
        obs::add(obs::Ctr::StoreQuadProbes);
        uint32_t old = t.loadAddr<uint32_t>(keyAddr(slot));
        if (old == kEmptyKey || old == key) {
            t.storeAddr<uint32_t>(keyAddr(slot), key);
            t.storeAddr<uint32_t>(payloadAddr(slot), cs.sum);
            t.storeAddr<uint32_t>(payloadAddr(slot) + 4, cs.parity);
            obs::observe(obs::Hist::StoreQuadProbeLen, i + 1);
            t.lockRelease(lock_);
            return;
        }
        bump(stats_.collisions);
        obs::add(obs::Ctr::StoreQuadCollisions);
    }
    t.lockRelease(lock_);
    GPULP_PANIC("quad table full (%llu slots)",
                static_cast<unsigned long long>(capacity_));
}

void
QuadProbeTable::insertNoAtomic(ThreadCtx &t, uint32_t key, Checksums cs)
{
    // Sec. IV-D.3: atomicCAS replaced by "if condition to comparison
    // and swap". Each probe becomes a dependent global round trip, and
    // claiming a slot safely without CAS requires a write-then-verify
    // poll loop (racing claimants may overwrite the key), which is what
    // makes this variant more than an order of magnitude slower.
    const Cycles rt = t.params().global_roundtrip_cycles;
    uint32_t h = mixHash(key, 0x1234567u);
    for (uint64_t i = 0; i < maxProbes(); ++i) {
        uint64_t slot = probeSlot(h, i);
        bump(stats_.probes);
        obs::add(obs::Ctr::StoreQuadProbes);
        uint32_t old = t.loadAddr<uint32_t>(keyAddr(slot));
        t.stall(rt);
        if (old == kEmptyKey || old == key) {
            t.storeAddr<uint32_t>(keyAddr(slot), key);
            t.stall(rt);
            t.storeAddr<uint32_t>(payloadAddr(slot), cs.sum);
            t.storeAddr<uint32_t>(payloadAddr(slot) + 4, cs.parity);
            // Verify the claim stuck; other claimants may race us.
            for (uint32_t poll = 0; poll < kNoAtomicVerifyPolls; ++poll) {
                (void)t.loadAddr<uint32_t>(keyAddr(slot));
                t.stall(rt);
            }
            obs::observe(obs::Hist::StoreQuadProbeLen, i + 1);
            return;
        }
        bump(stats_.collisions);
        obs::add(obs::Ctr::StoreQuadCollisions);
    }
    GPULP_PANIC("quad table full (%llu slots)",
                static_cast<unsigned long long>(capacity_));
}

bool
QuadProbeTable::lookup(uint32_t key, Checksums *out) const
{
    uint32_t h = mixHash(key, 0x1234567u);
    const GlobalMemory &mem = dev_.mem();
    for (uint64_t i = 0; i < maxProbes(); ++i) {
        uint64_t slot = probeSlot(h, i);
        const char *entry = mem.raw(keyAddr(slot));
        uint32_t stored;
        std::memcpy(&stored, entry, 4);
        if (stored == key) {
            std::memcpy(&out->sum, entry + 4, 4);
            std::memcpy(&out->parity, entry + 8, 4);
            return true;
        }
        if (stored == kEmptyKey)
            return false;
    }
    return false;
}

void
QuadProbeTable::clear()
{
    GlobalMemory &mem = dev_.mem();
    for (uint64_t slot = 0; slot < capacity_; ++slot) {
        char *entry = mem.raw(keyAddr(slot));
        uint32_t empty = kEmptyKey;
        std::memcpy(entry, &empty, 4);
        std::memset(entry + 4, 0, 12);
    }
    *reinterpret_cast<uint32_t *>(mem.raw(lock_)) = 0;
    stats_ = StoreStats{};
}

uint64_t
QuadProbeTable::footprintBytes() const
{
    return capacity_ * kEntryBytes;
}

// ---------------------------------------------------------------------
// CuckooTable
// ---------------------------------------------------------------------

CuckooTable::CuckooTable(Device &dev, uint64_t num_keys, LockMode mode,
                         double load_factor)
    : dev_(dev), mode_(mode)
{
    double lf = load_factor > 0.0 ? load_factor : kCuckooDefaultLoad;
    GPULP_ASSERT(lf > 0.0 && lf <= 1.0, "bad load factor %f", lf);
    uint64_t total = static_cast<uint64_t>(
        static_cast<double>(num_keys) / lf + 1.0);
    per_table_ = ceilOdd((total + 1) / 2);
    tables_[0] = dev_.mem().alloc(per_table_ * kEntryBytes);
    tables_[1] = dev_.mem().alloc(per_table_ * kEntryBytes);
    // Eviction cycles get likelier with more keys; scale the stash.
    stash_slots_ = std::max<uint64_t>(64, num_keys / 64);
    stash_ = dev_.mem().alloc(stash_slots_ * kEntryBytes);
    lock_ = dev_.mem().alloc(4);
    // See QuadProbeTable: only the plain-access discipline needs its
    // tables declared ordered (the stash always claims via atomicCAS,
    // which gates on its own).
    if (mode_ == LockMode::NoAtomic) {
        dev_.addOrderedRegion(tables_[0], per_table_ * kEntryBytes);
        dev_.addOrderedRegion(tables_[1], per_table_ * kEntryBytes);
    }
    obs::observe(obs::Hist::StoreLoadFactorPct,
                 static_cast<uint64_t>(lf * 100.0 + 0.5));
    clear();
}

uint32_t
CuckooTable::hashOf(uint32_t table, uint32_t key) const
{
    return static_cast<uint32_t>(
        mixHash(key, table == 0 ? 0xdeadbeefu : 0xcafef00du) %
        per_table_);
}

Addr
CuckooTable::keyAddr(uint32_t table, uint64_t slot) const
{
    return tables_[table] + slot * kEntryBytes;
}

Addr
CuckooTable::payloadAddr(uint32_t table, uint64_t slot) const
{
    return tables_[table] + slot * kEntryBytes + 4;
}

void
CuckooTable::insert(ThreadCtx &t, uint32_t key, Checksums cs)
{
    GPULP_ASSERT(key != kEmptyKey, "key collides with the empty marker");
    bump(stats_.inserts);
    obs::add(obs::Ctr::StoreCuckooInserts);
    switch (mode_) {
      case LockMode::LockFree:
        insertLockFree(t, key, cs);
        break;
      case LockMode::LockBased:
        insertLockBased(t, key, cs);
        break;
      case LockMode::NoAtomic:
        insertNoAtomic(t, key, cs);
        break;
    }
}

void
CuckooTable::insertLockFree(ThreadCtx &t, uint32_t key, Checksums cs)
{
    uint32_t cur_key = key;
    Checksums cur = cs;
    uint32_t table = 0;
    for (uint32_t kick = 0; kick < kMaxKicks; ++kick) {
        uint64_t slot = hashOf(table, cur_key);
        uint32_t old_key = t.atomicExch(keyAddr(table, slot), cur_key);
        // The payload travels with a pair of plain stores after the
        // exchange, as in the paper's implementation.
        Checksums old_cs;
        old_cs.sum = t.loadAddr<uint32_t>(payloadAddr(table, slot));
        old_cs.parity =
            t.loadAddr<uint32_t>(payloadAddr(table, slot) + 4);
        t.storeAddr<uint32_t>(payloadAddr(table, slot), cur.sum);
        t.storeAddr<uint32_t>(payloadAddr(table, slot) + 4, cur.parity);
        if (old_key == kEmptyKey || old_key == cur_key)
            return;
        bump(stats_.collisions);
        bump(stats_.kicks);
        obs::add(obs::Ctr::StoreCuckooCollisions);
        obs::add(obs::Ctr::StoreCuckooKicks);
        cur_key = old_key;
        cur = old_cs;
        table ^= 1;
    }
    // Eviction cycle: the paper rehashes with new tables/functions; a
    // mid-kernel rehash is not possible, so the displaced key lands in
    // the stash (bounded, linear-probed).
    stashInsert(t, cur_key, cur);
}

void
CuckooTable::insertLockBased(ThreadCtx &t, uint32_t key, Checksums cs)
{
    t.lockAcquire(lock_);
    obs::add(obs::Ctr::StoreLockAcquires);
    uint32_t cur_key = key;
    Checksums cur = cs;
    uint32_t table = 0;
    for (uint32_t kick = 0; kick < kMaxKicks; ++kick) {
        uint64_t slot = hashOf(table, cur_key);
        uint32_t old_key = t.loadAddr<uint32_t>(keyAddr(table, slot));
        Checksums old_cs;
        old_cs.sum = t.loadAddr<uint32_t>(payloadAddr(table, slot));
        old_cs.parity =
            t.loadAddr<uint32_t>(payloadAddr(table, slot) + 4);
        t.storeAddr<uint32_t>(keyAddr(table, slot), cur_key);
        t.storeAddr<uint32_t>(payloadAddr(table, slot), cur.sum);
        t.storeAddr<uint32_t>(payloadAddr(table, slot) + 4, cur.parity);
        if (old_key == kEmptyKey || old_key == cur_key) {
            t.lockRelease(lock_);
            return;
        }
        bump(stats_.collisions);
        bump(stats_.kicks);
        obs::add(obs::Ctr::StoreCuckooCollisions);
        obs::add(obs::Ctr::StoreCuckooKicks);
        cur_key = old_key;
        cur = old_cs;
        table ^= 1;
    }
    t.lockRelease(lock_);
    stashInsert(t, cur_key, cur);
}

void
CuckooTable::insertNoAtomic(ThreadCtx &t, uint32_t key, Checksums cs)
{
    // atomicExch replaced by a three-step swap through a temporary
    // (Sec. IV-D.3): each kick costs two dependent global round trips.
    const Cycles rt = t.params().global_roundtrip_cycles;
    uint32_t cur_key = key;
    Checksums cur = cs;
    uint32_t table = 0;
    for (uint32_t kick = 0; kick < kMaxKicks; ++kick) {
        uint64_t slot = hashOf(table, cur_key);
        uint32_t old_key = t.loadAddr<uint32_t>(keyAddr(table, slot));
        t.stall(rt);
        Checksums old_cs;
        old_cs.sum = t.loadAddr<uint32_t>(payloadAddr(table, slot));
        old_cs.parity =
            t.loadAddr<uint32_t>(payloadAddr(table, slot) + 4);
        t.storeAddr<uint32_t>(keyAddr(table, slot), cur_key);
        t.stall(rt);
        t.storeAddr<uint32_t>(payloadAddr(table, slot), cur.sum);
        t.storeAddr<uint32_t>(payloadAddr(table, slot) + 4, cur.parity);
        if (old_key == kEmptyKey || old_key == cur_key)
            return;
        bump(stats_.collisions);
        bump(stats_.kicks);
        obs::add(obs::Ctr::StoreCuckooCollisions);
        obs::add(obs::Ctr::StoreCuckooKicks);
        cur_key = old_key;
        cur = old_cs;
        table ^= 1;
    }
    stashInsert(t, cur_key, cur);
}

void
CuckooTable::stashInsert(ThreadCtx &t, uint32_t key, Checksums cs)
{
    bump(stats_.stash_inserts);
    obs::add(obs::Ctr::StoreCuckooStashInserts);
    for (uint64_t slot = 0; slot < stash_slots_; ++slot) {
        Addr entry = stash_ + slot * kEntryBytes;
        uint32_t old = t.atomicCAS(entry, kEmptyKey, key);
        if (old == kEmptyKey || old == key) {
            t.storeAddr<uint32_t>(entry + 4, cs.sum);
            t.storeAddr<uint32_t>(entry + 8, cs.parity);
            return;
        }
    }
    GPULP_PANIC("cuckoo stash overflow; raise the load-factor margin");
}

bool
CuckooTable::lookup(uint32_t key, Checksums *out) const
{
    const GlobalMemory &mem = dev_.mem();
    for (uint32_t table = 0; table < 2; ++table) {
        uint64_t slot = hashOf(table, key);
        const char *entry = mem.raw(keyAddr(table, slot));
        uint32_t stored;
        std::memcpy(&stored, entry, 4);
        if (stored == key) {
            std::memcpy(&out->sum, entry + 4, 4);
            std::memcpy(&out->parity, entry + 8, 4);
            return true;
        }
    }
    for (uint64_t slot = 0; slot < stash_slots_; ++slot) {
        const char *entry = mem.raw(stash_ + slot * kEntryBytes);
        uint32_t stored;
        std::memcpy(&stored, entry, 4);
        if (stored == key) {
            std::memcpy(&out->sum, entry + 4, 4);
            std::memcpy(&out->parity, entry + 8, 4);
            return true;
        }
        if (stored == kEmptyKey)
            return false;
    }
    return false;
}

void
CuckooTable::clear()
{
    GlobalMemory &mem = dev_.mem();
    auto clear_region = [&](Addr base, uint64_t slots) {
        for (uint64_t slot = 0; slot < slots; ++slot) {
            char *entry = mem.raw(base + slot * kEntryBytes);
            uint32_t empty = kEmptyKey;
            std::memcpy(entry, &empty, 4);
            std::memset(entry + 4, 0, 12);
        }
    };
    clear_region(tables_[0], per_table_);
    clear_region(tables_[1], per_table_);
    clear_region(stash_, stash_slots_);
    *reinterpret_cast<uint32_t *>(mem.raw(lock_)) = 0;
    stats_ = StoreStats{};
}

uint64_t
CuckooTable::capacity() const
{
    return 2 * per_table_ + stash_slots_;
}

uint64_t
CuckooTable::footprintBytes() const
{
    return (2 * per_table_ + stash_slots_) * kEntryBytes;
}

// ---------------------------------------------------------------------
// Bucket2OptTable
// ---------------------------------------------------------------------

Bucket2OptTable::Bucket2OptTable(Device &dev, uint64_t num_keys,
                                 double load_factor)
    : dev_(dev)
{
    double lf = load_factor > 0.0 ? load_factor : kBucketDefaultLoad;
    GPULP_ASSERT(lf > 0.0 && lf <= 1.0, "bad load factor %f", lf);
    // Exact sizing, like the other hashed tables: the measured load
    // factor must match the target or the high-load comparison against
    // quad/cuckoo is meaningless.
    num_buckets_ = ceilOdd(static_cast<uint64_t>(
        static_cast<double>(num_keys) / (lf * kBucketWidth) + 1.0));
    buckets_ =
        dev_.mem().alloc(num_buckets_ * kBucketWidth * kEntryBytes);
    versions_ = dev_.mem().alloc(num_buckets_ * 4);
    stash_slots_ = std::max<uint64_t>(64, num_keys / 64);
    stash_ = dev_.mem().alloc(stash_slots_ * kEntryBytes);
    // Optimistic readers snapshot versions and slots with plain loads
    // while version-holding writers mutate them with plain stores:
    // both arrays are racy-by-design and must be ordered for
    // cross-block determinism.
    dev_.addOrderedRegion(buckets_,
                          num_buckets_ * kBucketWidth * kEntryBytes);
    dev_.addOrderedRegion(versions_, num_buckets_ * 4);
    obs::observe(obs::Hist::StoreLoadFactorPct,
                 static_cast<uint64_t>(lf * 100.0 + 0.5));
    clear();
}

uint64_t
Bucket2OptTable::bucketOf(uint32_t key, uint32_t choice) const
{
    uint64_t b0 = mixHash(key, kBucketSeedA) % num_buckets_;
    if (choice == 0)
        return b0;
    uint64_t b1 = mixHash(key, kBucketSeedB) % num_buckets_;
    // The two choices must be distinct buckets or displacement cannot
    // make progress for this key.
    if (b1 == b0)
        b1 = (b0 + 1) % num_buckets_;
    return b1;
}

Addr
Bucket2OptTable::versionAddr(uint64_t bucket) const
{
    return versions_ + bucket * 4;
}

Addr
Bucket2OptTable::keyAddr(uint64_t bucket, uint32_t slot) const
{
    return buckets_ + (bucket * kBucketWidth + slot) * kEntryBytes;
}

Addr
Bucket2OptTable::payloadAddr(uint64_t bucket, uint32_t slot) const
{
    return keyAddr(bucket, slot) + 4;
}

uint32_t
Bucket2OptTable::bucketAcquire(ThreadCtx &t, uint64_t bucket)
{
    for (;;) {
        uint32_t v = t.loadAddr<uint32_t>(versionAddr(bucket));
        if (v & 1u) {
            // An odd version with no live holder: a crash unwound a
            // writer mid-bucket (the cooperative scheduler never
            // preempts a live holder, so this is the only way a
            // running fiber can observe odd). Seize the bucket by
            // rolling the version forward to even, then claim it.
            bump(stats_.opt_retries);
            obs::add(obs::Ctr::StoreBucket2OptRetries);
            (void)t.atomicCAS(versionAddr(bucket), v, v + 1);
            continue;
        }
        if (t.atomicCAS(versionAddr(bucket), v, v + 1) == v)
            return v + 1;
        bump(stats_.opt_retries);
        obs::add(obs::Ctr::StoreBucket2OptRetries);
    }
}

void
Bucket2OptTable::bucketRelease(ThreadCtx &t, uint64_t bucket,
                               uint32_t claimed)
{
    // Release is a plain store (st.release on real hardware): this is
    // the discipline's edge over a lock — no serialization window, no
    // second atomic round trip.
    t.storeAddr<uint32_t>(versionAddr(bucket), claimed + 1);
}

void
Bucket2OptTable::insert(ThreadCtx &t, uint32_t key, Checksums cs)
{
    GPULP_ASSERT(key != kEmptyKey, "key collides with the empty marker");
    bump(stats_.inserts);
    obs::add(obs::Ctr::StoreBucket2Inserts);
    uint64_t cand[2] = {bucketOf(key, 0), bucketOf(key, 1)};
    // Optimistic pre-scan: fills and prior-entry detection without any
    // claim. Version parity AND equality are both re-checked; a
    // mismatch restarts the bucket read.
    uint32_t fill[2] = {0, 0};
    bool have_key[2] = {false, false};
    for (int c = 0; c < 2; ++c) {
        bump(stats_.probes);
        obs::add(obs::Ctr::StoreBucket2Probes);
        for (;;) {
            uint32_t v0 = t.loadAddr<uint32_t>(versionAddr(cand[c]));
            if (v0 & 1u) {
                bump(stats_.opt_retries);
                obs::add(obs::Ctr::StoreBucket2OptRetries);
                (void)t.atomicCAS(versionAddr(cand[c]), v0, v0 + 1);
                continue;
            }
            uint32_t f = 0;
            bool k_here = false;
            for (uint32_t s = 0; s < kBucketWidth; ++s) {
                uint32_t k = t.loadAddr<uint32_t>(keyAddr(cand[c], s));
                if (k == key)
                    k_here = true;
                else if (k != kEmptyKey)
                    ++f;
            }
            uint32_t v1 = t.loadAddr<uint32_t>(versionAddr(cand[c]));
            if (v1 != v0) {
                bump(stats_.opt_retries);
                obs::add(obs::Ctr::StoreBucket2OptRetries);
                continue;
            }
            fill[c] = f;
            have_key[c] = k_here;
            break;
        }
    }
    int target = have_key[0] ? 0
                 : have_key[1]
                     ? 1
                     : (fill[1] < fill[0] ? 1 : 0);
    for (int round = 0; round < 2; ++round) {
        uint64_t b = cand[target ^ round];
        uint32_t claimed = bucketAcquire(t, b);
        bool placed = tryPlaceLocked(t, b, key, cs);
        bucketRelease(t, b, claimed);
        if (placed)
            return;
        bump(stats_.collisions);
        obs::add(obs::Ctr::StoreBucket2Collisions);
    }
    for (uint32_t d = 0; d < kMaxDisplacements; ++d) {
        if (displace(t, cand[d & 1], key, cs))
            return;
    }
    stashInsert(t, key, cs);
}

bool
Bucket2OptTable::tryPlaceLocked(ThreadCtx &t, uint64_t bucket,
                                uint32_t key, Checksums cs)
{
    uint32_t empty_slot = kBucketWidth;
    for (uint32_t s = 0; s < kBucketWidth; ++s) {
        uint32_t k = t.loadAddr<uint32_t>(keyAddr(bucket, s));
        if (k == key) {
            t.storeAddr<uint32_t>(payloadAddr(bucket, s), cs.sum);
            t.storeAddr<uint32_t>(payloadAddr(bucket, s) + 4, cs.parity);
            return true;
        }
        if (k == kEmptyKey && empty_slot == kBucketWidth)
            empty_slot = s;
    }
    if (empty_slot == kBucketWidth)
        return false;
    // We hold the bucket's version claim: plain stores suffice.
    t.storeAddr<uint32_t>(keyAddr(bucket, empty_slot), key);
    t.storeAddr<uint32_t>(payloadAddr(bucket, empty_slot), cs.sum);
    t.storeAddr<uint32_t>(payloadAddr(bucket, empty_slot) + 4, cs.parity);
    return true;
}

bool
Bucket2OptTable::displace(ThreadCtx &t, uint64_t bucket, uint32_t key,
                          Checksums cs)
{
    for (uint32_t s = 0; s < kBucketWidth; ++s) {
        // Advisory victim read; re-verified under the claims below.
        uint32_t victim = t.loadAddr<uint32_t>(keyAddr(bucket, s));
        if (victim == kEmptyKey || victim == key) {
            uint32_t claimed = bucketAcquire(t, bucket);
            bool placed = tryPlaceLocked(t, bucket, key, cs);
            bucketRelease(t, bucket, claimed);
            if (placed)
                return true;
            continue;
        }
        uint64_t alt = bucketOf(victim, 0) == bucket
                           ? bucketOf(victim, 1)
                           : bucketOf(victim, 0);
        if (alt == bucket)
            continue;
        bump(stats_.probes);
        obs::add(obs::Ctr::StoreBucket2Probes);
        // Two-bucket move: claims always in ascending bucket order so
        // concurrent displacers cannot deadlock.
        uint64_t lo = bucket < alt ? bucket : alt;
        uint64_t hi = bucket < alt ? alt : bucket;
        uint32_t clo = bucketAcquire(t, lo);
        uint32_t chi = bucketAcquire(t, hi);
        bool moved = false;
        if (t.loadAddr<uint32_t>(keyAddr(bucket, s)) == victim) {
            for (uint32_t as = 0; as < kBucketWidth; ++as) {
                if (t.loadAddr<uint32_t>(keyAddr(alt, as)) != kEmptyKey)
                    continue;
                uint32_t vsum =
                    t.loadAddr<uint32_t>(payloadAddr(bucket, s));
                uint32_t vpar =
                    t.loadAddr<uint32_t>(payloadAddr(bucket, s) + 4);
                t.storeAddr<uint32_t>(keyAddr(alt, as), victim);
                t.storeAddr<uint32_t>(payloadAddr(alt, as), vsum);
                t.storeAddr<uint32_t>(payloadAddr(alt, as) + 4, vpar);
                t.storeAddr<uint32_t>(keyAddr(bucket, s), key);
                t.storeAddr<uint32_t>(payloadAddr(bucket, s), cs.sum);
                t.storeAddr<uint32_t>(payloadAddr(bucket, s) + 4,
                                      cs.parity);
                bump(stats_.displacements);
                obs::add(obs::Ctr::StoreBucket2Displacements);
                moved = true;
                break;
            }
        }
        bucketRelease(t, hi, chi);
        bucketRelease(t, lo, clo);
        if (moved)
            return true;
    }
    return false;
}

void
Bucket2OptTable::stashInsert(ThreadCtx &t, uint32_t key, Checksums cs)
{
    bump(stats_.stash_inserts);
    obs::add(obs::Ctr::StoreBucket2StashInserts);
    for (uint64_t slot = 0; slot < stash_slots_; ++slot) {
        Addr entry = stash_ + slot * kEntryBytes;
        uint32_t old = t.atomicCAS(entry, kEmptyKey, key);
        if (old == kEmptyKey || old == key) {
            t.storeAddr<uint32_t>(entry + 4, cs.sum);
            t.storeAddr<uint32_t>(entry + 8, cs.parity);
            return;
        }
    }
    GPULP_PANIC("bucket2opt stash overflow; raise the load-factor margin");
}

bool
Bucket2OptTable::probe(ThreadCtx &t, uint32_t key, Checksums *out)
{
    for (uint32_t c = 0; c < 2; ++c) {
        uint64_t b = bucketOf(key, c);
        // Bounded retries: a version stuck odd (writer died at a
        // crash) must not spin a reader forever — after the bound the
        // bucket is treated as suspect, which at worst re-executes the
        // region (a benign false-fail).
        for (uint32_t attempt = 0; attempt < 64; ++attempt) {
            uint32_t v0 = t.loadAddr<uint32_t>(versionAddr(b));
            if (v0 & 1u) {
                bump(stats_.opt_retries);
                obs::add(obs::Ctr::StoreBucket2OptRetries);
                continue;
            }
            bool found = false;
            Checksums cs{};
            for (uint32_t s = 0; s < kBucketWidth && !found; ++s) {
                if (t.loadAddr<uint32_t>(keyAddr(b, s)) != key)
                    continue;
                cs.sum = t.loadAddr<uint32_t>(payloadAddr(b, s));
                cs.parity = t.loadAddr<uint32_t>(payloadAddr(b, s) + 4);
                found = true;
            }
            uint32_t v1 = t.loadAddr<uint32_t>(versionAddr(b));
            if (v1 != v0) {
                // The version moved under the snapshot: the slot data
                // may be torn. Retry — omitting this re-check (or the
                // parity check above) is the classic seqlock bug.
                bump(stats_.opt_retries);
                obs::add(obs::Ctr::StoreBucket2OptRetries);
                continue;
            }
            if (found) {
                *out = cs;
                return true;
            }
            break;
        }
    }
    for (uint64_t slot = 0; slot < stash_slots_; ++slot) {
        Addr entry = stash_ + slot * kEntryBytes;
        if (t.loadAddr<uint32_t>(entry) != key)
            continue;
        out->sum = t.loadAddr<uint32_t>(entry + 4);
        out->parity = t.loadAddr<uint32_t>(entry + 8);
        return true;
    }
    return false;
}

bool
Bucket2OptTable::lookup(uint32_t key, Checksums *out) const
{
    const GlobalMemory &mem = dev_.mem();
    for (uint32_t c = 0; c < 2; ++c) {
        uint64_t b = bucketOf(key, c);
        // The host runs between launches, so no live writer exists; an
        // odd version means a crash interrupted a writer mid-bucket.
        // Its slots are suspect — treat the bucket as a miss, which at
        // worst re-executes this region (benign false-fail, never a
        // false-pass).
        uint32_t v;
        std::memcpy(&v, mem.raw(versionAddr(b)), 4);
        if (v & 1u)
            continue;
        for (uint32_t s = 0; s < kBucketWidth; ++s) {
            const char *entry = mem.raw(keyAddr(b, s));
            uint32_t stored;
            std::memcpy(&stored, entry, 4);
            if (stored == key) {
                std::memcpy(&out->sum, entry + 4, 4);
                std::memcpy(&out->parity, entry + 8, 4);
                return true;
            }
        }
    }
    for (uint64_t slot = 0; slot < stash_slots_; ++slot) {
        const char *entry = mem.raw(stash_ + slot * kEntryBytes);
        uint32_t stored;
        std::memcpy(&stored, entry, 4);
        if (stored == key) {
            std::memcpy(&out->sum, entry + 4, 4);
            std::memcpy(&out->parity, entry + 8, 4);
            return true;
        }
    }
    return false;
}

bool
Bucket2OptTable::erase(uint32_t key)
{
    GlobalMemory &mem = dev_.mem();
    auto clearEntry = [&](Addr entry) {
        uint32_t empty = kEmptyKey;
        char *p = mem.raw(entry);
        std::memcpy(p, &empty, 4);
        std::memset(p + 4, 0, 12);
    };
    bool found = false;
    for (uint32_t c = 0; c < 2; ++c) {
        uint64_t b = bucketOf(key, c);
        for (uint32_t s = 0; s < kBucketWidth; ++s) {
            uint32_t stored;
            std::memcpy(&stored, mem.raw(keyAddr(b, s)), 4);
            if (stored == key) {
                clearEntry(keyAddr(b, s));
                found = true;
            }
        }
    }
    for (uint64_t slot = 0; slot < stash_slots_; ++slot) {
        Addr entry = stash_ + slot * kEntryBytes;
        uint32_t stored;
        std::memcpy(&stored, mem.raw(entry), 4);
        if (stored == key) {
            clearEntry(entry);
            found = true;
        }
    }
    return found;
}

void
Bucket2OptTable::clear()
{
    GlobalMemory &mem = dev_.mem();
    auto clear_region = [&](Addr base, uint64_t slots) {
        for (uint64_t slot = 0; slot < slots; ++slot) {
            char *entry = mem.raw(base + slot * kEntryBytes);
            uint32_t empty = kEmptyKey;
            std::memcpy(entry, &empty, 4);
            std::memset(entry + 4, 0, 12);
        }
    };
    clear_region(buckets_, num_buckets_ * kBucketWidth);
    clear_region(stash_, stash_slots_);
    std::memset(mem.raw(versions_), 0, num_buckets_ * 4);
    stats_ = StoreStats{};
}

uint64_t
Bucket2OptTable::capacity() const
{
    return num_buckets_ * kBucketWidth + stash_slots_;
}

uint64_t
Bucket2OptTable::footprintBytes() const
{
    return (num_buckets_ * kBucketWidth + stash_slots_) * kEntryBytes +
           num_buckets_ * 4;
}

// ---------------------------------------------------------------------
// GlobalArrayStore
// ---------------------------------------------------------------------

GlobalArrayStore::GlobalArrayStore(Device &dev, uint64_t num_keys)
    : dev_(dev), num_keys_(num_keys)
{
    GPULP_ASSERT(num_keys_ > 0, "empty global array store");
    slots_ = dev_.mem().alloc(num_keys_ * 8);
    valid_ = dev_.mem().alloc(num_keys_);
    clear();
}

Addr
GlobalArrayStore::slotAddr(uint32_t key) const
{
    GPULP_ASSERT(key < num_keys_, "key %u beyond %llu array slots", key,
                 static_cast<unsigned long long>(num_keys_));
    return slots_ + static_cast<Addr>(key) * 8;
}

Addr
GlobalArrayStore::validAddr(uint32_t key) const
{
    GPULP_ASSERT(key < num_keys_, "key %u beyond %llu array slots", key,
                 static_cast<unsigned long long>(num_keys_));
    return valid_ + static_cast<Addr>(key);
}

void
GlobalArrayStore::insert(ThreadCtx &t, uint32_t key, Checksums cs)
{
    bump(stats_.inserts);
    obs::add(obs::Ctr::StoreArrayInserts);
    // No key, no probe, no atomic: the block ID is the slot index, so
    // insertion is two plain stores (Sec. V) plus the occupancy byte.
    // The valid flag is out-of-band rather than an in-band sentinel so
    // that *every* 64-bit payload — including {0xffffffff, 0xffffffff}
    // — is a legal checksum. Exactly one thread owns each key, so a
    // plain byte store suffices and nothing rank-gates.
    t.storeAddr<uint32_t>(slotAddr(key), cs.sum);
    t.storeAddr<uint32_t>(slotAddr(key) + 4, cs.parity);
    t.storeAddr<uint8_t>(validAddr(key), 1);
}

bool
GlobalArrayStore::lookup(uint32_t key, Checksums *out) const
{
    const GlobalMemory &mem = dev_.mem();
    // Occupancy is tracked out-of-band: a slot counts only once its
    // valid byte persisted. If a crash persists the payload but not
    // the flag (or vice versa) the block merely re-validates as failed
    // and is re-executed — safe in both orders.
    uint8_t flag;
    std::memcpy(&flag, mem.raw(validAddr(key)), 1);
    if (!flag)
        return false;
    const char *entry = mem.raw(slotAddr(key));
    std::memcpy(&out->sum, entry, 4);
    std::memcpy(&out->parity, entry + 4, 4);
    return true;
}

bool
GlobalArrayStore::erase(uint32_t key)
{
    GlobalMemory &mem = dev_.mem();
    uint8_t flag;
    std::memcpy(&flag, mem.raw(validAddr(key)), 1);
    if (!flag)
        return false;
    std::memset(mem.raw(validAddr(key)), 0, 1);
    std::memset(mem.raw(slotAddr(key)), 0, 8);
    return true;
}

void
GlobalArrayStore::clear()
{
    GlobalMemory &mem = dev_.mem();
    std::memset(mem.raw(slots_), 0, num_keys_ * 8);
    std::memset(mem.raw(valid_), 0, num_keys_);
    stats_ = StoreStats{};
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

std::unique_ptr<ChecksumStore>
makeChecksumStore(Device &dev, const LpConfig &cfg, uint64_t num_keys)
{
    switch (cfg.table) {
      case TableKind::QuadProbe:
        return std::make_unique<QuadProbeTable>(dev, num_keys, cfg.lock,
                                                cfg.load_factor);
      case TableKind::Cuckoo:
        return std::make_unique<CuckooTable>(dev, num_keys, cfg.lock,
                                             cfg.load_factor);
      case TableKind::GlobalArray:
        return std::make_unique<GlobalArrayStore>(dev, num_keys);
      case TableKind::Bucket2Opt:
        return std::make_unique<Bucket2OptTable>(dev, num_keys,
                                                 cfg.load_factor);
    }
    GPULP_PANIC("bad TableKind %d", static_cast<int>(cfg.table));
}

} // namespace gpulp
