/**
 * @file
 * Unit tests for the NVM persistency-domain model: write-back caching,
 * natural eviction as the persist mechanism, crash semantics, explicit
 * flushes and crash injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/prng.h"
#include "mem/memory.h"
#include "nvm/nvm_cache.h"
#include "obs/counters.h"

namespace gpulp {
namespace {

NvmParams
tinyCache()
{
    NvmParams p;
    p.cache_bytes = 1024; // 8 lines of 128B -> 2 sets x 4 ways
    p.line_bytes = 128;
    p.associativity = 4;
    return p;
}

TEST(NvmCacheTest, FreshStoreIsNotYetPersisted)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(4096);
    mem.write<uint32_t>(a, 77);
    // The store sits in a dirty cache line: the NVM image still holds 0.
    EXPECT_FALSE(nvm.isPersisted(a, 4));
    uint32_t persisted = 1;
    nvm.readPersisted(a, 4, &persisted);
    EXPECT_EQ(persisted, 0u);
}

TEST(NvmCacheTest, NaturalEvictionPersistsTheLine)
{
    GlobalMemory mem(1 << 20);
    NvmParams p = tinyCache();
    NvmCache nvm(mem, p);
    mem.setObserver(&nvm);
    Addr a = mem.alloc(64 * 1024);
    mem.write<uint32_t>(a, 77);
    // Touch enough other lines mapping to the same set to evict line 0.
    // With 2 sets, lines at stride 2*128 share set 0; 4 ways need 4
    // more conflicting lines.
    for (int i = 1; i <= 8; ++i)
        mem.write<uint32_t>(a + static_cast<Addr>(i) * 2 * 128, 1);
    EXPECT_TRUE(nvm.isPersisted(a, 4));
    uint32_t persisted = 0;
    nvm.readPersisted(a, 4, &persisted);
    EXPECT_EQ(persisted, 77u);
    EXPECT_GT(nvm.stats().dirty_evictions, 0u);
}

TEST(NvmCacheTest, CrashDropsDirtyLines)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(4096);
    mem.write<uint32_t>(a, 123);
    nvm.crash();
    // Volatile update lost: arena rewound to the NVM image (zero).
    EXPECT_EQ(mem.read<uint32_t>(a), 0u);
}

TEST(NvmCacheTest, CrashKeepsEvictedData)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(64 * 1024);
    mem.write<uint32_t>(a, 55);
    for (int i = 1; i <= 8; ++i) // force eviction of a's line
        mem.write<uint32_t>(a + static_cast<Addr>(i) * 2 * 128, 1);
    mem.write<uint32_t>(a + 4, 66); // re-dirty the same line
    nvm.crash();
    EXPECT_EQ(mem.read<uint32_t>(a), 55u); // persisted by eviction
    EXPECT_EQ(mem.read<uint32_t>(a + 4), 0u); // dirty again, lost
}

TEST(NvmCacheTest, PersistAllMakesEverythingDurable)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(4096);
    mem.write<uint32_t>(a, 11);
    *reinterpret_cast<uint32_t *>(mem.raw(a + 8)) = 22; // host raw write
    nvm.persistAll();
    nvm.crash();
    EXPECT_EQ(mem.read<uint32_t>(a), 11u);
    EXPECT_EQ(mem.read<uint32_t>(a + 8), 22u);
}

TEST(NvmCacheTest, HitMissCountersBehave)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(4096);
    mem.write<uint32_t>(a, 1);       // store miss
    mem.write<uint32_t>(a + 4, 2);   // store hit (same line)
    (void)mem.read<uint32_t>(a);     // load hit
    (void)mem.read<uint32_t>(a + 512); // load miss (different line)
    EXPECT_EQ(nvm.stats().store_misses, 1u);
    EXPECT_EQ(nvm.stats().store_hits, 1u);
    EXPECT_EQ(nvm.stats().load_hits, 1u);
    EXPECT_EQ(nvm.stats().load_misses, 1u);
}

TEST(NvmCacheTest, MultiLineStoreTouchesEveryLine)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(4096);
    // An 8-byte store straddling a line boundary dirties two lines.
    mem.write<uint64_t>(a + 124, ~0ull);
    EXPECT_EQ(nvm.stats().store_misses, 2u);
}

TEST(NvmCacheTest, CleanEvictionDoesNotWriteNvm)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(64 * 1024);
    (void)mem.read<uint32_t>(a); // clean line
    for (int i = 1; i <= 8; ++i)
        (void)mem.read<uint32_t>(a + static_cast<Addr>(i) * 2 * 128);
    EXPECT_GT(nvm.stats().clean_evictions, 0u);
    EXPECT_EQ(nvm.stats().nvmLineWrites(), 0u);
}

TEST(NvmCacheTest, WriteAmplificationCountersSeparateNaturalAndFlushed)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(64 * 1024);
    mem.write<uint32_t>(a, 1);
    for (int i = 1; i <= 8; ++i)
        mem.write<uint32_t>(a + static_cast<Addr>(i) * 2 * 128, 1);
    uint64_t natural = nvm.stats().dirty_evictions;
    EXPECT_GT(natural, 0u);
    nvm.persistAll();
    EXPECT_GT(nvm.stats().flushed_lines, 0u);
    EXPECT_EQ(nvm.stats().nvmLineWrites(),
              nvm.stats().dirty_evictions + nvm.stats().flushed_lines);
}

TEST(NvmCacheTest, CrashInjectionCountsDown)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(4096);
    nvm.crashAfterStores(3);
    mem.write<uint32_t>(a, 1);
    EXPECT_FALSE(nvm.crashPending());
    mem.write<uint32_t>(a, 2);
    mem.write<uint32_t>(a, 3);
    EXPECT_FALSE(nvm.crashPending());
    mem.write<uint32_t>(a, 4);
    EXPECT_TRUE(nvm.crashPending());
}

TEST(NvmCacheTest, DisarmCancelsInjection)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(4096);
    nvm.crashAfterStores(0);
    nvm.disarmCrash();
    mem.write<uint32_t>(a, 1);
    EXPECT_FALSE(nvm.crashPending());
}

TEST(NvmCacheTest, CrashClearsPendingFlag)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(4096);
    nvm.crashAfterStores(0);
    mem.write<uint32_t>(a, 1);
    EXPECT_TRUE(nvm.crashPending());
    nvm.crash();
    EXPECT_FALSE(nvm.crashPending());
}

TEST(NvmCacheTest, DeviceTimeGrowsWithTraffic)
{
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, tinyCache());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(64 * 1024);
    double t0 = nvm.nvmDeviceTimeNs();
    for (int i = 0; i < 64; ++i)
        mem.write<uint32_t>(a + static_cast<Addr>(i) * 128, i);
    EXPECT_GT(nvm.nvmDeviceTimeNs(), t0);
}

TEST(NvmCacheTest, LruVictimSelection)
{
    GlobalMemory mem(1 << 20);
    NvmParams p = tinyCache(); // 4 ways
    NvmCache nvm(mem, p);
    mem.setObserver(&nvm);
    Addr a = mem.alloc(64 * 1024);
    Addr stride = 2 * 128; // same set
    // Fill 4 ways: lines 0,1,2,3 (values nonzero so content differs
    // from the zeroed NVM image until written back).
    for (int i = 0; i < 4; ++i)
        mem.write<uint32_t>(a + static_cast<Addr>(i) * stride,
                            100 + static_cast<uint32_t>(i));
    // Touch line 0 so line 1 becomes LRU.
    (void)mem.read<uint32_t>(a);
    // Insert line 4: must evict line 1, persisting its value.
    mem.write<uint32_t>(a + 4 * stride, 4);
    EXPECT_TRUE(nvm.isPersisted(a + 1 * stride, 4));
    EXPECT_FALSE(nvm.isPersisted(a + 0 * stride, 4));
}

/**
 * The cache model as an array of Line structs with a full scan of the
 * set on every access: the layout NvmCache had before its compact
 * per-way arrays and MRU hint. It mirrors every decision and counter
 * of NvmCache's public interface over its own arena and shadow, so the
 * two can be driven with the same traffic and compared.
 */
class ReferenceCache
{
  public:
    ReferenceCache(GlobalMemory &mem, const NvmParams &p)
        : mem_(mem), p_(p), shadow_(mem.capacity(), 0)
    {
        sets_ = p.cache_bytes / p.line_bytes / p.associativity;
        lines_.assign(sets_ * p.associativity, Line{});
    }

    NvmStats stats;

    void
    store(Addr addr, size_t bytes)
    {
        ++stats.stores_observed;
        if (armed_ && !pending_) {
            if (countdown_ == 0)
                pending_ = true;
            else
                --countdown_;
        }
        if (pending_) {
            ++stats.stores_after_crash;
            return;
        }
        for (uint64_t tag = addr / p_.line_bytes;
             tag <= (addr + bytes - 1) / p_.line_bytes; ++tag) {
            if (access(tag, true))
                ++stats.store_hits;
            else
                ++stats.store_misses;
        }
    }

    void
    load(Addr addr, size_t bytes)
    {
        if (pending_)
            return;
        for (uint64_t tag = addr / p_.line_bytes;
             tag <= (addr + bytes - 1) / p_.line_bytes; ++tag) {
            if (access(tag, false))
                ++stats.load_hits;
            else
                ++stats.load_misses;
        }
    }

    uint64_t
    flushRange(Addr addr, size_t bytes)
    {
        if (pending_)
            return 0;
        uint64_t flushed = 0;
        for (uint64_t tag = addr / p_.line_bytes;
             tag <= (addr + bytes - 1) / p_.line_bytes; ++tag) {
            for (Line &l : set(tag)) {
                if (l.valid && l.tag == tag && l.dirty) {
                    writeback(tag);
                    l.dirty = false;
                    ++stats.flushed_lines;
                    ++flushed;
                }
            }
        }
        return flushed;
    }

    void
    persistRange(Addr addr, size_t bytes)
    {
        if (pending_)
            return;
        for (uint64_t tag = addr / p_.line_bytes;
             tag <= (addr + bytes - 1) / p_.line_bytes; ++tag) {
            for (Line &l : set(tag)) {
                if (l.valid && l.tag == tag)
                    l.dirty = false;
            }
            Addr start = tag * p_.line_bytes;
            if (start >= mem_.used())
                continue;
            size_t len = std::min(p_.line_bytes, mem_.used() - start);
            if (std::memcmp(&shadow_[start], mem_.raw(start), len) != 0) {
                writeback(tag);
                ++stats.flushed_lines;
            }
        }
    }

    void
    persistAll()
    {
        if (pending_)
            return;
        std::memcpy(shadow_.data(), mem_.raw(0), mem_.used());
        for (Line &l : lines_) {
            if (l.valid && l.dirty) {
                l.dirty = false;
                ++stats.flushed_lines;
            }
        }
    }

    uint64_t
    crash()
    {
        uint64_t torn = 0;
        for (const Line &l : lines_)
            torn += l.valid && l.dirty;
        stats.torn_lines += torn;
        std::memcpy(mem_.raw(0), shadow_.data(), mem_.used());
        invalidateAll();
        armed_ = false;
        pending_ = false;
        return torn;
    }

    void
    invalidateAll()
    {
        for (Line &l : lines_)
            l = Line{};
    }

    void
    crashAfterStores(uint64_t n)
    {
        armed_ = true;
        pending_ = false;
        countdown_ = n;
    }

    bool crashPending() const { return pending_; }

    const uint8_t *persisted(Addr addr) const { return &shadow_[addr]; }

  private:
    struct Line {
        uint64_t tag = 0;
        uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    struct Ways {
        Line *first;
        size_t n;
        Line *begin() const { return first; }
        Line *end() const { return first + n; }
    };

    Ways
    set(uint64_t tag)
    {
        return {&lines_[(tag % sets_) * p_.associativity], p_.associativity};
    }

    bool
    access(uint64_t tag, bool is_store)
    {
        Line *ways = set(tag).first;
        ++tick_;
        for (size_t w = 0; w < p_.associativity; ++w) {
            if (ways[w].valid && ways[w].tag == tag) {
                ways[w].lru = tick_;
                ways[w].dirty |= is_store;
                return true;
            }
        }
        size_t victim = 0;
        for (size_t w = 0; w < p_.associativity; ++w) {
            if (!ways[w].valid) {
                victim = w;
                break;
            }
            if (ways[w].lru < ways[victim].lru)
                victim = w;
        }
        if (ways[victim].valid) {
            if (ways[victim].dirty) {
                writeback(ways[victim].tag);
                ++stats.dirty_evictions;
            } else {
                ++stats.clean_evictions;
            }
        }
        ways[victim] = Line{tag, tick_, true, is_store};
        ++stats.nvm_line_reads;
        return false;
    }

    void
    writeback(uint64_t tag)
    {
        Addr start = tag * p_.line_bytes;
        if (start >= mem_.used())
            return;
        size_t len = std::min(p_.line_bytes, mem_.used() - start);
        std::memcpy(&shadow_[start], mem_.raw(start), len);
    }

    GlobalMemory &mem_;
    NvmParams p_;
    size_t sets_;
    std::vector<Line> lines_;
    std::vector<uint8_t> shadow_;
    uint64_t tick_ = 0;
    bool armed_ = false;
    bool pending_ = false;
    uint64_t countdown_ = 0;
};

void
expectSameStats(const NvmStats &got, const NvmStats &want)
{
#define GPULP_EXPECT_FIELD(f) EXPECT_EQ(got.f, want.f) << #f
    GPULP_EXPECT_FIELD(load_hits);
    GPULP_EXPECT_FIELD(load_misses);
    GPULP_EXPECT_FIELD(store_hits);
    GPULP_EXPECT_FIELD(store_misses);
    GPULP_EXPECT_FIELD(clean_evictions);
    GPULP_EXPECT_FIELD(dirty_evictions);
    GPULP_EXPECT_FIELD(flushed_lines);
    GPULP_EXPECT_FIELD(nvm_line_reads);
    GPULP_EXPECT_FIELD(stores_observed);
    GPULP_EXPECT_FIELD(torn_lines);
    GPULP_EXPECT_FIELD(stores_after_crash);
#undef GPULP_EXPECT_FIELD
}

/**
 * Drives NvmCache and ReferenceCache with one seeded stream of loads,
 * stores, flushes, persists, crashes, invalidations and armed crash
 * countdowns, each over its own arena. Traffic concentrates on a few
 * sets with more lines than ways, so every set it touches evicts;
 * one access in sixteen goes anywhere in the footprint. Returns false
 * at the first operation after which the two disagree.
 */
bool
matchesReference(size_t sets, size_t ways, size_t line, uint64_t seed,
                 int ops)
{
    NvmParams p;
    p.line_bytes = line;
    p.associativity = ways;
    p.cache_bytes = sets * ways * line;
    // Line indices [0, lines) past the first allocation; the extra
    // line leaves room for an access crossing the last one.
    const uint64_t slots = 2 * ways + 1;
    const uint64_t lines = sets * slots + 1;
    const size_t capacity = 256 + lines * line + 4096;
    GlobalMemory mem(capacity);
    GlobalMemory ref_mem(capacity);
    NvmCache nvm(mem, p);
    ReferenceCache ref(ref_mem, p);
    const Addr base = mem.alloc(lines * line);
    EXPECT_EQ(ref_mem.alloc(lines * line), base);

    Prng rng(seed);
    std::vector<uint64_t> hot_sets;
    for (size_t i = 0; i < std::min<size_t>(sets, 8); ++i)
        hot_sets.push_back(sets <= 8 ? i : rng.nextBelow(sets));
    std::set<uint64_t> touched; // line indices any operation reached

    auto pickLine = [&]() -> uint64_t {
        if (rng.nextBelow(16) == 0)
            return rng.nextBelow(lines - 1);
        return rng.nextBelow(slots) * sets +
               hot_sets[rng.nextBelow(hot_sets.size())];
    };
    // One access of 1-16 bytes: aligned to its size, anywhere in the
    // line, or straddling the line's end.
    auto pickAccess = [&](Addr *addr, size_t *bytes) {
        uint64_t l = pickLine();
        uint64_t kind = rng.nextBelow(4);
        size_t off;
        if (kind < 2) {
            *bytes = size_t{1} << rng.nextBelow(5);
            off = rng.nextBelow(line / *bytes) * *bytes;
        } else {
            *bytes = 1 + rng.nextBelow(16);
            off = kind == 2 ? rng.nextBelow(line)
                            : line - 1 - rng.nextBelow(15);
        }
        *addr = base + l * line + off;
        for (Addr a = *addr / line; a <= (*addr + *bytes - 1) / line; ++a)
            touched.insert(a);
    };
    auto pickRange = [&](Addr *addr, size_t *bytes) {
        uint64_t l = pickLine();
        *bytes = 1 + rng.nextBelow(4 * line);
        *addr = base + l * line + rng.nextBelow(line);
        *bytes = std::min<size_t>(*bytes, base + lines * line - *addr);
    };
    auto samePersistedImage = [&]() {
        std::vector<uint8_t> got(line);
        for (uint64_t l : touched) {
            nvm.readPersisted(l * line, line, got.data());
            if (std::memcmp(got.data(), ref.persisted(l * line), line) != 0 ||
                std::memcmp(mem.raw(l * line), ref_mem.raw(l * line),
                            line) != 0) {
                ADD_FAILURE() << "persisted image differs at line " << l;
                return false;
            }
        }
        return true;
    };

    for (int op = 0; op < ops; ++op) {
        uint64_t roll = rng.nextBelow(1000);
        Addr addr;
        size_t bytes;
        bool check_image = false;
        if (roll < 450) {
            pickAccess(&addr, &bytes);
            for (size_t i = 0; i < bytes; ++i) {
                auto v = static_cast<char>(rng.next());
                *mem.raw(addr + i) = v;
                *ref_mem.raw(addr + i) = v;
            }
            nvm.onStore(addr, bytes);
            ref.store(addr, bytes);
        } else if (roll < 900) {
            pickAccess(&addr, &bytes);
            nvm.onLoad(addr, bytes);
            ref.load(addr, bytes);
        } else if (roll < 940) {
            pickRange(&addr, &bytes);
            EXPECT_EQ(nvm.flushRange(addr, bytes), ref.flushRange(addr, bytes));
            check_image = true;
        } else if (roll < 980) {
            pickRange(&addr, &bytes);
            nvm.persistRange(addr, bytes);
            ref.persistRange(addr, bytes);
            check_image = true;
        } else if (roll < 985) {
            nvm.persistAll();
            ref.persistAll();
            check_image = true;
        } else if (roll < 990) {
            EXPECT_EQ(nvm.crash(), ref.crash());
            check_image = true;
        } else if (roll < 995) {
            nvm.invalidateAll();
            ref.invalidateAll();
        } else {
            uint64_t n = rng.nextBelow(64);
            nvm.crashAfterStores(n);
            ref.crashAfterStores(n);
        }
        expectSameStats(nvm.stats(), ref.stats);
        EXPECT_EQ(nvm.crashPending(), ref.crashPending());
        if (::testing::Test::HasFailure() ||
            (check_image && !samePersistedImage())) {
            ADD_FAILURE() << sets << " sets x " << ways << " ways x " << line
                          << " B lines, seed " << seed << ": first mismatch "
                          << "after operation " << op;
            return false;
        }
    }
    // The stream reached every kind of decision.
    const NvmStats &st = ref.stats;
    for (uint64_t n : {st.load_hits, st.store_hits, st.clean_evictions,
                       st.dirty_evictions, st.flushed_lines, st.torn_lines,
                       st.stores_after_crash}) {
        EXPECT_GT(n, 0u) << sets << " sets x " << ways << " ways x " << line
                         << " B lines";
    }
    // Lines no operation touched stay zero in both arenas and images.
    std::vector<uint8_t> img(base + lines * line);
    nvm.readPersisted(0, img.size(), img.data());
    return std::memcmp(img.data(), ref.persisted(0), img.size()) == 0;
}

TEST(NvmCacheTest, MatchesTheReferenceModelOnRandomTraffic)
{
    uint64_t seed = 1;
    for (size_t ways : {1, 2, 4, 16}) {
        for (size_t sets : {1, 3, 8, 3072}) {
            for (size_t line : {64, 128}) {
                ASSERT_TRUE(matchesReference(sets, ways, line, seed++, 4000));
            }
        }
    }
}

TEST(NvmCacheTest, ConcurrentTrafficCountsEveryAccess)
{
    // 16 KiB cache, 4 ways, 128 B lines: 32 sets. Each worker owns 64
    // lines, so the 256 worker lines evict one another constantly and
    // write-backs copy lines other workers are storing into.
    NvmParams p;
    p.cache_bytes = 16 * 1024;
    p.line_bytes = 128;
    p.associativity = 4;
    constexpr int kWorkers = 4;
    constexpr uint64_t kLinesPerWorker = 64;
    constexpr int kOpsPerWorker = 20000;
    constexpr uint64_t kHostLines = 16;
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, p);
    mem.setObserver(&nvm);
    const Addr workers = mem.alloc(kWorkers * kLinesPerWorker * 128);
    // Written by host raw() stores and made durable with persistRange,
    // as recovery metadata resets are; no worker touches it.
    const Addr host = mem.alloc(kHostLines * 128);

    const bool counters_were_on = obs::countersEnabled();
    obs::setCountersEnabled(true);
    const obs::CountersSnapshot before = obs::snapshotCounters();

    std::atomic<uint64_t> loads{0};
    std::atomic<uint64_t> stores{0};
    std::atomic<int> running{kWorkers};
    // Workers pause at their midpoint until the fifth thread has run a
    // whole flush-and-persist round with all of them paused there, so
    // every worker has traffic before and after a flush; the flusher
    // keeps going until the last worker is done.
    std::atomic<int> halfway{0};
    std::atomic<bool> flushed_at_halfway{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
            Prng rng(100 + static_cast<uint64_t>(w));
            const Addr own = workers + w * kLinesPerWorker * 128;
            uint64_t my_loads = 0;
            uint64_t my_stores = 0;
            for (int i = 0; i < kOpsPerWorker; ++i) {
                if (i == kOpsPerWorker / 2) {
                    ++halfway;
                    while (!flushed_at_halfway.load())
                        std::this_thread::yield();
                }
                Addr a = own + rng.nextBelow(kLinesPerWorker * 32) * 4;
                if (rng.nextBool()) {
                    mem.write<uint32_t>(a, static_cast<uint32_t>(i));
                    ++my_stores;
                } else {
                    (void)mem.read<uint32_t>(a);
                    ++my_loads;
                }
            }
            loads += my_loads;
            stores += my_stores;
            --running;
        });
    }
    threads.emplace_back([&] {
        Prng rng(7);
        uint32_t v = 0;
        do {
            const bool all_halfway = halfway.load() == kWorkers;
            Addr a = workers + rng.nextBelow(kWorkers * kLinesPerWorker) * 128;
            nvm.flushRange(a, 1 + rng.nextBelow(4 * 128));
            Addr h = host + rng.nextBelow(kHostLines) * 128;
            std::memcpy(mem.raw(h), &++v, sizeof(v));
            nvm.persistRange(h, 128);
            if (all_halfway)
                flushed_at_halfway = true;
        } while (running.load() > 0);
    });
    for (auto &t : threads)
        t.join();

    const NvmStats st = nvm.stats();
    EXPECT_EQ(st.load_hits + st.load_misses, loads.load());
    EXPECT_EQ(st.store_hits + st.store_misses, stores.load());
    EXPECT_EQ(st.stores_observed, stores.load());
    EXPECT_EQ(st.nvm_line_reads, st.load_misses + st.store_misses);
    EXPECT_GT(st.dirty_evictions, 0u);
    // Each round's persistRange publishes a freshly written host line.
    EXPECT_GT(st.flushed_lines, 0u);
    const obs::CountersSnapshot after = obs::snapshotCounters();
    obs::setCountersEnabled(counters_were_on);
    auto delta = [&](obs::Ctr c) { return after[c] - before[c]; };
    EXPECT_EQ(delta(obs::Ctr::NvmLoadHits) + delta(obs::Ctr::NvmLoadMisses),
              loads.load());
    EXPECT_EQ(delta(obs::Ctr::NvmStoreHits) + delta(obs::Ctr::NvmStoreMisses),
              stores.load());
    // Every host write the last persistRange covered is durable.
    EXPECT_TRUE(nvm.isPersisted(host, kHostLines * 128));
}

} // namespace
} // namespace gpulp
