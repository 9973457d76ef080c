/**
 * @file
 * Unit tests for the file-backed persist log: CRC framing, torn-tail
 * truncation, corrupt-entry rejection, tombstones, compaction,
 * index-rebuild determinism, and the NvmCache restore path a crashed
 * process's successor runs.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mem/memory.h"
#include "nvm/nvm_cache.h"
#include "nvm/persist_log.h"

namespace gpulp {
namespace {

// Framing constants from the on-disk format (persist_log.h): an 8-byte
// file header, then 16-byte entry headers.
constexpr uint64_t kFileHeaderBytes = 8;
constexpr uint64_t kEntryHeaderBytes = 16;

/** Scratch directory deleted (with its files) on scope exit. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/gpulp_plog_XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        path_ = dir ? dir : "";
    }

    ~TempDir()
    {
        for (const std::string &f : files_)
            ::remove(f.c_str());
        if (!path_.empty())
            ::remove(path_.c_str());
    }

    std::string
    file(const std::string &name)
    {
        std::string p = path_ + "/" + name;
        files_.push_back(p);
        files_.push_back(p + ".compact.tmp");
        return p;
    }

  private:
    std::string path_;
    std::vector<std::string> files_;
};

std::vector<uint8_t>
patternPayload(uint8_t seed, size_t len)
{
    std::vector<uint8_t> p(len);
    for (size_t i = 0; i < len; ++i)
        p[i] = static_cast<uint8_t>(seed + 31 * i);
    return p;
}

uint64_t
fileSizeOnDisk(const std::string &path)
{
    struct stat st = {};
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    return static_cast<uint64_t>(st.st_size);
}

/** Overwrite @p len bytes at @p offset in the raw log file. */
void
stompFile(const std::string &path, uint64_t offset, const void *bytes,
          size_t len)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, len, f), len);
    ASSERT_EQ(std::fclose(f), 0);
}

/** Append @p len raw bytes to the log file (simulates a torn write). */
void
appendGarbage(const std::string &path, size_t len)
{
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::vector<uint8_t> junk(len, 0xa5);
    ASSERT_EQ(std::fwrite(junk.data(), 1, len, f), len);
    ASSERT_EQ(std::fclose(f), 0);
}

TEST(PersistLogCrcTest, MatchesIeeeCheckValue)
{
    // The canonical CRC32 check vector.
    EXPECT_EQ(persistLogCrc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(persistLogCrc32("", 0), 0u);
}

TEST(PersistLogTest, RoundTripAcrossReopen)
{
    TempDir dir;
    std::string path = dir.file("log");
    std::vector<uint8_t> p1 = patternPayload(1, 128);
    std::vector<uint8_t> p2 = patternPayload(2, 64);
    {
        auto log = PersistLog::open(path, {}, /*truncate=*/true);
        ASSERT_NE(log, nullptr);
        log->append(0x1000, p1.data(), static_cast<uint32_t>(p1.size()));
        log->append(0x2000, p2.data(), static_cast<uint32_t>(p2.size()));
        log->flush();
        EXPECT_EQ(log->liveEntries(), 2u);
        EXPECT_EQ(log->stats().entries_appended, 2u);
        EXPECT_EQ(log->stats().payload_bytes_appended, 192u);
    }
    auto log = PersistLog::open(path, {}, /*truncate=*/false);
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->liveEntries(), 2u);
    EXPECT_EQ(log->stats().entries_replayed, 2u);
    std::vector<uint8_t> got;
    ASSERT_TRUE(log->get(0x1000, &got));
    EXPECT_EQ(got, p1);
    ASSERT_TRUE(log->get(0x2000, &got));
    EXPECT_EQ(got, p2);
    EXPECT_FALSE(log->get(0x3000, &got));
}

TEST(PersistLogTest, LastEntryWinsForAKey)
{
    TempDir dir;
    auto log = PersistLog::open(dir.file("log"), {}, true);
    ASSERT_NE(log, nullptr);
    std::vector<uint8_t> old_p = patternPayload(3, 32);
    std::vector<uint8_t> new_p = patternPayload(4, 48);
    log->append(0x40, old_p.data(), static_cast<uint32_t>(old_p.size()));
    log->append(0x40, new_p.data(), static_cast<uint32_t>(new_p.size()));
    std::vector<uint8_t> got;
    ASSERT_TRUE(log->get(0x40, &got));
    EXPECT_EQ(got, new_p);
    EXPECT_EQ(log->liveEntries(), 1u);
    // The superseded entry is dead weight until compaction.
    EXPECT_EQ(log->wastedBytes(), kEntryHeaderBytes + old_p.size());
}

TEST(PersistLogTest, UnflushedBatchIsLostPendingDrop)
{
    TempDir dir;
    std::string path = dir.file("log");
    auto log = PersistLog::open(path, {}, true);
    ASSERT_NE(log, nullptr);
    std::vector<uint8_t> durable = patternPayload(5, 100);
    log->append(0x100, durable.data(),
                static_cast<uint32_t>(durable.size()));
    log->flush();
    std::vector<uint8_t> volatile_p = patternPayload(6, 100);
    log->append(0x200, volatile_p.data(),
                static_cast<uint32_t>(volatile_p.size()));
    // The second append sits in the batch buffer: the file has not
    // grown. dropPending() is the power cut that loses the queue.
    EXPECT_EQ(fileSizeOnDisk(path),
              kFileHeaderBytes + kEntryHeaderBytes + durable.size());
    log->dropPending();
    std::vector<uint8_t> got;
    EXPECT_TRUE(log->get(0x100, &got));
    EXPECT_EQ(got, durable);
    EXPECT_FALSE(log->get(0x200, &got));
}

TEST(PersistLogTest, TornTailHeaderIsTruncatedOnReopen)
{
    TempDir dir;
    std::string path = dir.file("log");
    std::vector<uint8_t> p = patternPayload(7, 256);
    {
        auto log = PersistLog::open(path, {}, true);
        ASSERT_NE(log, nullptr);
        log->append(0x80, p.data(), static_cast<uint32_t>(p.size()));
        log->flush();
    }
    const uint64_t intact = fileSizeOnDisk(path);
    // A crash mid-append leaves half an entry header.
    appendGarbage(path, kEntryHeaderBytes / 2);
    auto log = PersistLog::open(path, {}, false);
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->stats().torn_tail_bytes, kEntryHeaderBytes / 2);
    EXPECT_EQ(fileSizeOnDisk(path), intact);
    std::vector<uint8_t> got;
    ASSERT_TRUE(log->get(0x80, &got));
    EXPECT_EQ(got, p);
}

TEST(PersistLogTest, TornTailPayloadIsTruncatedOnReopen)
{
    TempDir dir;
    std::string path = dir.file("log");
    std::vector<uint8_t> p = patternPayload(8, 128);
    {
        auto log = PersistLog::open(path, {}, true);
        ASSERT_NE(log, nullptr);
        log->append(0x80, p.data(), static_cast<uint32_t>(p.size()));
        log->flush();
    }
    const uint64_t intact = fileSizeOnDisk(path);
    // A complete header promising 128 payload bytes, then the crash:
    // only 5 arrive. Header + stub must both be truncated away.
    struct {
        uint32_t crc = 0xdeadbeef;
        uint32_t size = 128;
        uint64_t key = 0xf00;
    } hdr;
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&hdr, 1, sizeof(hdr), f), sizeof(hdr));
    uint8_t stub[5] = {1, 2, 3, 4, 5};
    ASSERT_EQ(std::fwrite(stub, 1, sizeof(stub), f), sizeof(stub));
    ASSERT_EQ(std::fclose(f), 0);

    auto log = PersistLog::open(path, {}, false);
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->stats().torn_tail_bytes, kEntryHeaderBytes + 5);
    EXPECT_EQ(fileSizeOnDisk(path), intact);
    EXPECT_EQ(log->liveEntries(), 1u);
}

TEST(PersistLogTest, CorruptCompleteEntryIsRejectedNotTruncated)
{
    TempDir dir;
    std::string path = dir.file("log");
    std::vector<uint8_t> p1 = patternPayload(9, 64);
    std::vector<uint8_t> p2 = patternPayload(10, 64);
    {
        auto log = PersistLog::open(path, {}, true);
        ASSERT_NE(log, nullptr);
        log->append(0x100, p1.data(), static_cast<uint32_t>(p1.size()));
        log->append(0x200, p2.data(), static_cast<uint32_t>(p2.size()));
        log->flush();
    }
    // Bit-rot one payload byte of the *first* entry. Its framing is
    // intact, so the scan must reject it and keep going: the second
    // entry stays live and nothing is truncated.
    uint8_t flipped = static_cast<uint8_t>(~p1[10]);
    stompFile(path, kFileHeaderBytes + kEntryHeaderBytes + 10, &flipped, 1);
    const uint64_t before = fileSizeOnDisk(path);

    auto log = PersistLog::open(path, {}, false);
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->stats().crc_rejected, 1u);
    EXPECT_EQ(log->stats().torn_tail_bytes, 0u);
    EXPECT_EQ(fileSizeOnDisk(path), before);
    EXPECT_EQ(log->liveEntries(), 1u);
    std::vector<uint8_t> got;
    EXPECT_FALSE(log->get(0x100, &got));
    ASSERT_TRUE(log->get(0x200, &got));
    EXPECT_EQ(got, p2);
}

TEST(PersistLogTest, TombstoneThenCompactionRoundTrip)
{
    TempDir dir;
    std::string path = dir.file("log");
    std::vector<uint8_t> keep = patternPayload(11, 200);
    std::vector<uint8_t> dead = patternPayload(12, 200);
    {
        auto log = PersistLog::open(path, {}, true);
        ASSERT_NE(log, nullptr);
        log->append(0x100, dead.data(),
                    static_cast<uint32_t>(dead.size()));
        log->append(0x200, keep.data(),
                    static_cast<uint32_t>(keep.size()));
        log->appendTombstone(0x100);
        log->flush();
        EXPECT_EQ(log->liveEntries(), 1u);
        EXPECT_EQ(log->stats().tombstones_appended, 1u);
        const uint64_t fat = fileSizeOnDisk(path);
        log->compact();
        EXPECT_EQ(log->stats().compactions, 1u);
        EXPECT_LT(fileSizeOnDisk(path), fat);
        EXPECT_EQ(log->wastedBytes(), 0u);
    }
    // The compacted file must round-trip: key 0x200 lives, 0x100 is
    // gone for good (its tombstone was compacted away with it).
    auto log = PersistLog::open(path, {}, false);
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->liveEntries(), 1u);
    std::vector<uint8_t> got;
    EXPECT_FALSE(log->get(0x100, &got));
    ASSERT_TRUE(log->get(0x200, &got));
    EXPECT_EQ(got, keep);
}

TEST(PersistLogTest, AutoCompactionBoundsGrowth)
{
    TempDir dir;
    PersistLogParams params;
    params.batch_bytes = 256;
    params.fsync_on_flush = false;
    params.compact_min_bytes = 2048;
    params.compact_waste_threshold = 0.5;
    auto log = PersistLog::open(dir.file("log"), params, true);
    ASSERT_NE(log, nullptr);
    // Overwrite one key until superseded entries dominate the file;
    // the flush path must compact without being asked.
    std::vector<uint8_t> p = patternPayload(13, 128);
    for (int i = 0; i < 200; ++i) {
        p[0] = static_cast<uint8_t>(i);
        log->append(0x40, p.data(), static_cast<uint32_t>(p.size()));
        log->flush();
    }
    EXPECT_GE(log->stats().compactions, 1u);
    EXPECT_GT(log->stats().compact_bytes_reclaimed, 0u);
    // File stays near one live entry, not 200 appends.
    EXPECT_LE(log->fileBytes(),
              4 * (kEntryHeaderBytes + p.size()) + kFileHeaderBytes);
    std::vector<uint8_t> got;
    ASSERT_TRUE(log->get(0x40, &got));
    EXPECT_EQ(got[0], 199);
}

TEST(PersistLogTest, IndexRebuildIsDeterministic)
{
    TempDir dir;
    std::string path = dir.file("log");
    {
        auto log = PersistLog::open(path, {}, true);
        ASSERT_NE(log, nullptr);
        // Interleave appends, overwrites and tombstones so the index
        // is a nontrivial function of the scan.
        for (uint64_t k = 0; k < 32; ++k) {
            std::vector<uint8_t> p =
                patternPayload(static_cast<uint8_t>(k), 64 + 8 * (k % 5));
            log->append(0x1000 + k * 0x80, p.data(),
                        static_cast<uint32_t>(p.size()));
        }
        for (uint64_t k = 0; k < 32; k += 3)
            log->appendTombstone(0x1000 + k * 0x80);
        for (uint64_t k = 0; k < 32; k += 4) {
            std::vector<uint8_t> p =
                patternPayload(static_cast<uint8_t>(0x80 + k), 72);
            log->append(0x1000 + k * 0x80, p.data(),
                        static_cast<uint32_t>(p.size()));
        }
        log->flush();
    }
    auto first = PersistLog::open(path, {}, false);
    auto second = PersistLog::open(path, {}, false);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    auto a = first->indexSnapshot();
    auto b = second->indexSnapshot();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first);
        EXPECT_EQ(a[i].second.offset, b[i].second.offset);
        EXPECT_EQ(a[i].second.size, b[i].second.size);
    }
    // Compaction relocates entries but must preserve the live set and
    // every payload byte.
    first->compact();
    auto compacted = first->indexSnapshot();
    ASSERT_EQ(compacted.size(), b.size());
    for (size_t i = 0; i < compacted.size(); ++i) {
        EXPECT_EQ(compacted[i].first, b[i].first);
        std::vector<uint8_t> x, y;
        ASSERT_TRUE(first->get(compacted[i].first, &x));
        ASSERT_TRUE(second->get(b[i].first, &y));
        EXPECT_EQ(x, y);
    }
}

TEST(PersistLogEnvTest, SelectsBackendFromEnvironment)
{
    TempDir dir;
    std::string path = dir.file("log");
    ::unsetenv("GPULP_NVM_DEVICE");
    EXPECT_EQ(persistLogFromEnv(), nullptr);
    ::setenv("GPULP_NVM_DEVICE", "mem", 1);
    EXPECT_EQ(persistLogFromEnv(), nullptr);
    ::setenv("GPULP_NVM_DEVICE", ("file:" + path).c_str(), 1);
    auto log = persistLogFromEnv(/*truncate=*/true);
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->path(), path);
    ::unsetenv("GPULP_NVM_DEVICE");
}

// NvmCache integration ------------------------------------------------------

TEST(PersistLogNvmTest, WritebacksReachTheLogAndRestoreElsewhere)
{
    TempDir dir;
    std::string path = dir.file("log");
    PersistLogParams params;
    params.batch_bytes = 512;
    NvmParams nparams;
    nparams.cache_bytes = 1024;
    nparams.line_bytes = 128;
    nparams.associativity = 4;

    std::vector<uint32_t> expect(1024);
    Addr first_base = 0;
    {
        GlobalMemory mem(1 << 20);
        NvmCache nvm(mem, nparams);
        auto log = PersistLog::open(path, params, true);
        ASSERT_NE(log, nullptr);
        nvm.attachPersistLog(log.get());
        mem.setObserver(&nvm);
        Addr a = mem.alloc(expect.size() * sizeof(uint32_t));
        first_base = a;
        for (size_t i = 0; i < expect.size(); ++i) {
            expect[i] = static_cast<uint32_t>(0x9e370001u * (i + 1));
            mem.write<uint32_t>(a + i * sizeof(uint32_t), expect[i]);
        }
        nvm.persistAll();
        EXPECT_GT(log->stats().entries_appended, 0u);
    }
    // A different process would rebuild the same arena layout, reopen
    // the log and restore. Model it with fresh objects.
    GlobalMemory mem(1 << 20);
    NvmCache nvm(mem, nparams);
    auto log = PersistLog::open(path, params, false);
    ASSERT_NE(log, nullptr);
    EXPECT_GT(log->stats().entries_replayed, 0u);
    nvm.attachPersistLog(log.get());
    mem.setObserver(&nvm);
    // The fresh "process" must lay out memory identically — the log
    // replays by raw arena address.
    Addr a = mem.alloc(expect.size() * sizeof(uint32_t));
    ASSERT_EQ(a, first_base);
    nvm.restoreFromLog();
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(mem.read<uint32_t>(a + i * sizeof(uint32_t)), expect[i])
            << "word " << i;
    // The restored image is also the persisted image.
    EXPECT_TRUE(nvm.isPersisted(a, expect.size() * sizeof(uint32_t)));
}

TEST(PersistLogNvmTest, ArenaResetTombstonesTheLog)
{
    TempDir dir;
    GlobalMemory mem(1 << 20);
    NvmParams nparams;
    nparams.cache_bytes = 1024;
    nparams.line_bytes = 128;
    nparams.associativity = 4;
    NvmCache nvm(mem, nparams);
    auto log = PersistLog::open(dir.file("log"), {}, true);
    ASSERT_NE(log, nullptr);
    nvm.attachPersistLog(log.get());
    mem.setObserver(&nvm);
    Addr a = mem.alloc(4096);
    for (int i = 0; i < 1024; ++i)
        mem.write<uint32_t>(a + i * 4, 0xabad1deau);
    nvm.persistAll();
    EXPECT_GT(log->liveEntries(), 0u);
    // Reset kills the allocation; a reused log must not replay it.
    mem.reset();
    EXPECT_EQ(log->liveEntries(), 0u);
    EXPECT_GT(log->stats().tombstones_appended, 0u);
}

TEST(PersistLogNvmDeathTest, RestoreRejectsAnEntryWrappingPastTheArena)
{
    // A CRC-valid entry whose key + size wraps past 2^64 must not pass
    // the arena bound and write below the shadow and the arena.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    TempDir dir;
    std::string path = dir.file("log");
    {
        auto log = PersistLog::open(path, {}, true);
        ASSERT_NE(log, nullptr);
        const uint8_t payload[16] = {};
        log->append(~uint64_t{0} - 7, payload, sizeof(payload));
        log->flush();
    }
    EXPECT_DEATH(
        {
            GlobalMemory mem(1 << 16);
            NvmCache nvm(mem, NvmParams{});
            auto log = PersistLog::open(path, {}, false);
            nvm.attachPersistLog(log.get());
            nvm.restoreFromLog();
        },
        "beyond the arena");
}

} // namespace
} // namespace gpulp
