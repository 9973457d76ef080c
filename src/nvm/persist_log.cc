#include "persist_log.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.h"
#include "obs/counters.h"

namespace gpulp {

namespace {

constexpr uint32_t kMagic = 0x504c5047; // "GPLP" little-endian
constexpr uint32_t kVersion = 1;

struct FileHeader {
    uint32_t magic;
    uint32_t version;
};

struct EntryHeader {
    uint32_t crc;
    uint32_t size;
    uint64_t key;
};
static_assert(sizeof(FileHeader) == 8 && sizeof(EntryHeader) == 16,
              "log framing is a fixed on-disk format");

/** CRC32 lookup table, built once. */
const std::array<uint32_t, 256> &
crcTable()
{
    static const std::array<uint32_t, 256> table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

/** CRC of (size, key, payload) — the framed portion of one entry. */
uint32_t
entryCrc(uint32_t size, uint64_t key, const void *payload)
{
    uint32_t crc = persistLogCrc32(&size, sizeof(size));
    crc = persistLogCrc32(&key, sizeof(key), crc);
    if (size != 0)
        crc = persistLogCrc32(payload, size, crc);
    return crc;
}

/** write() the whole buffer, retrying short writes. */
bool
writeAll(int fd, const void *data, size_t len, uint64_t offset)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        offset += static_cast<uint64_t>(n);
        len -= static_cast<size_t>(n);
    }
    return true;
}

} // namespace

uint32_t
persistLogCrc32(const void *data, size_t bytes, uint32_t seed)
{
    const auto &table = crcTable();
    uint32_t crc = ~seed;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < bytes; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return ~crc;
}

PersistLog::PersistLog(std::string path, const PersistLogParams &params,
                       int fd)
    : path_(std::move(path)), params_(params), fd_(fd)
{
    batch_.reserve(params_.batch_bytes);
}

PersistLog::~PersistLog()
{
    if (fd_ >= 0) {
        flush();
        ::close(fd_);
    }
}

std::unique_ptr<PersistLog>
PersistLog::open(const std::string &path, const PersistLogParams &params,
                 bool truncate)
{
    int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
        std::fprintf(stderr, "persist_log: cannot open %s: %s\n",
                     path.c_str(), std::strerror(errno));
        return nullptr;
    }
    std::unique_ptr<PersistLog> log(new PersistLog(path, params, fd));

    FileHeader hdr{};
    if (log->readAt(0, &hdr, sizeof(hdr))) {
        if (hdr.magic != kMagic || hdr.version != kVersion) {
            std::fprintf(stderr,
                         "persist_log: %s is not a gpulp persist log "
                         "(magic %08x version %u)\n",
                         path.c_str(), hdr.magic, hdr.version);
            return nullptr;
        }
        log->rebuildIndex();
    } else {
        // Empty or header-truncated file: (re)write the header.
        hdr = FileHeader{kMagic, kVersion};
        if (!writeAll(fd, &hdr, sizeof(hdr), 0) ||
            ::ftruncate(fd, sizeof(hdr)) != 0) {
            std::fprintf(stderr, "persist_log: cannot initialize %s: %s\n",
                         path.c_str(), std::strerror(errno));
            return nullptr;
        }
        log->end_ = log->durable_ = sizeof(hdr);
    }
    return log;
}

void
PersistLog::rebuildIndex()
{
    off_t file_size = ::lseek(fd_, 0, SEEK_END);
    GPULP_ASSERT(file_size >= 0, "persist_log: lseek failed on %s",
                 path_.c_str());
    const uint64_t base = sizeof(FileHeader);
    const uint64_t size = static_cast<uint64_t>(file_size);
    // Every entry byte in one read; the scan parses them in memory.
    std::vector<uint8_t> bytes(size > base ? size - base : 0);
    GPULP_ASSERT(bytes.empty() || readAt(base, bytes.data(), bytes.size()),
                 "persist_log: cannot read %s", path_.c_str());

    // Bytes of the complete, CRC-valid entry at @p pos; 0 if none.
    auto entryAt = [&](uint64_t pos, EntryHeader *eh) -> uint64_t {
        if (bytes.size() - pos < sizeof(*eh))
            return 0;
        std::memcpy(eh, bytes.data() + pos, sizeof(*eh));
        if (eh->size > params_.max_entry_bytes ||
            eh->size > bytes.size() - pos - sizeof(*eh) ||
            entryCrc(eh->size, eh->key, bytes.data() + pos + sizeof(*eh)) !=
                eh->crc)
            return 0;
        return sizeof(*eh) + eh->size;
    };

    uint64_t pos = 0;
    EntryHeader eh{};
    while (pos < bytes.size()) {
        uint64_t len = entryAt(pos, &eh);
        if (len == 0) {
            // A damaged entry (wrong size, key, payload or CRC, or cut
            // short by a crash). Skip to the next offset that holds a
            // complete CRC-valid entry, so one bad size field cannot
            // take the intact entries behind it; only when none follows
            // is this a torn tail.
            uint64_t next = pos + 1;
            while (next < bytes.size() && entryAt(next, &eh) == 0)
                ++next;
            if (next == bytes.size())
                break;
            ++stats_.crc_rejected;
            obs::add(obs::Ctr::NvmLogCrcRejected);
            wasted_ += next - pos;
            pos = next;
            continue;
        }
        retireSlot(eh.key);
        if (eh.size == 0)
            wasted_ += sizeof(eh); // the tombstone itself
        else
            index_[eh.key] = IndexSlot{base + pos, eh.size};
        pos += len;
    }

    const uint64_t end = base + pos;
    if (end < size) {
        // Torn tail: drop the partial entry so future appends start on
        // a clean frame boundary.
        stats_.torn_tail_bytes += size - end;
        obs::add(obs::Ctr::NvmLogTornTruncations);
        GPULP_ASSERT(::ftruncate(fd_, static_cast<off_t>(end)) == 0,
                     "persist_log: cannot truncate torn tail of %s",
                     path_.c_str());
    }
    end_ = durable_ = end;
    stats_.entries_replayed = index_.size();
    obs::add(obs::Ctr::NvmLogReplayedEntries, index_.size());
}

void
PersistLog::retireSlot(uint64_t key)
{
    auto it = index_.find(key);
    if (it == index_.end())
        return;
    wasted_ += sizeof(EntryHeader) + it->second.size;
    index_.erase(it);
}

void
PersistLog::batchAppend(const void *bytes, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(bytes);
    batch_.insert(batch_.end(), p, p + len);
}

void
PersistLog::append(uint64_t key, const void *data, uint32_t size)
{
    GPULP_ASSERT(size != 0, "zero-size append is a tombstone; use "
                            "appendTombstone()");
    GPULP_ASSERT(size <= params_.max_entry_bytes,
                 "entry payload %u exceeds max_entry_bytes", size);
    EntryHeader eh{entryCrc(size, key, data), size, key};
    retireSlot(key);
    index_[key] = IndexSlot{end_, size};
    end_ += sizeof(eh) + size;
    ++stats_.entries_appended;
    stats_.payload_bytes_appended += size;
    stats_.bytes_appended += sizeof(eh) + size;
    obs::add(obs::Ctr::NvmLogAppends);
    obs::add(obs::Ctr::NvmLogAppendedBytes, sizeof(eh) + size);
    batchAppend(&eh, sizeof(eh));
    batchAppend(data, size);
    // Flush only on whole-entry boundaries: the batch must always be
    // exactly the bytes in [durable_, end_).
    if (batch_.size() >= params_.batch_bytes)
        flush();
}

void
PersistLog::appendTombstone(uint64_t key)
{
    EntryHeader eh{entryCrc(0, key, nullptr), 0, key};
    retireSlot(key);
    wasted_ += sizeof(eh);
    end_ += sizeof(eh);
    ++stats_.tombstones_appended;
    stats_.bytes_appended += sizeof(eh);
    obs::add(obs::Ctr::NvmLogTombstones);
    obs::add(obs::Ctr::NvmLogAppendedBytes, sizeof(eh));
    batchAppend(&eh, sizeof(eh));
    if (batch_.size() >= params_.batch_bytes)
        flush();
}

void
PersistLog::flush()
{
    if (!batch_.empty()) {
        GPULP_ASSERT(writeAll(fd_, batch_.data(), batch_.size(), durable_),
                     "persist_log: write to %s failed: %s", path_.c_str(),
                     std::strerror(errno));
        durable_ += batch_.size();
        batch_.clear();
        ++stats_.batch_flushes;
        obs::add(obs::Ctr::NvmLogBatchFlushes);
        if (params_.fsync_on_flush)
            ::fdatasync(fd_);
    }
    GPULP_ASSERT(durable_ == end_, "persist_log: offset accounting drift");
    if (end_ >= params_.compact_min_bytes &&
        static_cast<double>(wasted_) >
            params_.compact_waste_threshold * static_cast<double>(end_)) {
        compact();
    }
}

void
PersistLog::dropPending()
{
    // The batch may hold entries the index already points at (their
    // offsets are past durable_); rebuild the index from what actually
    // reached the file, as a power cut would force on open().
    batch_.clear();
    end_ = durable_;
    index_.clear();
    wasted_ = 0;
    PersistLogStats kept = stats_;
    rebuildIndex();
    // rebuildIndex() recounts replay stats; keep the append history.
    stats_ = kept;
    stats_.entries_replayed = index_.size();
}

bool
PersistLog::readAt(uint64_t offset, void *out, size_t len) const
{
    char *p = static_cast<char *>(out);
    while (len > 0) {
        ssize_t n = ::pread(fd_, p, len, static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF before len bytes
        p += n;
        offset += static_cast<uint64_t>(n);
        len -= static_cast<size_t>(n);
    }
    return true;
}

bool
PersistLog::get(uint64_t key, std::vector<uint8_t> *out)
{
    flush();
    auto it = index_.find(key);
    if (it == index_.end())
        return false;
    EntryHeader eh{};
    GPULP_ASSERT(readAt(it->second.offset, &eh, sizeof(eh)),
                 "persist_log: indexed header unreadable in %s",
                 path_.c_str());
    GPULP_ASSERT(eh.key == key && eh.size == it->second.size,
                 "persist_log: index out of sync with %s", path_.c_str());
    out->resize(eh.size);
    GPULP_ASSERT(readAt(it->second.offset + sizeof(eh), out->data(),
                        eh.size),
                 "persist_log: indexed payload unreadable in %s",
                 path_.c_str());
    return true;
}

void
PersistLog::forEachLive(
    const std::function<void(uint64_t, const uint8_t *, uint32_t)> &fn)
{
    flush();
    std::vector<uint8_t> payload;
    for (const auto &[key, slot] : index_) { // std::map: ascending keys
        payload.resize(slot.size);
        GPULP_ASSERT(readAt(slot.offset + sizeof(EntryHeader),
                            payload.data(), slot.size),
                     "persist_log: live payload unreadable in %s",
                     path_.c_str());
        fn(key, payload.data(), slot.size);
    }
}

void
PersistLog::compact()
{
    // Flush by hand (not via flush(), which would recurse into the
    // auto-compaction check).
    if (!batch_.empty()) {
        GPULP_ASSERT(writeAll(fd_, batch_.data(), batch_.size(), durable_),
                     "persist_log: write to %s failed: %s", path_.c_str(),
                     std::strerror(errno));
        durable_ += batch_.size();
        batch_.clear();
        ++stats_.batch_flushes;
    }
    if (wasted_ == 0)
        return;

    const std::string tmp_path = path_ + ".compact.tmp";
    int tmp = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    GPULP_ASSERT(tmp >= 0, "persist_log: cannot create %s: %s",
                 tmp_path.c_str(), std::strerror(errno));

    FileHeader hdr{kMagic, kVersion};
    uint64_t out_off = 0;
    GPULP_ASSERT(writeAll(tmp, &hdr, sizeof(hdr), out_off),
                 "persist_log: header write to %s failed",
                 tmp_path.c_str());
    out_off += sizeof(hdr);

    // Live entries only, ascending key order: the compacted file is a
    // deterministic function of the live set.
    std::map<uint64_t, IndexSlot> new_index;
    std::vector<uint8_t> payload;
    for (const auto &[key, slot] : index_) {
        payload.resize(slot.size);
        GPULP_ASSERT(readAt(slot.offset + sizeof(EntryHeader),
                            payload.data(), slot.size),
                     "persist_log: live payload unreadable in %s",
                     path_.c_str());
        EntryHeader eh{entryCrc(slot.size, key, payload.data()), slot.size,
                       key};
        GPULP_ASSERT(writeAll(tmp, &eh, sizeof(eh), out_off) &&
                         writeAll(tmp, payload.data(), slot.size,
                                  out_off + sizeof(eh)),
                     "persist_log: compaction write to %s failed",
                     tmp_path.c_str());
        new_index[key] = IndexSlot{out_off, slot.size};
        out_off += sizeof(eh) + slot.size;
    }
    ::fdatasync(tmp);
    GPULP_ASSERT(::rename(tmp_path.c_str(), path_.c_str()) == 0,
                 "persist_log: rename %s over %s failed: %s",
                 tmp_path.c_str(), path_.c_str(), std::strerror(errno));
    ::close(fd_);
    fd_ = tmp;

    const uint64_t reclaimed = end_ - out_off;
    ++stats_.compactions;
    stats_.compact_bytes_reclaimed += reclaimed;
    obs::add(obs::Ctr::NvmLogCompactions);
    index_ = std::move(new_index);
    end_ = durable_ = out_off;
    wasted_ = 0;
}

std::vector<std::pair<uint64_t, PersistLog::IndexSlot>>
PersistLog::indexSnapshot() const
{
    return {index_.begin(), index_.end()};
}

std::unique_ptr<PersistLog>
persistLogFromEnv(bool truncate)
{
    const char *spec = std::getenv("GPULP_NVM_DEVICE");
    if (spec == nullptr || std::strcmp(spec, "mem") == 0 ||
        *spec == '\0') {
        return nullptr;
    }
    if (std::strncmp(spec, "file:", 5) == 0 && spec[5] != '\0') {
        auto log = PersistLog::open(spec + 5, PersistLogParams{}, truncate);
        GPULP_ASSERT(log != nullptr,
                     "GPULP_NVM_DEVICE: cannot open persist log at '%s'",
                     spec + 5);
        return log;
    }
    GPULP_FATAL("GPULP_NVM_DEVICE must be 'mem' or 'file:<path>', got "
                "'%s'",
                spec);
}

} // namespace gpulp
