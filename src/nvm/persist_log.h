/**
 * @file
 * File-backed NVM device: an append-only, CRC32-framed persist log.
 *
 * The in-memory NvmCache shadow models persistency for one process,
 * which is enough for simulated crashes but cannot survive a real
 * `kill -9`. This log is the durable backend: every line the cache
 * writes back appends one framed entry, and a fresh process rebuilds
 * the NVM image by scanning the file (tools/crash_harness is the
 * consumer that turns this into real cross-process crash tests).
 *
 * File format (little-endian, matching the host):
 *
 *   [FileHeader: magic "GPLP", version]
 *   [Entry 0][Entry 1]...
 *
 * Entry framing (16-byte header + payload):
 *
 *   uint32_t crc32   // CRC32 of (size, key, payload)
 *   uint32_t size    // payload bytes; 0 = tombstone (delete marker)
 *   uint64_t key     // device byte address of the logged line
 *   uint8_t  data[size]
 *
 * Properties:
 *
 *  - append-only: every mutation is one buffered append; the last
 *    entry for a key wins, a tombstone (size 0) deletes the key;
 *  - open() scans the file and rebuilds the in-memory index. A damaged
 *    entry — bad size, key, payload or CRC (bit rot, torn sector) — is
 *    skipped up to the next offset that holds a complete CRC-valid
 *    entry; when none follows, the damage is a torn tail (a crash cut
 *    the last write short) and is truncated;
 *  - appends gather in a small batch buffer and reach the file in
 *    batched writes (flush() forces the batch out and fdatasyncs), so
 *    the hot write-back path stays cheap. Anything still in the batch
 *    when the process is killed is lost — exactly the loss window a
 *    real device write queue has; LP validation flags the affected
 *    blocks and recovery re-executes them;
 *  - superseded and tombstoned entries are dead weight; when the dead
 *    fraction passes PersistLogParams::compact_waste_threshold a
 *    compaction pass rewrites only the live entries (sorted by key,
 *    so the compacted file is deterministic) and atomically renames
 *    it over the log.
 *
 * Thread safety: none — the caller serializes. NvmCache drives the
 * log under its own mutex.
 *
 * See docs/PERSIST_LOG.md for the full format and recovery semantics.
 */

#ifndef GPULP_NVM_PERSIST_LOG_H
#define GPULP_NVM_PERSIST_LOG_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gpulp {

/** CRC32 (IEEE 802.3, reflected 0xEDB88320) used to frame log entries. */
uint32_t persistLogCrc32(const void *data, size_t bytes, uint32_t seed = 0);

/** Tunables for the persist log. */
struct PersistLogParams {
    /** Batch buffer size; appends reach the file when it fills. */
    size_t batch_bytes = 64 * 1024;

    /** fdatasync() the file on every flush (off only speeds tests;
     *  a SIGKILL'd process keeps its page-cache writes either way). */
    bool fsync_on_flush = true;

    /** Auto-compact when dead bytes exceed this fraction of the file
     *  and the file is at least compact_min_bytes. */
    double compact_waste_threshold = 0.5;
    size_t compact_min_bytes = 256 * 1024;

    /** Entries claiming a larger payload than this are damaged; the
     *  scan resynchronizes past them. */
    size_t max_entry_bytes = 16 * 1024 * 1024;
};

/** Counters accumulated by one PersistLog instance. */
struct PersistLogStats {
    uint64_t entries_appended = 0;   //!< data entries (tombstones excluded)
    uint64_t tombstones_appended = 0;
    uint64_t payload_bytes_appended = 0; //!< data bytes, no framing
    uint64_t bytes_appended = 0;     //!< payload + headers, the device truth
    uint64_t batch_flushes = 0;      //!< batched writes issued
    uint64_t compactions = 0;
    uint64_t compact_bytes_reclaimed = 0;
    uint64_t entries_replayed = 0;   //!< live entries indexed by open()
    uint64_t crc_rejected = 0;       //!< damaged entries skipped on open
    uint64_t torn_tail_bytes = 0;    //!< bytes truncated from a torn tail
};

/**
 * The append-only log plus its in-memory index.
 *
 * Create via open(); the file is created if missing, scanned and
 * indexed if present. All sizes/offsets are bytes.
 */
class PersistLog
{
  public:
    /** Where a key's newest payload lives in the file. */
    struct IndexSlot {
        uint64_t offset = 0; //!< file offset of the entry *header*
        uint32_t size = 0;   //!< payload bytes
    };

    /**
     * Open (or create) the log at @p path and rebuild the index.
     *
     * @param truncate Start from an empty log, discarding any existing
     *        contents (fresh experiment runs); recovery opens with
     *        false to replay what the dead process persisted.
     * @return The log, or nullptr with a diagnostic on stderr if the
     *         file cannot be opened or its header is not a gpulp log.
     */
    static std::unique_ptr<PersistLog> open(
        const std::string &path, const PersistLogParams &params = {},
        bool truncate = false);

    ~PersistLog();

    PersistLog(const PersistLog &) = delete;
    PersistLog &operator=(const PersistLog &) = delete;

    /** Buffered append of @p size payload bytes under @p key. */
    void append(uint64_t key, const void *data, uint32_t size);

    /** Buffered append of a delete marker for @p key. */
    void appendTombstone(uint64_t key);

    /**
     * Write the batch buffer to the file (fdatasync per params) and
     * run auto-compaction if the dead fraction crossed the threshold.
     * Everything appended before flush() survives a SIGKILL.
     */
    void flush();

    /** Drop batched appends that have not reached the file (models the
     *  write queue lost at a power cut; test helper). */
    void dropPending();

    /**
     * Read @p key's newest payload. Flushes the batch first so the
     * index and file agree. Returns false if the key is dead/absent.
     */
    bool get(uint64_t key, std::vector<uint8_t> *out);

    /**
     * Visit every live (key, payload) pair in ascending key order.
     * Flushes first. The payload pointer is only valid during the call.
     */
    void forEachLive(
        const std::function<void(uint64_t key, const uint8_t *data,
                                 uint32_t size)> &fn);

    /**
     * Rewrite the file to live entries only (ascending key order) and
     * atomically rename it into place. No-op on an already-dense log.
     */
    void compact();

    /** Live keys currently indexed. */
    size_t liveEntries() const { return index_.size(); }

    /** File bytes (header + entries) that reached the file. */
    uint64_t fileBytes() const { return end_; }

    /** Dead bytes: superseded/tombstoned entries plus the tombstones
     *  themselves; what compaction reclaims. */
    uint64_t wastedBytes() const { return wasted_; }

    /** Index snapshot, sorted by key (determinism checks in tests). */
    std::vector<std::pair<uint64_t, IndexSlot>> indexSnapshot() const;

    /** Counters since open(). */
    const PersistLogStats &stats() const { return stats_; }

    /** Path this log lives at. */
    const std::string &path() const { return path_; }

  private:
    PersistLog(std::string path, const PersistLogParams &params, int fd);

    /** Scan the file, build the index, skip damaged entries and
     *  truncate a torn tail. */
    void rebuildIndex();

    /** Account an indexed entry's death (supersede or tombstone). */
    void retireSlot(uint64_t key);

    /** Append raw framed bytes to the batch (no flush: callers flush
     *  only on whole-entry boundaries). */
    void batchAppend(const void *bytes, size_t len);

    /** pread() helper returning false on short reads. */
    bool readAt(uint64_t offset, void *out, size_t len) const;

    std::string path_;
    PersistLogParams params_;
    int fd_ = -1;
    uint64_t end_ = 0;    //!< file bytes incl. batch not yet written
    uint64_t durable_ = 0; //!< file bytes actually written
    uint64_t wasted_ = 0;
    std::map<uint64_t, IndexSlot> index_;
    std::vector<uint8_t> batch_;
    PersistLogStats stats_;
};

/**
 * Parse the GPULP_NVM_DEVICE environment variable and return the
 * selected file backend, or nullptr for the default in-memory device.
 * Accepted values: unset / "mem" (in-memory shadow only) and
 * "file:<path>" (attach a PersistLog at <path>). Anything else is a
 * fatal configuration error.
 *
 * @param truncate Passed through to PersistLog::open(); measurement
 *        runs truncate, recovery must not.
 */
std::unique_ptr<PersistLog> persistLogFromEnv(bool truncate = true);

} // namespace gpulp

#endif // GPULP_NVM_PERSIST_LOG_H
