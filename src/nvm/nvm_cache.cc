#include "nvm_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/counters.h"
#include "obs/trace.h"

namespace gpulp {

NvmCache::NvmCache(GlobalMemory &mem, const NvmParams &params)
    : mem_(mem), params_(params), shadow_(mem.capacity())
{
    GPULP_ASSERT(params_.line_bytes != 0 &&
                     (params_.line_bytes & (params_.line_bytes - 1)) == 0,
                 "line size must be a power of two");
    GPULP_ASSERT(params_.associativity > 0, "associativity must be > 0");
    size_t line_count = params_.cache_bytes / params_.line_bytes;
    GPULP_ASSERT(line_count >= params_.associativity,
                 "cache smaller than one set");
    sets_ = line_count / params_.associativity;
    line_shift_ = static_cast<unsigned>(std::countr_zero(params_.line_bytes));
    const size_t way_count = sets_ * params_.associativity;
    tags_.assign(way_count, kInvalidTag);
    stamps_.assign(way_count, 0);
    dirty_.assign(way_count, 0);
    mru_.assign(sets_, 0);
}

void
NvmCache::onStore(Addr addr, size_t bytes)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.stores_observed;
    obs::add(obs::Ctr::NvmStoresObserved);
    // The crash latch is checked *before* the cache is touched: the
    // store that trips the countdown is the first casualty of the
    // power failure and must never reach the persistence domain (no
    // line dirtied, no eviction write-back). Together with the frozen
    // post-crash state below, this makes crashAfterStores(n) mean
    // exactly "the NVM image reflects at most the first n stores",
    // which the fault campaign relies on for reproducible crash
    // points.
    if (crash_armed_ && !crashPending()) {
        if (crash_countdown_ == 0) {
            crash_pending_.store(true, std::memory_order_release);
            // The real-crash hook (tools/crash_harness points it at
            // raise(SIGKILL)) fires first and may never return: the
            // process dies here, mid-store, with only flushed log
            // batches durable.
            if (crash_latch_action_)
                crash_latch_action_();
            // Wake anything parked on the rank gate: with event-driven
            // waits there is no timed re-poll to notice the latch.
            if (abort_notifier_)
                abort_notifier_();
        } else {
            --crash_countdown_;
        }
    }
    if (crashPending()) {
        // Power is already gone: in-flight workers that race past the
        // latch before their SimCrash unwinds must not keep persisting
        // state. Count them for diagnostics but mutate nothing.
        ++stats_.stores_after_crash;
        obs::add(obs::Ctr::NvmStoresAfterCrash);
        return;
    }
    const uint64_t last = (addr + bytes - 1) >> line_shift_;
    for (uint64_t tag = addr >> line_shift_; tag <= last; ++tag) {
        if (access(tag, /*is_store=*/true)) {
            ++stats_.store_hits;
            obs::add(obs::Ctr::NvmStoreHits);
        } else {
            ++stats_.store_misses;
            obs::add(obs::Ctr::NvmStoreMisses);
        }
    }
}

void
NvmCache::onLoad(Addr addr, size_t bytes)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (crashPending())
        return; // frozen: see onStore()
    const uint64_t last = (addr + bytes - 1) >> line_shift_;
    for (uint64_t tag = addr >> line_shift_; tag <= last; ++tag) {
        if (access(tag, /*is_store=*/false)) {
            ++stats_.load_hits;
            obs::add(obs::Ctr::NvmLoadHits);
        } else {
            ++stats_.load_misses;
            obs::add(obs::Ctr::NvmLoadMisses);
        }
    }
}

size_t
NvmCache::findWay(uint64_t tag, size_t set) const
{
    const size_t base = set * params_.associativity;
    // The MRU way checks itself: a set holds each tag at most once, so
    // a matching hint is the way the scan below would find.
    if (tags_[base + mru_[set]] == tag)
        return base + mru_[set];
    for (size_t i = base; i < base + params_.associativity; ++i) {
        if (tags_[i] == tag)
            return i;
    }
    return kNoWay;
}

bool
NvmCache::access(uint64_t tag, bool is_store)
{
    const size_t set = setOf(tag);
    const size_t base = set * params_.associativity;
    ++tick_;

    size_t hit = findWay(tag, set);
    if (hit != kNoWay) {
        stamps_[hit] = tick_;
        dirty_[hit] |= static_cast<uint8_t>(is_store);
        mru_[set] = hit - base;
        return true;
    }

    // Miss: the first empty way, else the lowest-index LRU way.
    size_t victim = base;
    for (size_t i = base; i < base + params_.associativity; ++i) {
        if (tags_[i] == kInvalidTag) {
            victim = i;
            break;
        }
        if (stamps_[i] < stamps_[victim])
            victim = i;
    }
    if (tags_[victim] != kInvalidTag) {
        if (dirty_[victim]) {
            writebackLine(tags_[victim]);
            ++stats_.dirty_evictions;
            obs::add(obs::Ctr::NvmDirtyEvictions);
        } else {
            ++stats_.clean_evictions;
            obs::add(obs::Ctr::NvmCleanEvictions);
        }
    }
    tags_[victim] = tag;
    stamps_[victim] = tick_;
    dirty_[victim] = static_cast<uint8_t>(is_store);
    mru_[set] = victim - base;
    ++stats_.nvm_line_reads; // fill from NVM
    obs::add(obs::Ctr::NvmFills);
    return false;
}

void
NvmCache::invalidateLines()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(dirty_.begin(), dirty_.end(), uint8_t{0});
}

uint64_t
NvmCache::countDirty() const
{
    // Emptying a way clears its flag, so every dirty way is cached.
    return static_cast<uint64_t>(
        std::count(dirty_.begin(), dirty_.end(), uint8_t{1}));
}

void
NvmCache::writebackLine(uint64_t tag)
{
    Addr start = lineAddr(tag);
    size_t used = mem_.used();
    if (start >= used)
        return; // line beyond the allocated region; nothing meaningful
    size_t len = std::min(params_.line_bytes, used - start);
    // Word-atomic copy: a clwb- or eviction-triggered write-back can
    // run while other blocks store into the same line.
    mem_.copyOutAtomic(start, len, shadow_.data() + start);
    if (log_)
        log_->append(start, shadow_.data() + start,
                     static_cast<uint32_t>(len));
}

void
NvmCache::logDivergedLines()
{
    size_t used = mem_.used();
    for (Addr start = 0; start < used; start += params_.line_bytes) {
        size_t len = std::min(params_.line_bytes, used - start);
        if (std::memcmp(shadow_.data() + start, mem_.raw(start), len) != 0)
            log_->append(start, mem_.raw(start),
                         static_cast<uint32_t>(len));
    }
}

void
NvmCache::attachPersistLog(PersistLog *log)
{
    std::lock_guard<std::mutex> lk(mu_);
    log_ = log;
}

void
NvmCache::restoreFromLog()
{
    std::lock_guard<std::mutex> lk(mu_);
    GPULP_ASSERT(log_ != nullptr, "restoreFromLog without an attached log");
    log_->forEachLive([&](uint64_t key, const uint8_t *data,
                          uint32_t size) {
        // key + size would wrap for a key near 2^64.
        GPULP_ASSERT(size <= shadow_.size() && key <= shadow_.size() - size,
                     "log entry [%llu, +%u) beyond the arena (%zu bytes): "
                     "the recovering process laid memory out differently",
                     static_cast<unsigned long long>(key), size,
                     shadow_.size());
        std::memcpy(shadow_.data() + key, data, size);
        std::memcpy(mem_.raw(key), data, size);
    });
    invalidateLines();
}

void
NvmCache::onReset()
{
    std::lock_guard<std::mutex> lk(mu_);
    // The arena was released and zeroed: no cached line or shadow byte
    // is meaningful any more, and a reused log file must not replay the
    // dead allocations into the next experiment.
    invalidateLines();
    std::memset(shadow_.data(), 0, shadow_.size());
    if (log_) {
        for (const auto &[key, slot] : log_->indexSnapshot())
            log_->appendTombstone(key);
        log_->flush();
    }
}

void
NvmCache::persistAll()
{
    obs::TraceSpan span("persist_all", "nvm");
    std::lock_guard<std::mutex> lk(mu_);
    if (crashPending())
        return; // power already failed; nothing can reach NVM now
    obs::add(obs::Ctr::NvmPersistAlls);
    // Publish the whole arena (covers host raw() writes that never went
    // through the observer) and clean every line. The file device only
    // receives the lines that actually diverged — appending the whole
    // arena would fabricate write amplification the checkpoint does
    // not cause.
    if (log_) {
        logDivergedLines();
        log_->flush();
    }
    std::memcpy(shadow_.data(), mem_.raw(0), mem_.used());
    uint64_t flushed = countDirty();
    std::fill(dirty_.begin(), dirty_.end(), uint8_t{0});
    stats_.flushed_lines += flushed;
    obs::add(obs::Ctr::NvmFlushedLines, flushed);
}

uint64_t
NvmCache::crash()
{
    std::lock_guard<std::mutex> lk(mu_);
    // Every line still dirty at the failure holds store values that
    // never reached NVM — the "torn" state recovery must repair.
    uint64_t torn = countDirty();
    stats_.torn_lines += torn;
    obs::add(obs::Ctr::NvmCrashes);
    obs::add(obs::Ctr::NvmTornLines, torn);
    obs::traceInstant("crash", "nvm", torn, "torn_lines");
    // A simulated in-process crash treats everything already written
    // back as durable, so drain the log's batch buffer: shadow and
    // file stay in agreement. (A real SIGKILL — tools/crash_harness —
    // never reaches this path and *does* lose the unflushed batch.)
    if (log_)
        log_->flush();
    // Volatile state is lost: rewind the arena to the NVM image.
    std::memcpy(mem_.raw(0), shadow_.data(), mem_.used());
    invalidateLines();
    crash_armed_ = false;
    crash_pending_.store(false, std::memory_order_release);
    return torn;
}

uint64_t
NvmCache::flushRange(Addr addr, size_t bytes)
{
    GPULP_ASSERT(bytes > 0, "empty flush range");
    std::lock_guard<std::mutex> lk(mu_);
    if (crashPending())
        return 0; // frozen: see onStore()
    uint64_t flushed = 0;
    const uint64_t last = (addr + bytes - 1) >> line_shift_;
    for (uint64_t tag = addr >> line_shift_; tag <= last; ++tag) {
        size_t i = findWay(tag, setOf(tag));
        if (i != kNoWay && dirty_[i]) {
            writebackLine(tag);
            dirty_[i] = 0;
            ++stats_.flushed_lines;
            obs::add(obs::Ctr::NvmFlushedLines);
            ++flushed;
        }
    }
    return flushed;
}

void
NvmCache::persistRange(Addr addr, size_t bytes)
{
    GPULP_ASSERT(bytes > 0, "empty persist range");
    GPULP_ASSERT(addr + bytes <= shadow_.size(), "persistRange OOB");
    std::lock_guard<std::mutex> lk(mu_);
    if (crashPending())
        return; // frozen: see onStore()
    const size_t used = mem_.used();
    const uint64_t last = (addr + bytes - 1) >> line_shift_;
    for (uint64_t tag = addr >> line_shift_; tag <= last; ++tag) {
        // Clean any cached copy so a later eviction cannot re-publish
        // stale contents over what we persist here.
        size_t i = findWay(tag, setOf(tag));
        if (i != kNoWay)
            dirty_[i] = 0;
        Addr start = lineAddr(tag);
        if (start >= used)
            continue;
        size_t len = std::min(params_.line_bytes, used - start);
        if (std::memcmp(shadow_.data() + start, mem_.raw(start), len) !=
            0) {
            writebackLine(tag);
            ++stats_.flushed_lines;
            obs::add(obs::Ctr::NvmFlushedLines);
        }
    }
    if (log_)
        log_->flush();
}

void
NvmCache::invalidateAll()
{
    std::lock_guard<std::mutex> lk(mu_);
    invalidateLines();
}

void
NvmCache::crashAfterStores(uint64_t stores)
{
    std::lock_guard<std::mutex> lk(mu_);
    crash_armed_ = true;
    crash_pending_.store(false, std::memory_order_release);
    crash_countdown_ = stores;
}

void
NvmCache::disarmCrash()
{
    std::lock_guard<std::mutex> lk(mu_);
    crash_armed_ = false;
    crash_pending_.store(false, std::memory_order_release);
}

bool
NvmCache::isPersisted(Addr addr, size_t bytes) const
{
    GPULP_ASSERT(addr + bytes <= shadow_.size(), "isPersisted OOB");
    std::lock_guard<std::mutex> lk(mu_);
    // Durable iff the NVM image already holds the current contents; a
    // dirty-but-value-equal line is durable content-wise, which is what
    // checksum validation observes after a crash.
    return std::memcmp(shadow_.data() + addr, mem_.raw(addr), bytes) == 0;
}

void
NvmCache::readPersisted(Addr addr, size_t bytes, void *out) const
{
    GPULP_ASSERT(addr + bytes <= shadow_.size(), "readPersisted OOB");
    std::lock_guard<std::mutex> lk(mu_);
    std::memcpy(out, shadow_.data() + addr, bytes);
}

double
NvmCache::nvmDeviceTimeNs() const
{
    NvmStats s = stats();
    double bytes_moved = static_cast<double>(
        (s.nvm_line_reads + s.nvmLineWrites()) * params_.line_bytes);
    double bw_ns = bytes_moved / params_.bandwidth_gbps; // GB/s == B/ns
    double latency_ns =
        static_cast<double>(s.nvm_line_reads) * params_.read_latency_ns +
        static_cast<double>(s.nvmLineWrites()) * params_.write_latency_ns;
    return bw_ns + latency_ns;
}

} // namespace gpulp
