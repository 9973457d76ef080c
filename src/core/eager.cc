#include "eager.h"

#include <cstring>

#include "nvm/persist_log.h" // persistLogCrc32

namespace gpulp {

namespace {

/** Undo-log bytes for @p launch at @p entries_per_thread. */
uint64_t
logBytes(const LaunchConfig &launch, uint64_t entries_per_thread)
{
    GPULP_ASSERT(entries_per_thread > 0, "EP needs log space");
    return launch.numBlocks() * launch.threadsPerBlock() *
           entries_per_thread * EpRuntime::kLogEntryBytes;
}

} // namespace

EpRuntime::EpRuntime(Device &dev, const LpConfig &cfg,
                     const LaunchConfig &launch,
                     uint64_t log_entries_per_thread)
    : PersistStrategy(cfg, PersistModel::Eager), dev_(dev), launch_(launch),
      entries_per_thread_(log_entries_per_thread),
      logs_(dev_.mem().alloc(logBytes(launch, log_entries_per_thread))),
      flags_(dev_, launch.numBlocks())
{
    reset();
}

Addr
EpRuntime::logEntryAddr(uint64_t block, uint64_t slot) const
{
    return logs_ + (block * entriesPerBlock() + slot) * kLogEntryBytes;
}

uint64_t
EpRuntime::tagAddr(Addr addr, uint32_t bytes)
{
    GPULP_ASSERT(bytes == 2 || bytes == 4,
                 "EP protects 2- or 4-byte stores, got %u", bytes);
    GPULP_ASSERT(addr < (uint64_t{1} << 56), "address too large to tag");
    return addr | (uint64_t{bytes} << 56);
}

uint32_t
EpRuntime::entryCrc(uint64_t tagged, uint32_t old_bits)
{
    uint8_t payload[12];
    std::memcpy(payload, &tagged, 8);
    std::memcpy(payload + 8, &old_bits, 4);
    return persistLogCrc32(payload, sizeof(payload), kEntryCrcSeed);
}

void
EpRuntime::prepare(ThreadCtx &t, PersistAccum &acc, Addr addr,
                   uint32_t bytes)
{
    uint64_t block = t.blockRank();

    // 1. Read the old value and claim the next slot of this thread's
    //    log partition (no atomics: logs are per-thread).
    uint32_t old_bits = bytes == 2 ? t.loadAddr<uint16_t>(addr)
                                   : t.loadAddr<uint32_t>(addr);
    GPULP_ASSERT(acc.undo_entries < entries_per_thread_,
                 "EP undo log overflow: thread needs more than %llu "
                 "entries",
                 static_cast<unsigned long long>(entries_per_thread_));
    uint64_t slot = uint64_t{t.flatThreadIdx()} * entries_per_thread_ +
                    acc.undo_entries++;

    // 2. The undo entry must be durable before the data mutation (the
    //    undo-logging invariant): write, flush, fence. The CRC makes
    //    entry validity out-of-band: a slot only counts at recovery if
    //    its checksum matches, so a torn line or a target that happens
    //    to be 0 cannot be confused with a live or empty entry.
    Addr entry = logEntryAddr(block, slot);
    uint64_t tagged = tagAddr(addr, bytes);
    t.storeAddr<uint64_t>(entry, tagged);
    t.storeAddr<uint32_t>(entry + 8, old_bits);
    t.storeAddr<uint32_t>(entry + 12, entryCrc(tagged, old_bits));
    t.clwb(entry);
    t.persistBarrier();
}

void
EpRuntime::regionEnd(ThreadCtx &t, PersistAccum &)
{
    // All data flushes of this thread must be durable before the
    // region's commit flag may persist.
    t.persistBarrier();
    flags_.commit(t, /*fence=*/true);
}

uint64_t
EpRuntime::rollback()
{
    GlobalMemory &mem = dev_.mem();
    NvmCache *nvm = dev_.nvm();
    // A pending latch freezes the persistence domain: rollback writes
    // and the final checkpoint would silently persist nothing. Resolve
    // the power failure (rewind to the durable image) before touching
    // anything.
    if (nvm && nvm->crashPending())
        nvm->crash();
    uint64_t rolled_back = 0;
    for (uint64_t block = 0; block < launch_.numBlocks(); ++block) {
        if (isCommittedHost(block))
            continue;
        // The log cursor is volatile state and may not have persisted;
        // the log *entries* are what the protocol made durable (each
        // was flushed and fenced before its data store). Scan every
        // slot newest-first and undo the ones whose CRC proves they
        // reached the NVM intact.
        bool undid_any = false;
        for (uint64_t slot = entriesPerBlock(); slot > 0; --slot) {
            Addr entry = logEntryAddr(block, slot - 1);
            uint8_t raw[kLogEntryBytes];
            durableRead(dev_, entry, kLogEntryBytes, raw);
            uint64_t tagged;
            uint32_t old_bits, crc;
            std::memcpy(&tagged, raw, 8);
            std::memcpy(&old_bits, raw + 8, 4);
            std::memcpy(&crc, raw + 12, 4);
            if (crc != entryCrc(tagged, old_bits))
                continue; // empty, torn or garbage slot
            uint32_t bytes = static_cast<uint32_t>(tagged >> 56);
            Addr target = tagged & ((uint64_t{1} << 56) - 1);
            if ((bytes != 2 && bytes != 4) ||
                target + bytes > mem.used()) {
                continue; // CRC collision on garbage; never undo OOB
            }
            std::memcpy(mem.raw(target), &old_bits, bytes);
            undid_any = true;
        }
        if (undid_any)
            ++rolled_back;
        // The region will re-execute; clear its log so a second
        // crash during recovery cannot replay stale entries.
        std::memset(mem.raw(logEntryAddr(block, 0)), 0,
                    entriesPerBlock() * kLogEntryBytes);
    }
    if (nvm)
        nvm->persistAll();
    return rolled_back;
}

void
EpRuntime::reset()
{
    const uint64_t log_bytes = logBytes(launch_, entries_per_thread_);
    std::memset(dev_.mem().raw(logs_), 0, log_bytes);
    // The cleared state must be as durable as the state it replaces.
    if (NvmCache *nvm = dev_.nvm())
        nvm->persistRange(logs_, log_bytes);
    flags_.reset();
}

uint64_t
EpRuntime::footprintBytes() const
{
    return logBytes(launch_, entries_per_thread_) + flags_.footprintBytes();
}

} // namespace gpulp
