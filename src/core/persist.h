/**
 * @file
 * PersistStrategy: the persistency-model matrix over one kernel API.
 *
 * The paper positions Lazy Persistency against Eager Persistency; the
 * companion work "Exploring Memory Persistency Models for GPUs" (same
 * senior author) widens the space with strict and epoch persistency.
 * This header makes all of them first-class, selectable points
 * (LpConfig::persist / GPULP_PERSIST) behind one store protocol, so a
 * kernel written once against the persistStore* helpers runs — and is
 * crash-tested — under every model:
 *
 *  - lazy:         no flushes; per-thread checksums folded and
 *                  committed at region end (the paper's scheme;
 *                  LpRuntime, core/runtime.h);
 *  - eager:        undo-log entry flushed + fenced before every store,
 *                  the store's line flushed, durable commit flag
 *                  (EpRuntime, core/eager.h);
 *  - strict:       every persistent store is flushed *and* fenced in
 *                  program order — maximal ordering, no logging;
 *  - epoch-block:  stores are flushed as they happen but persist
 *                  barriers only close the block-level epoch;
 *  - epoch-kernel: one kernel-wide epoch; flushes drain on their own
 *                  and no persist barrier is ever issued in-kernel.
 *
 * Device-side protocol per protected store: prepare() (before the
 * mutation; eager logs the old value here), the store itself,
 * publish() (after the mutation; flush/fence per the model), then
 * fold() (lazy folds the stored value into the region checksum).
 * Splitting prepare/publish out of store32() lets atomic claims —
 * MEGA-KV's slot CAS — get the same coverage as plain stores.
 * regionEnd() closes the block's region/epoch and commits it
 * (collective).
 *
 * Host-side, every model gives the one recovery driver
 * (persistRecover(), core/recovery.h) a verdict on which blocks did not
 * durably commit: lazy validates checksums with the workload's
 * validation kernel, the others read their durable per-block commit
 * flags through the NVM view, never the volatile arena. rollback()
 * (eager's undo) and reset() complete the contract. Normative
 * semantics and the guarantee each model earns:
 * docs/PERSISTENCY_MODELS.md.
 */

#ifndef GPULP_CORE_PERSIST_H
#define GPULP_CORE_PERSIST_H

#include <memory>

#include "core/recovery.h"
#include "core/region.h"

namespace gpulp {

/**
 * Per-thread, register-resident persistency state: the checksum
 * accumulator (lazy) and the undo-log cursor (eager) — whichever the
 * active model does not use stays inert. Create one per kernel thread
 * with makePersistAccum().
 */
struct PersistAccum {
    ChecksumAccum checksums;
    uint32_t undo_entries = 0; //!< eager: undo-log slots this thread used
};

/**
 * One persistency model's store + commit + recovery protocol.
 * Instances are per-kernel (they own per-block commit state sized for
 * the launch); build one with makePersistStrategy(). Kernels hold the
 * strategy's address through LpContext, so it is neither copied nor
 * moved.
 */
class PersistStrategy
{
  public:
    /** @p cfg is kept with its persist field set to @p model. */
    PersistStrategy(const LpConfig &cfg, PersistModel model);
    virtual ~PersistStrategy() = default;
    PersistStrategy(const PersistStrategy &) = delete;
    PersistStrategy &operator=(const PersistStrategy &) = delete;

    /** Model this strategy implements. */
    PersistModel model() const { return cfg_.persist; }

    /** The context kernels capture; its strategy is this. */
    virtual LpContext context();

    // Device-side protocol ---------------------------------------------------

    /**
     * Pre-mutation hook for [addr, addr+bytes): eager durably logs the
     * old value here (the undo invariant); other models do nothing.
     * Must be called before an atomic claim (CAS) on @p addr too.
     */
    virtual void prepare(ThreadCtx &, PersistAccum &, Addr, uint32_t) {}

    /** Post-mutation hook: flush (and, per the model, fence) @p addr's
     *  line. Counterpart of prepare() for atomics. */
    virtual void publish(ThreadCtx &, Addr) {}

    /** Fold a stored 32-bit value into the region checksum (lazy);
     *  the flag models do nothing. */
    virtual void fold(ThreadCtx &, PersistAccum &, uint32_t) {}

    /** Close the block's region/epoch and commit durably. Collective. */
    virtual void regionEnd(ThreadCtx &t, PersistAccum &acc) = 0;

    /** prepare + 32-bit store + publish + fold. */
    void
    store32(ThreadCtx &t, PersistAccum &acc, Addr addr, uint32_t bits)
    {
        prepare(t, acc, addr, 4);
        t.storeAddr<uint32_t>(addr, bits);
        publish(t, addr);
        fold(t, acc, bits);
    }

    /** prepare + 16-bit store + publish + fold of the zero-extended
     *  value (SAD's uint16 output). */
    void
    store16(ThreadCtx &t, PersistAccum &acc, Addr addr, uint16_t bits)
    {
        prepare(t, acc, addr, 2);
        t.storeAddr<uint16_t>(addr, bits);
        publish(t, addr);
        fold(t, acc, bits);
    }

    /** prepare + float store + publish + fold of the canonical
     *  checksum bits (both IEEE zeros fold alike). */
    void
    storeF(ThreadCtx &t, PersistAccum &acc, Addr addr, float value)
    {
        prepare(t, acc, addr, 4);
        t.storeAddr<float>(addr, value);
        publish(t, addr);
        fold(t, acc, floatToChecksumBits(value));
    }

    // Host-side recovery contract --------------------------------------------

    /**
     * Mark in @p failed every block of @p launch whose region did not
     * durably commit. Lazy launches @p validate on @p dev and returns
     * that launch (its cycles, and whether a crash struck it); the
     * flag models read their durable flags on the host and return an
     * empty result.
     */
    virtual LaunchResult verdict(Device &dev, const LaunchConfig &launch,
                                 RecoverySet &failed,
                                 const ValidateFn &validate) = 0;

    /**
     * Undo the side effects of uncommitted regions where the model
     * keeps enough state to (eager's undo log). Models whose
     * uncommitted damage is repaired by re-execution alone return 0.
     * @return Regions rolled back.
     */
    virtual uint64_t rollback() { return 0; }

    /** Clear the commit metadata for a fresh run (the flag models
     *  persist the cleared state). */
    virtual void reset() = 0;

    /** Device-memory footprint of the model's metadata. */
    virtual uint64_t footprintBytes() const = 0;

  protected:
    LpConfig cfg_;
};

/**
 * Durable per-block commit flags: the whole recovery verdict of every
 * model but lazy. Host reads go through the NVM view and resets are
 * persisted; see EpRuntime for why the volatile arena must not be
 * trusted.
 */
class CommitFlags
{
  public:
    /** Allocates one flag per block and persists them cleared. */
    CommitFlags(Device &dev, uint64_t blocks);

    /** Device address of @p block's flag. */
    Addr flagAddr(uint64_t block) const { return flags_ + block * 4; }

    /**
     * Region commit: barrier the block, then have thread 0 raise the
     * block's flag and flush it, fencing the flush when @p fence.
     * Collective.
     */
    void commit(ThreadCtx &t, bool fence) const;

    /** True if @p block's flag is set in the durable image. */
    bool isCommittedHost(uint64_t block) const;

    /** The flag models' verdict: mark every block not durably
     *  committed in @p failed. Launches nothing. */
    LaunchResult markUncommitted(RecoverySet &failed) const;

    /** Clear every flag and persist the cleared state. */
    void reset();

    /** Device-memory footprint: one 4-byte flag per block. */
    uint64_t footprintBytes() const { return blocks_ * 4; }

  private:
    Device &dev_;
    uint64_t blocks_;
    Addr flags_;
};

/**
 * Read [addr, addr+bytes) as recovery must see it: from the durable
 * image when an NVM model is attached, else from the arena.
 */
void durableRead(Device &dev, Addr addr, size_t bytes, void *out);

/**
 * Build the strategy for cfg.persist: LpRuntime for lazy, EpRuntime
 * for eager, durable commit flags for strict/epoch.
 *
 * @param undo_entries_per_thread Eager undo-log capacity per thread
 *        (ignored by the other models).
 */
std::unique_ptr<PersistStrategy>
makePersistStrategy(Device &dev, const LpConfig &cfg,
                    const LaunchConfig &launch,
                    uint64_t undo_entries_per_thread = 8);

/** Fresh per-thread accumulator for whatever model @p lp selects
 *  (@p lp may be null: un-protected baseline run). */
inline PersistAccum
makePersistAccum(const LpContext *lp)
{
    PersistAccum acc;
    acc.checksums = ChecksumAccum(lp ? lp->cfg->checksum
                                     : ChecksumKind::ModularParity);
    return acc;
}

/**
 * Persistent float store: a plain store for the un-protected baseline
 * (@p lp null), the strategy's protocol otherwise. Byte- and
 * timing-identical to the open-coded store+protectFloat sequence under
 * lazy.
 */
inline void
persistStoreF(ThreadCtx &t, const LpContext *lp, PersistAccum &acc,
              ArrayRef<float> arr, uint64_t idx, float value)
{
    if (lp)
        lp->strategy->storeF(t, acc, arr.addrOf(idx), value);
    else
        t.store(arr, idx, value);
}

/** Persistent 32-bit store. */
inline void
persistStoreU32(ThreadCtx &t, const LpContext *lp, PersistAccum &acc,
                ArrayRef<uint32_t> arr, uint64_t idx, uint32_t value)
{
    if (lp)
        lp->strategy->store32(t, acc, arr.addrOf(idx), value);
    else
        t.store(arr, idx, value);
}

/** Persistent 16-bit store; lazy folds the zero-extended value (SAD's
 *  uint16 output). */
inline void
persistStoreU16(ThreadCtx &t, const LpContext *lp, PersistAccum &acc,
                ArrayRef<uint16_t> arr, uint64_t idx, uint16_t value)
{
    if (lp)
        lp->strategy->store16(t, acc, arr.addrOf(idx), value);
    else
        t.store(arr, idx, value);
}

/** Strategy prepare() for a mutation the caller performs itself (an
 *  atomic claim); no-op for the baseline. Pair with persistPublish. */
inline void
persistPrepare(ThreadCtx &t, const LpContext *lp, PersistAccum &acc,
               Addr addr, uint32_t bytes)
{
    if (lp)
        lp->strategy->prepare(t, acc, addr, bytes);
}

/** Strategy publish() counterpart of persistPrepare(). */
inline void
persistPublish(ThreadCtx &t, const LpContext *lp, Addr addr)
{
    if (lp)
        lp->strategy->publish(t, addr);
}

/** Strategy fold() of @p bits, for kernels that fold something other
 *  than what they store (MEGA-KV folds post-state); no-op for the
 *  baseline. */
inline void
persistFold(ThreadCtx &t, const LpContext *lp, PersistAccum &acc,
            uint32_t bits)
{
    if (lp)
        lp->strategy->fold(t, acc, bits);
}

/**
 * Persistent 32-bit store that lazy does NOT fold (MEGA-KV folds
 * post-state key/value pairs with persistFold instead); the flag
 * models still owe the store full coverage.
 */
inline void
persistStoreU32NoFold(ThreadCtx &t, const LpContext *lp,
                      PersistAccum &acc, ArrayRef<uint32_t> arr,
                      uint64_t idx, uint32_t value)
{
    persistPrepare(t, lp, acc, arr.addrOf(idx), 4);
    t.store(arr, idx, value);
    persistPublish(t, lp, arr.addrOf(idx));
}

/** End-of-region commit through the strategy. Collective; no-op for
 *  the un-protected baseline. */
inline void
persistRegionEnd(ThreadCtx &t, const LpContext *lp, PersistAccum &acc)
{
    if (lp)
        lp->strategy->regionEnd(t, acc);
}

} // namespace gpulp

#endif // GPULP_CORE_PERSIST_H
