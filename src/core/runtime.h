/**
 * @file
 * LpRuntime: the lazy persistency model, the paper's scheme.
 *
 * This is the runtime the paper's `#pragma nvm lpcuda_init` directive
 * lowers to: it owns the checksum store sized for the kernel's grid,
 * allocates reduction scratch when the configuration needs it, and
 * hands kernels a ready LpContext. As a PersistStrategy it folds every
 * persistent store into the thread's checksum, commits the block's
 * checksum at region end and answers recovery's verdict with the
 * workload's validation kernel.
 */

#ifndef GPULP_CORE_RUNTIME_H
#define GPULP_CORE_RUNTIME_H

#include <memory>

#include "core/checksum_store.h"
#include "core/persist.h"
#include "sim/device.h"

namespace gpulp {

/**
 * Per-kernel LP state: create one next to each LP-protected kernel
 * launch (matching the one-lpcuda_init-per-region rule of Sec. VI).
 */
class LpRuntime : public PersistStrategy
{
  public:
    /**
     * @param dev Device the kernel will run on.
     * @param cfg LP design-space configuration.
     * @param launch Grid/block dimensions of the protected kernel;
     *        sizes the checksum store (one key per thread block) and
     *        the sequential-reduction scratch.
     */
    LpRuntime(Device &dev, const LpConfig &cfg, const LaunchConfig &launch);

    /** The context kernels capture: store and scratch included. */
    LpContext context() override;

    /** The underlying checksum store. */
    ChecksumStore &store() { return *store_; }

    /** Fold a stored value into the thread's checksum. */
    void
    fold(ThreadCtx &t, PersistAccum &acc, uint32_t bits) override
    {
        acc.checksums.protectU32(t, bits);
    }

    /** Reduce the block's checksums and commit them (lpCommitRegion). */
    void regionEnd(ThreadCtx &t, PersistAccum &acc) override;

    /** Launch @p validate over @p launch: the checksum verdict. */
    LaunchResult verdict(Device &dev, const LaunchConfig &launch,
                         RecoverySet &failed,
                         const ValidateFn &validate) override;

    /**
     * Bytes of device memory this LP instance adds (checksum store +
     * scratch) — the numerator of Table V's space overhead.
     */
    uint64_t footprintBytes() const override;

    /** Clear the store (and scratch) for a fresh run. */
    void reset() override;

  private:
    Device &dev_;
    std::unique_ptr<ChecksumStore> store_;
    ArrayRef<uint64_t> scratch_;
};

} // namespace gpulp

#endif // GPULP_CORE_RUNTIME_H
