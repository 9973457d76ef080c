/**
 * @file
 * Checksum engines for Lazy Persistency regions.
 *
 * A region's checksum is computed over every store value that must
 * persist (Sec. II-A). The engines here are:
 *
 *  - modular: 32-bit wrap-around sum of the values' ordered-int bits;
 *  - parity: 32-bit XOR of the ordered-int bits;
 *  - both simultaneously (the paper's recommendation — joint
 *    false-negative rate below 1e-12);
 *  - Adler-32, host-side only, for the checksum-cost comparison the
 *    paper cites. Adler-32 is order-*dependent* and therefore cannot be
 *    combined with parallel reduction; it is why the paper rejects it
 *    on GPUs.
 *
 * Floating-point values are converted to "ordered integers" (Fig. 2,
 * see common/floatbits.h) so both exponent and mantissa corruption are
 * detectable and XOR is well-defined.
 *
 * Both modular and parity are commutative and associative, so any
 * reduction tree over per-thread partial checksums yields the same
 * block checksum — the property LP regions require.
 */

#ifndef GPULP_CORE_CHECKSUM_H
#define GPULP_CORE_CHECKSUM_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/floatbits.h"
#include "core/lp_config.h"

namespace gpulp {

class ThreadCtx;

/** A pair of 32-bit checksums; unused halves stay zero. */
struct Checksums {
    uint32_t sum = 0;    //!< modular component
    uint32_t parity = 0; //!< parity (XOR) component

    /** Combine with another pair (associative, commutative). */
    void
    merge(const Checksums &other)
    {
        sum += other.sum;
        parity ^= other.parity;
    }

    bool
    operator==(const Checksums &other) const
    {
        return sum == other.sum && parity == other.parity;
    }
};

/**
 * Per-thread (register-resident) checksum accumulator used inside LP
 * regions: call a protect*() overload after every persistent store,
 * exactly where the paper's UpdateCheckSum() calls sit.
 *
 * Accumulation is free of memory traffic — it lives in registers — but
 * charges the ALU cost of the adds/xors/conversions on the owning
 * thread, which is how the single-vs-dual checksum cost difference of
 * Sec. VII-2 arises.
 */
class ChecksumAccum
{
  public:
    explicit ChecksumAccum(ChecksumKind kind = ChecksumKind::ModularParity)
        : kind_(kind)
    {
    }

    /** Checksum kind in force. */
    ChecksumKind kind() const { return kind_; }

    /** Fold a 32-bit raw value into the checksums, charging @p t. */
    void protectU32(ThreadCtx &t, uint32_t bits);

    /** Fold a float (via ordered-int conversion), charging @p t. */
    void protectFloat(ThreadCtx &t, float value);

    /** Untimed fold, for host-side revalidation. */
    void foldHost(uint32_t bits);

    /** Untimed float fold, for host-side revalidation. */
    void
    foldHostFloat(float value)
    {
        foldHost(floatToChecksumBits(value));
    }

    /** Current checksum pair. */
    const Checksums &value() const { return cs_; }

    /** Reset to the empty-region checksum (the paper's ResetCheckSum). */
    void reset() { cs_ = Checksums{}; }

  private:
    ChecksumKind kind_;
    Checksums cs_;
};

/**
 * Host-side checksum of a float span, kind-aware; equals what a
 * device-side region accumulating the same multiset of values commits.
 */
Checksums hostChecksumFloats(std::span<const float> values,
                             ChecksumKind kind);

/** Host-side checksum of raw 32-bit words. */
Checksums hostChecksumU32(std::span<const uint32_t> values,
                          ChecksumKind kind);

/**
 * Adler-32 over a byte stream (RFC 1950), for the checksum cost/quality
 * comparison. Order-dependent; host-side only.
 */
uint32_t adler32(std::span<const uint8_t> bytes);

} // namespace gpulp

#endif // GPULP_CORE_CHECKSUM_H
