#include "checksum.h"

#include "sim/exec.h"

namespace gpulp {

namespace {

/** ALU ops charged for folding one value with the given kind. */
uint64_t
foldCost(ChecksumKind kind)
{
    switch (kind) {
      case ChecksumKind::Modular:
        return 1; // one add
      case ChecksumKind::Parity:
        return 2; // ordered-int conversion + xor
      case ChecksumKind::ModularParity:
        return 3; // add + conversion + xor
    }
    return 0;
}

} // namespace

void
ChecksumAccum::protectU32(ThreadCtx &t, uint32_t bits)
{
    t.compute(foldCost(kind_));
    foldHost(bits);
}

void
ChecksumAccum::protectFloat(ThreadCtx &t, float value)
{
    // Canonicalized so that a recovery re-execution producing the other
    // IEEE zero still folds the same parity (see floatToChecksumBits).
    protectU32(t, floatToChecksumBits(value));
}

void
ChecksumAccum::foldHost(uint32_t bits)
{
    switch (kind_) {
      case ChecksumKind::Modular:
        cs_.sum += bits;
        break;
      case ChecksumKind::Parity:
        cs_.parity ^= bits;
        break;
      case ChecksumKind::ModularParity:
        cs_.sum += bits;
        cs_.parity ^= bits;
        break;
    }
}

Checksums
hostChecksumFloats(std::span<const float> values, ChecksumKind kind)
{
    ChecksumAccum acc(kind);
    for (float v : values)
        acc.foldHostFloat(v);
    return acc.value();
}

Checksums
hostChecksumU32(std::span<const uint32_t> values, ChecksumKind kind)
{
    ChecksumAccum acc(kind);
    for (uint32_t v : values)
        acc.foldHost(v);
    return acc.value();
}

uint32_t
adler32(std::span<const uint8_t> bytes)
{
    constexpr uint32_t kMod = 65521;
    uint32_t a = 1, b = 0;
    size_t remaining = bytes.size();
    const uint8_t *p = bytes.data();
    while (remaining > 0) {
        // Process in chunks small enough that the 32-bit accumulators
        // cannot overflow before the modulo (5552 is the zlib bound).
        size_t chunk = remaining < 5552 ? remaining : 5552;
        for (size_t i = 0; i < chunk; ++i) {
            a += p[i];
            b += a;
        }
        a %= kMod;
        b %= kMod;
        p += chunk;
        remaining -= chunk;
    }
    return (b << 16) | a;
}

} // namespace gpulp
