/**
 * @file
 * 64-bit FNV-1a: the schedule signatures, the paper sweep's digest and
 * the tests' device-memory fingerprints.
 */

#ifndef GPULP_COMMON_FNV_H
#define GPULP_COMMON_FNV_H

#include <cstddef>
#include <cstdint>

namespace gpulp {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a over @p len bytes at @p data, continuing from hash @p h. */
inline uint64_t
fnv1a(const void *data, size_t len, uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i)
        h = (h ^ p[i]) * kFnvPrime;
    return h;
}

/** FNV-1a over the eight little-endian bytes of @p v, continuing @p h. */
inline uint64_t
fnvStep(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (i * 8)) & 0xff)) * kFnvPrime;
    return h;
}

} // namespace gpulp

#endif // GPULP_COMMON_FNV_H
