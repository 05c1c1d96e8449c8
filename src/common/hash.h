/**
 * @file
 * Shared hash utilities for content-keyed caches. One definition of
 * the mixing recipe so every subsystem's keys (operator work hashes,
 * run setups, gating params, cache keys) stay consistent.
 */

#ifndef REGATE_COMMON_HASH_H
#define REGATE_COMMON_HASH_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace regate {

/** FNV-1a streaming step: fold more bytes into a running digest. */
inline std::uint64_t
fnv1a64Extend(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * 64-bit FNV-1a over a byte range. Used for content digests (spec
 * files, the metrics snapshot footer), where the digest must be
 * reproducible across processes, platforms, and the Python tooling
 * (tests/cli_check.py implements the same function) — unlike
 * std::hash, whose value is unspecified.
 */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len)
{
    return fnv1a64Extend(0xcbf29ce484222325ull, data, len);
}

/** Fixed-width (16 char) lowercase hex spelling of a 64-bit digest. */
inline std::string
hexDigest64(std::uint64_t h)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

/** boost::hash_combine-style mixing. */
inline void
hashCombine(std::size_t &seed, std::size_t v)
{
    seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

/** Combine a value's std::hash into @p seed. */
template <typename T>
inline void
hashField(std::size_t &seed, const T &v)
{
    hashCombine(seed, std::hash<T>{}(v));
}

}  // namespace regate

#endif  // REGATE_COMMON_HASH_H
