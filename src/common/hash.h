/**
 * @file
 * FNV-1a content digests: one definition shared by the spec parser,
 * the metrics snapshot footer and the Python tooling.
 */

#ifndef REGATE_COMMON_HASH_H
#define REGATE_COMMON_HASH_H

#include <cstddef>
#include <cstdint>
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

}  // namespace regate

#endif  // REGATE_COMMON_HASH_H
