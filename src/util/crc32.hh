/**
 * @file
 * CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over byte ranges.
 *
 * Used wherever on-disk records need tamper evidence: the result
 * store (util/result_store.hh) checksums every appended record, and
 * the compressed trace format (trace/io.hh, version 3) carries a
 * whole-stream checksum so a flipped payload byte cannot silently
 * decode into a different — but structurally valid — trace.
 *
 * crc32Update() is slicing-by-8: it folds eight bytes per step
 * through eight 256-entry tables and finishes the last few bytes
 * one at a time. The value is the same as the byte-at-a-time
 * algorithm's.
 *
 * Incremental use: seed with kCrc32Init, fold ranges with
 * crc32Update(), finish with crc32Final(). crc32() does all three
 * for a single contiguous range.
 */

#ifndef TLC_UTIL_CRC32_HH
#define TLC_UTIL_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace tlc {

inline constexpr std::uint32_t kCrc32Init = 0xffffffffu;

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * The slicing-by-8 tables for the reflected polynomial. Table 0 is
 * the byte-at-a-time table; table k advances table k-1's entry by
 * one more zero byte.
 */
inline const Crc32Tables &
crc32Tables()
{
    static const Crc32Tables tables = [] {
        Crc32Tables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0);
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < 8; ++k) {
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
        }
        return t;
    }();
    return tables;
}

/** Little-endian 32-bit load from a byte pointer. */
inline std::uint32_t
loadU32le(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
}

} // namespace detail

/** Fold @p n bytes at @p data into a running CRC state. */
inline std::uint32_t
crc32Update(std::uint32_t state, const void *data, std::size_t n)
{
    const auto &t = detail::crc32Tables();
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = detail::loadU32le(p) ^ state;
        const std::uint32_t hi = detail::loadU32le(p + 4);
        state = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
            t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        state = t[0][(state ^ *p) & 0xff] ^ (state >> 8);
    return state;
}

/** Finalize a running CRC state into the published checksum. */
inline std::uint32_t
crc32Final(std::uint32_t state)
{
    return state ^ 0xffffffffu;
}

/** One-shot CRC-32 of a contiguous byte range. */
inline std::uint32_t
crc32(const void *data, std::size_t n)
{
    return crc32Final(crc32Update(kCrc32Init, data, n));
}

} // namespace tlc

#endif // TLC_UTIL_CRC32_HH
