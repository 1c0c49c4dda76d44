/**
 * @file
 * Little-endian byte helpers shared by every binary record and frame
 * this library writes into a std::string: the result-store file
 * (util/result_store.hh), the worker frame envelope
 * (util/supervisor.hh), the shard-runner frame payloads and the
 * sweep-cache stats codec (core/sweep_cache.hh).
 *
 * Writers append fixed-width little-endian integers (and u32le
 * length-prefixed strings) to a buffer. Readers come in two kinds:
 * getU32le/getU64le decode at a pointer the caller has already
 * bounds-checked, and WireReader walks a payload with a cursor whose
 * every read returns false instead of reading past the end.
 *
 * Not for async-signal context: the writers may allocate. The crash
 * flight recorder (util/flight_recorder.hh) keeps its own
 * allocation-free encoder for that reason.
 */

#ifndef TLC_UTIL_WIRE_HH
#define TLC_UTIL_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tlc {

inline void
putU32le(std::string &s, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void
putU64le(std::string &s, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** A u32le byte count, then the bytes. */
inline void
putString(std::string &s, std::string_view v)
{
    putU32le(s, static_cast<std::uint32_t>(v.size()));
    s.append(v);
}

inline std::uint32_t
getU32le(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

inline std::uint64_t
getU64le(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Cursor over one payload; each read returns false instead of
 *  reading past the end. */
struct WireReader
{
    std::string_view payload;
    std::size_t off = 0;

    bool u32(std::uint32_t &v)
    {
        if (payload.size() - off < 4)
            return false;
        v = getU32le(bytes());
        off += 4;
        return true;
    }
    bool u64(std::uint64_t &v)
    {
        if (payload.size() - off < 8)
            return false;
        v = getU64le(bytes());
        off += 8;
        return true;
    }
    /** A putString() field. */
    bool str(std::string &v)
    {
        std::uint32_t len = 0;
        if (!u32(len) || payload.size() - off < len)
            return false;
        v.assign(payload.data() + off, len);
        off += len;
        return true;
    }
    bool done() const { return off == payload.size(); }

  private:
    const unsigned char *bytes() const
    {
        return reinterpret_cast<const unsigned char *>(payload.data()) +
               off;
    }
};

} // namespace tlc

#endif // TLC_UTIL_WIRE_HH
