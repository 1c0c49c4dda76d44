/**
 * @file
 * Trace file I/O implementation.
 *
 * The readers follow three rules (see io.hh): validate everything,
 * never trust a size field further than the bytes that remain, and
 * roll the destination buffer back on any failure. Both binary
 * formats move their records through fixed 64 KiB blocks, one
 * stream call per block, and decode or encode them in memory.
 */

#include "io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/crc32.hh"
#include "util/metrics.hh"

namespace tlc {

const char kTraceMagic[4] = {'T', 'L', 'C', 'T'};

namespace {

std::uint32_t
loadU32le(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
}

void
putU32(std::ostream &os, std::uint32_t v)
{
    char b[4];
    b[0] = static_cast<char>(v & 0xff);
    b[1] = static_cast<char>((v >> 8) & 0xff);
    b[2] = static_cast<char>((v >> 16) & 0xff);
    b[3] = static_cast<char>((v >> 24) & 0xff);
    os.write(b, 4);
}

bool
getU32(std::istream &is, std::uint32_t &v)
{
    unsigned char b[4];
    if (!is.read(reinterpret_cast<char *>(b), 4))
        return false;
    v = loadU32le(b);
    return true;
}

void
putU64(std::ostream &os, std::uint64_t v)
{
    putU32(os, static_cast<std::uint32_t>(v & 0xffffffffu));
    putU32(os, static_cast<std::uint32_t>(v >> 32));
}

bool
getU64(std::istream &is, std::uint64_t &v)
{
    std::uint32_t lo, hi;
    if (!getU32(is, lo) || !getU32(is, hi))
        return false;
    v = (static_cast<std::uint64_t>(hi) << 32) | lo;
    return true;
}

constexpr std::uint64_t kUnknownRemaining = ~std::uint64_t{0};

/**
 * Bytes left between the current position and the end of the
 * stream, or kUnknownRemaining when the stream is not seekable
 * (e.g. a pipe). Restores the read position and stream state.
 */
std::uint64_t
remainingBytes(std::istream &is)
{
    std::istream::pos_type cur = is.tellg();
    if (cur == std::istream::pos_type(-1)) {
        is.clear();
        return kUnknownRemaining;
    }
    is.seekg(0, std::ios::end);
    std::istream::pos_type end = is.tellg();
    is.clear();
    is.seekg(cur);
    if (end == std::istream::pos_type(-1) || end < cur)
        return kUnknownRemaining;
    return static_cast<std::uint64_t>(end - cur);
}

/**
 * Safe reserve() hint for @p count records of at least
 * @p min_record_bytes each: never larger than what the remaining
 * stream bytes could actually hold, and bounded by a fixed cap when
 * the stream size is unknowable (the vector still grows on demand
 * past the hint; only the up-front allocation is limited).
 */
std::uint64_t
clampedReserve(std::uint64_t count, std::uint64_t remaining,
               std::uint64_t min_record_bytes)
{
    constexpr std::uint64_t kBlindCap = 1u << 20; // 1 M records
    if (remaining == kUnknownRemaining)
        return count < kBlindCap ? count : kBlindCap;
    std::uint64_t fit = remaining / min_record_bytes;
    return count < fit ? count : fit;
}

/** Bytes the binary readers move per stream read. */
constexpr std::size_t kBlockBytes = 64 * 1024;
/** A raw record, and the canonical form the v3 footer CRC covers:
 *  u32 little-endian address + type byte. */
constexpr std::size_t kRecordBytes = 5;
/** A u64 takes at most 10 varint bytes. */
constexpr std::size_t kMaxVarintBytes = 10;
/** Records per writer block (each fits even as a 10-byte varint),
 *  and per footer-CRC fold. */
constexpr std::size_t kBlockRecords = kBlockBytes / kMaxVarintBytes;

/** Store one record at @p p in its canonical 5-byte form. */
void
storeRecord(unsigned char *p, std::uint32_t addr, unsigned ty)
{
    p[0] = static_cast<unsigned char>(addr & 0xff);
    p[1] = static_cast<unsigned char>((addr >> 8) & 0xff);
    p[2] = static_cast<unsigned char>((addr >> 16) & 0xff);
    p[3] = static_cast<unsigned char>((addr >> 24) & 0xff);
    p[4] = static_cast<unsigned char>(ty);
}

/**
 * The binary readers' input after the header: a fixed block that
 * one is.read() fills, so records decode from memory and the memory
 * used does not grow with the file. The caller refills when fewer
 * bytes remain than its longest record, passing how many bytes the
 * trace still owes at the least. A refill never asks for more than
 * that, so the reader stops at the end of the trace even in a
 * stream it cannot seek.
 */
class BlockReader
{
  public:
    enum class Varint { Ok, Truncated, Overflow, TooLong };

    explicit BlockReader(std::istream &is)
        : is_(is), block_(kBlockBytes), cur_(block_.data()),
          end_(block_.data())
    {}

    /** Bytes buffered and not yet consumed. */
    std::size_t avail() const
    {
        return static_cast<std::size_t>(end_ - cur_);
    }

    /**
     * Move the unread bytes to the front of the block and read until
     * min(@p owed, block size) bytes are buffered or the stream
     * ends. @p owed counts from the next unread byte.
     */
    void fill(std::uint64_t owed)
    {
        const std::size_t have = avail();
        std::memmove(block_.data(), cur_, have);
        cur_ = block_.data();
        end_ = cur_ + have;
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(owed, kBlockBytes));
        if (want > have) {
            is_.read(reinterpret_cast<char *>(block_.data() + have),
                     static_cast<std::streamsize>(want - have));
            end_ += is_.gcount();
        }
    }

    /** Consume @p n buffered bytes (n <= avail()). */
    const unsigned char *take(std::size_t n)
    {
        const unsigned char *p = cur_;
        cur_ += n;
        return p;
    }

    /**
     * Decode one LEB128 varint into @p v. A varint that the buffer
     * cuts short reads on one byte at a time: the caller's refill
     * only promised the trace's lower bound.
     */
    Varint varint(std::uint64_t &v)
    {
        std::uint64_t word = 0;
        const unsigned char *p = cur_;
        for (unsigned n = 0;; ++n) {
            if (p == end_) {
                cur_ = p;
                fill(1);
                p = cur_;
                if (p == end_)
                    return Varint::Truncated;
            }
            const unsigned b = *p++;
            // The 10th byte carries only the top bit (shift 63).
            if (n == kMaxVarintBytes - 1) {
                if (b & 0x7e)
                    return Varint::Overflow;
                if (b & 0x80)
                    return Varint::TooLong;
            }
            word |= static_cast<std::uint64_t>(b & 0x7f) << (7 * n);
            if (!(b & 0x80)) {
                cur_ = p;
                v = word;
                return Varint::Ok;
            }
        }
    }

  private:
    std::istream &is_;
    std::vector<unsigned char> block_;
    const unsigned char *cur_; ///< next unread byte
    const unsigned char *end_; ///< one past the last buffered byte
};

} // namespace

void
writeBinaryTrace(std::ostream &os, const TraceBuffer &buf)
{
    os.write(kTraceMagic, 4);
    putU32(os, kTraceVersion);
    putU64(os, buf.size());
    std::vector<unsigned char> block(kBlockRecords * kRecordBytes);
    const std::vector<TraceRecord> &recs = buf.records();
    for (std::size_t i = 0; i < recs.size(); i += kBlockRecords) {
        const std::size_t n = std::min(kBlockRecords, recs.size() - i);
        for (std::size_t j = 0; j < n; ++j) {
            storeRecord(&block[j * kRecordBytes], recs[i + j].addr,
                        static_cast<unsigned>(recs[i + j].type));
        }
        os.write(reinterpret_cast<const char *>(block.data()),
                 static_cast<std::streamsize>(n * kRecordBytes));
    }
}

Status
readBinaryTrace(std::istream &is, TraceBuffer &buf)
{
    const std::size_t entry = buf.size();
    auto fail = [&](Status s) {
        buf.truncate(entry);
        return s;
    };

    char magic[4];
    if (!is.read(magic, 4))
        return Status(StatusCode::Truncated,
                      "stream shorter than the 4-byte magic");
    if (std::memcmp(magic, kTraceMagic, 4) != 0) {
        return statusf(StatusCode::BadMagic,
                       "magic bytes %02x%02x%02x%02x are not \"TLCT\"",
                       static_cast<unsigned char>(magic[0]),
                       static_cast<unsigned char>(magic[1]),
                       static_cast<unsigned char>(magic[2]),
                       static_cast<unsigned char>(magic[3]));
    }
    std::uint32_t version;
    if (!getU32(is, version))
        return Status(StatusCode::Truncated,
                      "stream ends inside the version field");
    if (version != kTraceVersion) {
        return statusf(StatusCode::VersionMismatch,
                       "version %u where the raw binary reader expects %u",
                       version, kTraceVersion);
    }
    std::uint64_t count;
    if (!getU64(is, count))
        return Status(StatusCode::Truncated,
                      "stream ends inside the record count");
    // Reject only clearly-hostile counts here (more records than
    // remaining BYTES): a file that merely lost its tail still
    // enters the record loop and reports WHERE it was cut. Either
    // way the reserve() below is clamped, so a lying header can
    // never force a huge allocation.
    const std::uint64_t remaining = remainingBytes(is);
    if (remaining != kUnknownRemaining && count > remaining) {
        return statusf(StatusCode::CountTooLarge,
                       "record count %llu exceeds even one byte per "
                       "record in the %llu bytes remaining",
                       static_cast<unsigned long long>(count),
                       static_cast<unsigned long long>(remaining));
    }
    buf.reserve(entry + clampedReserve(count, remaining, kRecordBytes));
    BlockReader in(is);
    for (std::uint64_t i = 0; i < count; ++i) {
        if (in.avail() < kRecordBytes) {
            in.fill(kRecordBytes *
                    std::min<std::uint64_t>(count - i, kBlockBytes));
        }
        if (in.avail() < kRecordBytes) {
            return fail(statusf(
                StatusCode::Truncated,
                "stream ends inside record %llu of %llu",
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(count)));
        }
        const unsigned char *rec = in.take(kRecordBytes);
        const std::uint32_t addr = loadU32le(rec);
        const char t = static_cast<char>(rec[4]);
        if (t < 0 || t > 2) {
            return fail(statusf(
                StatusCode::TypeOutOfRange,
                "record %llu has reference type %d (expected 0..2)",
                static_cast<unsigned long long>(i), static_cast<int>(t)));
        }
        buf.append(addr, static_cast<RefType>(t));
    }
    return Status();
}

namespace {

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
        -static_cast<std::int64_t>(v & 1);
}

} // namespace

void
writeCompressedTrace(std::ostream &os, const TraceBuffer &buf)
{
    os.write(kTraceMagic, 4);
    putU32(os, kTraceVersionCompressedCrc);
    putU64(os, buf.size());
    std::uint32_t last[3] = {0, 0, 0};
    std::uint32_t crc = kCrc32Init;
    std::vector<unsigned char> block(kBlockRecords * kMaxVarintBytes);
    // The footer covers the records in their canonical 5-byte form,
    // not the varint bytes, so it stays meaningful across
    // recompression and also pins down the delta/zigzag decode.
    std::vector<unsigned char> canon(kBlockRecords * kRecordBytes);
    const std::vector<TraceRecord> &recs = buf.records();
    for (std::size_t i = 0; i < recs.size(); i += kBlockRecords) {
        const std::size_t n = std::min(kBlockRecords, recs.size() - i);
        unsigned char *out = block.data();
        for (std::size_t j = 0; j < n; ++j) {
            const TraceRecord &rec = recs[i + j];
            unsigned ty = static_cast<unsigned>(rec.type);
            std::int64_t delta = static_cast<std::int64_t>(rec.addr) -
                static_cast<std::int64_t>(last[ty]);
            last[ty] = rec.addr;
            std::uint64_t v = (zigzag(delta) << 2) | ty;
            for (; v >= 0x80; v >>= 7)
                *out++ = static_cast<unsigned char>((v & 0x7f) | 0x80);
            *out++ = static_cast<unsigned char>(v);
            storeRecord(&canon[j * kRecordBytes], rec.addr, ty);
        }
        os.write(reinterpret_cast<const char *>(block.data()),
                 static_cast<std::streamsize>(out - block.data()));
        crc = crc32Update(crc, canon.data(), n * kRecordBytes);
    }
    putU32(os, crc32Final(crc));
}

Status
readCompressedTrace(std::istream &is, TraceBuffer &buf)
{
    const std::size_t entry = buf.size();
    auto fail = [&](Status s) {
        buf.truncate(entry);
        return s;
    };

    char magic[4];
    if (!is.read(magic, 4))
        return Status(StatusCode::Truncated,
                      "stream shorter than the 4-byte magic");
    if (std::memcmp(magic, kTraceMagic, 4) != 0) {
        return statusf(StatusCode::BadMagic,
                       "magic bytes %02x%02x%02x%02x are not \"TLCT\"",
                       static_cast<unsigned char>(magic[0]),
                       static_cast<unsigned char>(magic[1]),
                       static_cast<unsigned char>(magic[2]),
                       static_cast<unsigned char>(magic[3]));
    }
    std::uint32_t version;
    if (!getU32(is, version))
        return Status(StatusCode::Truncated,
                      "stream ends inside the version field");
    if (version != kTraceVersionCompressed &&
        version != kTraceVersionCompressedCrc) {
        return statusf(StatusCode::VersionMismatch,
                       "version %u where the compressed reader expects "
                       "%u or %u", version, kTraceVersionCompressed,
                       kTraceVersionCompressedCrc);
    }
    const bool hasFooter = version == kTraceVersionCompressedCrc;
    std::uint64_t count;
    if (!getU64(is, count))
        return Status(StatusCode::Truncated,
                      "stream ends inside the record count");
    const std::uint64_t remaining = remainingBytes(is);
    // Compressed records are at least one byte each, and version 3
    // owes a 4-byte footer on top.
    const std::uint64_t overhead = hasFooter ? 4 : 0;
    if (remaining != kUnknownRemaining && remaining < overhead) {
        return Status(StatusCode::Truncated,
                      "stream ends inside the CRC footer");
    }
    if (remaining != kUnknownRemaining &&
        count > remaining - overhead) {
        return statusf(StatusCode::CountTooLarge,
                       "record count %llu exceeds the %llu bytes that "
                       "remain (compressed records are >= 1 byte)",
                       static_cast<unsigned long long>(count),
                       static_cast<unsigned long long>(remaining));
    }
    buf.reserve(entry + clampedReserve(count, remaining, 1));
    BlockReader in(is);
    // Decoded records in canonical form, folded into the footer CRC
    // once per kBlockRecords.
    std::vector<unsigned char> canon(hasFooter ? kBlockRecords * kRecordBytes
                                               : 0);
    std::size_t staged = 0;
    std::uint32_t last[3] = {0, 0, 0};
    std::uint32_t crc = kCrc32Init;
    for (std::uint64_t i = 0; i < count; ++i) {
        // Every record left owes at least one byte, then the footer.
        if (in.avail() < kMaxVarintBytes) {
            in.fill(std::min<std::uint64_t>(count - i, kBlockBytes) +
                    overhead);
        }
        std::uint64_t word;
        const BlockReader::Varint v = in.varint(word);
        if (v != BlockReader::Varint::Ok) {
            Status s =
                v == BlockReader::Varint::Truncated
                    ? Status(StatusCode::Truncated,
                             "stream ends inside a varint")
                : v == BlockReader::Varint::Overflow
                    ? Status(StatusCode::OverlongVarint,
                             "varint overflows 64 bits at byte 10")
                    : Status(StatusCode::OverlongVarint,
                             "varint continues past 10 bytes");
            return fail(s.withContext(
                "record " + std::to_string(i) + " of " +
                std::to_string(count)));
        }
        unsigned ty = static_cast<unsigned>(word & 3);
        if (ty > 2) {
            return fail(statusf(
                StatusCode::TypeOutOfRange,
                "record %llu has reference type %u (expected 0..2)",
                static_cast<unsigned long long>(i), ty));
        }
        std::int64_t delta = unzigzag(word >> 2);
        std::uint32_t addr = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(last[ty]) + delta);
        last[ty] = addr;
        buf.append(addr, static_cast<RefType>(ty));
        if (hasFooter) {
            storeRecord(&canon[staged * kRecordBytes], addr, ty);
            if (++staged == kBlockRecords) {
                crc = crc32Update(crc, canon.data(),
                                  staged * kRecordBytes);
                staged = 0;
            }
        }
    }
    if (hasFooter) {
        crc = crc32Update(crc, canon.data(), staged * kRecordBytes);
        if (in.avail() < 4)
            in.fill(4);
        if (in.avail() < 4) {
            return fail(Status(StatusCode::Truncated,
                               "stream ends inside the CRC footer"));
        }
        std::uint32_t want = loadU32le(in.take(4));
        std::uint32_t got = crc32Final(crc);
        if (want != got) {
            return fail(statusf(
                StatusCode::ChecksumMismatch,
                "CRC footer 0x%08x does not match 0x%08x computed "
                "over the %llu decoded records", want, got,
                static_cast<unsigned long long>(count)));
        }
    }
    return Status();
}

void
writeTextTrace(std::ostream &os, const TraceBuffer &buf)
{
    for (const auto &rec : buf) {
        os << refTypeChar(rec.type) << " 0x" << std::hex << rec.addr
           << std::dec << '\n';
    }
}

Status
readTextTrace(std::istream &is, TraceBuffer &buf)
{
    const std::size_t entry = buf.size();
    auto fail = [&](Status s) {
        buf.truncate(entry);
        return s;
    };

    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        char tc;
        std::string addr_str;
        if (!(ls >> tc >> addr_str)) {
            return fail(statusf(StatusCode::ParseError,
                                "line %zu: expected \"<type> <address>\"",
                                lineno));
        }
        RefType type;
        if (!refTypeFromChar(tc, type)) {
            return fail(statusf(
                StatusCode::ParseError,
                "line %zu: unknown reference type '%c' (expected i/l/s)",
                lineno, tc));
        }
        char *end = nullptr;
        unsigned long addr = std::strtoul(addr_str.c_str(), &end, 0);
        if (end == addr_str.c_str() || *end != '\0') {
            return fail(statusf(StatusCode::ParseError,
                                "line %zu: bad address '%s'", lineno,
                                addr_str.c_str()));
        }
        buf.append(static_cast<std::uint32_t>(addr), type);
    }
    return Status();
}

namespace {

/** Trace-reader metrics, registered once and shared by all sites. */
struct TraceIoMetrics
{
    MetricCounter &files;
    MetricCounter &records;
    MetricCounter &bytes;
    MetricCounter &errors;

    static TraceIoMetrics &get()
    {
        static TraceIoMetrics m{
            MetricsRegistry::global().counter("trace.load.files"),
            MetricsRegistry::global().counter("trace.load.records"),
            MetricsRegistry::global().counter("trace.load.bytes"),
            MetricsRegistry::global().counter("trace.load.errors"),
        };
        return m;
    }
};

/** Tick the load counters for one loadTraceFile outcome. */
void
recordLoad(const Status &s, std::size_t records_added,
           std::uintmax_t bytes)
{
    TraceIoMetrics &m = TraceIoMetrics::get();
    if (!s.ok()) {
        m.errors.inc();
        return;
    }
    m.files.inc();
    m.records.inc(records_added);
    m.bytes.inc(bytes);
}

} // namespace

Status
loadTraceFile(const std::string &path, TraceBuffer &buf)
{
    const std::size_t entry_records = buf.size();
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        TraceIoMetrics::get().errors.inc();
        return statusf(StatusCode::IoError,
                       "cannot open trace file '%s'", path.c_str());
    }
    is.seekg(0, std::ios::end);
    std::streamoff file_bytes = is.tellg();
    is.seekg(0);
    char magic[4];
    if (is.read(magic, 4) && std::memcmp(magic, kTraceMagic, 4) == 0) {
        std::uint32_t version = 0;
        if (!getU32(is, version)) {
            TraceIoMetrics::get().errors.inc();
            return statusf(StatusCode::Truncated,
                           "'%s': file ends inside the binary trace "
                           "header", path.c_str());
        }
        is.seekg(0);
        Status s;
        if (version == kTraceVersionCompressed ||
            version == kTraceVersionCompressedCrc)
            s = readCompressedTrace(is, buf);
        else if (version == kTraceVersion)
            s = readBinaryTrace(is, buf);
        else {
            TraceIoMetrics::get().errors.inc();
            return statusf(StatusCode::VersionMismatch,
                           "'%s': unsupported trace version %u "
                           "(expected %u, %u or %u)", path.c_str(),
                           version, kTraceVersion,
                           kTraceVersionCompressed,
                           kTraceVersionCompressedCrc);
        }
        recordLoad(s, buf.size() - entry_records,
                   file_bytes > 0
                       ? static_cast<std::uintmax_t>(file_bytes)
                       : 0);
        return s.withContext("'" + path + "'");
    }
    is.clear();
    is.seekg(0);
    Status s = readTextTrace(is, buf);
    recordLoad(s, buf.size() - entry_records,
               file_bytes > 0 ? static_cast<std::uintmax_t>(file_bytes)
                              : 0);
    return s.withContext("'" + path + "' (text)");
}

Status
saveTraceFile(const std::string &path, const TraceBuffer &buf,
              bool compressed)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        return statusf(StatusCode::IoError,
                       "cannot open trace file '%s' for writing",
                       path.c_str());
    }
    if (compressed)
        writeCompressedTrace(os, buf);
    else
        writeBinaryTrace(os, buf);
    // Flush first: an error on the ofstream's buffered tail only
    // shows once it reaches the file.
    os.flush();
    if (!os.good()) {
        return statusf(StatusCode::IoError,
                       "write to trace file '%s' failed", path.c_str());
    }
    return Status();
}

} // namespace tlc
