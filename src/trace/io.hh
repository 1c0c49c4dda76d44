/**
 * @file
 * Trace file I/O.
 *
 * Two formats are supported:
 *  - a compact binary format ("TLCT"): fixed header followed by
 *    packed 5-byte records (u32 little-endian address + 1-byte type);
 *  - a Dinero-style text format: one "<type> <hex-address>" pair per
 *    line, where type is 'i' (ifetch), 'l' (load) or 's' (store).
 *
 * The binary format lets users capture traces once (e.g. with a
 * Pin/Valgrind tool writing this layout) and replay them through the
 * simulator instead of using the built-in synthetic workloads.
 *
 * Error handling: on-disk data is untrusted. Every reader validates
 * at the boundary and returns a tlc::Status with a typed code (bad
 * magic, version mismatch, truncation, overlong varint, reference
 * type out of range, record count larger than the remaining file,
 * checksum mismatch) instead of trusting the stream or exiting.
 * Compressed traces written by this build (version 3) end in a
 * CRC-32 footer computed over the DECODED records, so a bit flip
 * anywhere in the payload is detected even when the damaged varint
 * still decodes structurally; version-2 files (no footer) from
 * earlier builds still load. Reads are
 * transactional with respect to the destination buffer: on ANY
 * failure the TraceBuffer is rolled back to the size it had on
 * entry, so a failed load leaves no partial records behind. Record
 * counts from the header are additionally clamped against the bytes
 * actually remaining in the stream before any memory is reserved,
 * so a corrupt or truncated header cannot trigger a multi-gigabyte
 * allocation.
 *
 * The binary readers decode from a bounded block buffer: one fixed
 * 64 KiB block, refilled by a single read() when fewer bytes remain
 * than the longest record, so their memory does not grow with the
 * file. A refill asks only for bytes the trace must still hold, so a
 * reader stops at the end of its trace, seekable stream or not. The
 * writers likewise encode a block of records and write it in one
 * call.
 */

#ifndef TLC_TRACE_IO_HH
#define TLC_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/buffer.hh"
#include "util/status.hh"

namespace tlc {

/** Magic bytes that open a binary trace file. */
extern const char kTraceMagic[4];
/** Raw (fixed 5-byte records) binary format version. */
constexpr std::uint32_t kTraceVersion = 1;
/** Compressed (per-type delta + varint) format version. */
constexpr std::uint32_t kTraceVersionCompressed = 2;
/** Compressed format with a mandatory CRC-32 footer over the decoded
 *  records (4-byte little-endian address + type byte each). Written
 *  by writeCompressedTrace; readCompressedTrace accepts this and the
 *  footer-less version 2. */
constexpr std::uint32_t kTraceVersionCompressedCrc = 3;

/** Write @p buf to @p os in the binary format. */
void writeBinaryTrace(std::ostream &os, const TraceBuffer &buf);

/**
 * Read a binary trace from @p is into @p buf (appending).
 * On failure returns a descriptive Status and rolls @p buf back to
 * its entry size (no partial append).
 */
Status readBinaryTrace(std::istream &is, TraceBuffer &buf);

/**
 * Write @p buf in the compressed binary format: each record stores
 * its type and the zigzag-varint delta against the previous address
 * OF THE SAME TYPE, so sequential instruction fetch (delta 4) and
 * strided data sweeps cost one byte per reference instead of five.
 * This is the practical format for the paper-scale traces
 * (tens of millions to billions of references, Table 1); WRL's own
 * tracing system [2] compressed similarly. The stream ends in a
 * CRC-32 footer over the decoded records (version 3).
 */
void writeCompressedTrace(std::ostream &os, const TraceBuffer &buf);

/**
 * Read a compressed trace (header included): version 3 with its
 * mandatory CRC footer, or a legacy footer-less version 2. A footer
 * that is absent or cut reads as Truncated; one that disagrees with
 * the decoded records as ChecksumMismatch. On failure returns a
 * descriptive Status and rolls @p buf back to its entry size.
 */
Status readCompressedTrace(std::istream &is, TraceBuffer &buf);

/** Write @p buf to @p os in the text format. */
void writeTextTrace(std::ostream &os, const TraceBuffer &buf);

/**
 * Read a text trace. Blank lines and lines starting with '#' are
 * ignored. On the first malformed line, returns a ParseError
 * Status naming the line number and rolls @p buf back to its entry
 * size.
 */
Status readTextTrace(std::istream &is, TraceBuffer &buf);

/**
 * Convenience: load a trace file (binary or text, sniffed). The
 * returned Status carries the file path and which format/stage
 * failed; @p buf is left at its entry size on failure.
 */
Status loadTraceFile(const std::string &path, TraceBuffer &buf);

/**
 * Convenience: save a binary trace file (compressed by default;
 * pass compressed=false for the raw fixed-record layout).
 */
Status saveTraceFile(const std::string &path, const TraceBuffer &buf,
                     bool compressed = true);

} // namespace tlc

#endif // TLC_TRACE_IO_HH
