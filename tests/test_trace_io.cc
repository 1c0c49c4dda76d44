/**
 * @file
 * Boundary-validation tests for the trace readers: a table-driven
 * corpus of corrupt inputs for all three formats (bad magic, wrong
 * version, truncated/oversized counts, mid-record EOF, invalid
 * reference types, overlong varints) plus randomized round-trip
 * property tests. Every failure must come back as a typed Status
 * with the destination buffer rolled back to its entry size.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/buffer.hh"
#include "trace/io.hh"
#include "util/random.hh"

using namespace tlc;

namespace {

void
putU32le(std::string &s, std::uint32_t v)
{
    s.push_back(static_cast<char>(v & 0xff));
    s.push_back(static_cast<char>((v >> 8) & 0xff));
    s.push_back(static_cast<char>((v >> 16) & 0xff));
    s.push_back(static_cast<char>((v >> 24) & 0xff));
}

void
putU64le(std::string &s, std::uint64_t v)
{
    putU32le(s, static_cast<std::uint32_t>(v & 0xffffffffu));
    putU32le(s, static_cast<std::uint32_t>(v >> 32));
}

/** Header (magic + version + count) of a binary trace image. */
std::string
header(std::uint32_t version, std::uint64_t count)
{
    std::string s = "TLCT";
    putU32le(s, version);
    putU64le(s, count);
    return s;
}

TraceBuffer
sampleTrace()
{
    TraceBuffer b;
    b.append(0x00400000, RefType::Instr);
    b.append(0x10000020, RefType::Load);
    b.append(0x10000040, RefType::Store);
    b.append(0x00400004, RefType::Instr);
    return b;
}

std::string
serializeRaw(const TraceBuffer &b)
{
    std::ostringstream os;
    writeBinaryTrace(os, b);
    return os.str();
}

std::string
serializeCompressed(const TraceBuffer &b)
{
    std::ostringstream os;
    writeCompressedTrace(os, b);
    return os.str();
}

enum class Reader { Raw, Compressed, Text };

Status
readWith(Reader r, const std::string &bytes, TraceBuffer &buf)
{
    std::istringstream is(bytes);
    switch (r) {
      case Reader::Raw:
        return readBinaryTrace(is, buf);
      case Reader::Compressed:
        return readCompressedTrace(is, buf);
      case Reader::Text:
        return readTextTrace(is, buf);
    }
    return Status(StatusCode::InternalError, "unreachable");
}

struct CorruptCase
{
    const char *name;
    Reader reader;
    std::string bytes;
    StatusCode want;
};

/** The corrupt-input corpus of the ISSUE's test checklist. */
std::vector<CorruptCase>
corpus()
{
    std::vector<CorruptCase> cases;
    const std::string raw = serializeRaw(sampleTrace());
    const std::string comp = serializeCompressed(sampleTrace());

    // --- raw binary ---------------------------------------------------
    {
        std::string s = raw;
        s[0] = 'X';
        cases.push_back({"raw bad magic", Reader::Raw, s,
                         StatusCode::BadMagic});
    }
    cases.push_back({"raw wrong version", Reader::Raw,
                     header(7, 0), StatusCode::VersionMismatch});
    cases.push_back({"raw compressed version", Reader::Raw,
                     comp, StatusCode::VersionMismatch});
    cases.push_back({"raw empty stream", Reader::Raw, "",
                     StatusCode::Truncated});
    cases.push_back({"raw magic only", Reader::Raw, "TLCT",
                     StatusCode::Truncated});
    cases.push_back({"raw truncated count", Reader::Raw,
                     raw.substr(0, 11), StatusCode::Truncated});
    cases.push_back({"raw mid-record EOF", Reader::Raw,
                     raw.substr(0, raw.size() - 3),
                     StatusCode::Truncated});
    cases.push_back({"raw count beyond EOF", Reader::Raw,
                     header(1, 1000), StatusCode::CountTooLarge});
    // A 5-byte-header-equivalent: tiny file, multi-GB reservation ask.
    cases.push_back({"raw OOM-sized count", Reader::Raw,
                     header(1, 0x2000000000000000ULL),
                     StatusCode::CountTooLarge});
    {
        std::string s = raw;
        s[16 + 4] = 7; // first record's type byte
        cases.push_back({"raw invalid ref type", Reader::Raw, s,
                         StatusCode::TypeOutOfRange});
    }

    // --- compressed ---------------------------------------------------
    {
        std::string s = comp;
        s[1] = 'X';
        cases.push_back({"compressed bad magic", Reader::Compressed, s,
                         StatusCode::BadMagic});
    }
    cases.push_back({"compressed raw version", Reader::Compressed, raw,
                     StatusCode::VersionMismatch});
    cases.push_back({"compressed truncated header", Reader::Compressed,
                     comp.substr(0, 9), StatusCode::Truncated});
    cases.push_back({"compressed mid-varint EOF", Reader::Compressed,
                     header(2, 1) + "\x80", StatusCode::Truncated});
    cases.push_back({"compressed count beyond EOF", Reader::Compressed,
                     header(2, 50) + "\x04\x04",
                     StatusCode::CountTooLarge});
    cases.push_back({"compressed OOM-sized count", Reader::Compressed,
                     header(2, ~0ULL >> 2), StatusCode::CountTooLarge});
    {
        // type bits = 3 (word = 0x03).
        cases.push_back({"compressed invalid ref type",
                         Reader::Compressed, header(2, 1) + "\x03",
                         StatusCode::TypeOutOfRange});
    }
    {
        // Eleven continuation bytes: varint never ends.
        std::string s = header(2, 1);
        s.append(11, '\x80');
        s.push_back('\x00');
        cases.push_back({"compressed >10-byte varint",
                         Reader::Compressed, s,
                         StatusCode::OverlongVarint});
    }
    // --- compressed, version 3 (mandatory CRC footer) -----------------
    {
        std::string s = comp;
        s.resize(s.size() - 4); // records intact, footer gone
        cases.push_back({"compressed missing CRC footer",
                         Reader::Compressed, s, StatusCode::Truncated});
    }
    {
        std::string s = comp;
        s.resize(s.size() - 2); // footer cut mid-word
        cases.push_back({"compressed cut CRC footer",
                         Reader::Compressed, s, StatusCode::Truncated});
    }
    {
        std::string s = comp;
        s[s.size() - 1] ^= 0x01; // footer disagrees with the records
        cases.push_back({"compressed bad CRC footer",
                         Reader::Compressed, s,
                         StatusCode::ChecksumMismatch});
    }
    {
        // A payload bit flip that still decodes structurally (the
        // varint frame survives; the address and type change) — only
        // the footer can catch this one.
        std::string s = comp;
        s[16] ^= 0x01;
        cases.push_back({"compressed payload bit flip",
                         Reader::Compressed, s,
                         StatusCode::ChecksumMismatch});
    }
    {
        // Ten bytes but bits beyond 64 set in the last one.
        std::string s = header(2, 1);
        s.append(9, '\x80');
        s.push_back('\x7f');
        cases.push_back({"compressed varint overflows u64",
                         Reader::Compressed, s,
                         StatusCode::OverlongVarint});
    }

    // --- text ---------------------------------------------------------
    cases.push_back({"text unknown type", Reader::Text,
                     "i 0x100\nz 0x200\n", StatusCode::ParseError});
    cases.push_back({"text bad address", Reader::Text,
                     "i 0x100\nl zork\n", StatusCode::ParseError});
    cases.push_back({"text missing address", Reader::Text,
                     "i 0x100\nl\n", StatusCode::ParseError});
    cases.push_back({"text trailing junk in address", Reader::Text,
                     "s 0x10q\n", StatusCode::ParseError});

    return cases;
}

} // namespace

TEST(TraceCorpus, EveryCorruptInputRejectedWithTypedStatus)
{
    for (const CorruptCase &c : corpus()) {
        TraceBuffer buf;
        Status s = readWith(c.reader, c.bytes, buf);
        EXPECT_FALSE(s.ok()) << c.name;
        EXPECT_EQ(s.code(), c.want)
            << c.name << ": got " << s.toString();
        EXPECT_FALSE(s.message().empty()) << c.name;
    }
}

TEST(TraceCorpus, FailedReadsRollTheBufferBack)
{
    for (const CorruptCase &c : corpus()) {
        // Pre-seed so rollback-to-zero is distinguishable from
        // rollback-to-entry.
        TraceBuffer buf;
        buf.append(0x1000, RefType::Instr);
        buf.append(0x2000, RefType::Store);
        Status s = readWith(c.reader, c.bytes, buf);
        ASSERT_FALSE(s.ok()) << c.name;
        EXPECT_EQ(buf.size(), 2u) << c.name;
        EXPECT_EQ(buf.instrRefs(), 1u) << c.name;
        EXPECT_EQ(buf.storeRefs(), 1u) << c.name;
        EXPECT_EQ(buf[0].addr, 0x1000u) << c.name;
        EXPECT_EQ(buf[1].addr, 0x2000u) << c.name;
    }
}

TEST(TraceCorpus, LoadTraceFileNamesPathAndStage)
{
    std::string dir = ::testing::TempDir();
    for (const CorruptCase &c : corpus()) {
        // loadTraceFile sniffs the format itself, so readers
        // disagree with it about images that carry the *other*
        // binary version; skip those cross-version cases. An empty
        // file sniffs as a (valid, empty) text trace, so skip it
        // here too.
        if (std::string(c.name).find("version") != std::string::npos ||
            c.bytes.empty()) {
            continue;
        }
        std::string path = dir + "/tlc_corrupt_case.trc";
        {
            std::ofstream os(path, std::ios::binary);
            os.write(c.bytes.data(),
                     static_cast<std::streamsize>(c.bytes.size()));
        }
        TraceBuffer buf;
        buf.append(0x1000, RefType::Load);
        Status s = loadTraceFile(path, buf);
        EXPECT_FALSE(s.ok()) << c.name;
        // The status message must say which file failed.
        EXPECT_NE(s.message().find(path), std::string::npos)
            << c.name << ": " << s.message();
        EXPECT_EQ(buf.size(), 1u) << c.name;
        std::remove(path.c_str());
    }
}

TEST(TraceCorpus, LoadTraceFileReportsUnknownBinaryVersion)
{
    std::string path = ::testing::TempDir() + "/tlc_bad_version.trc";
    {
        std::ofstream os(path, std::ios::binary);
        std::string img = header(9, 0);
        os.write(img.data(), static_cast<std::streamsize>(img.size()));
    }
    TraceBuffer buf;
    Status s = loadTraceFile(path, buf);
    EXPECT_EQ(s.code(), StatusCode::VersionMismatch);
    EXPECT_NE(s.message().find("version 9"), std::string::npos)
        << s.message();
    std::remove(path.c_str());
}

TEST(TraceCorpus, LoadTraceFileReportsHeaderOnlyFile)
{
    // Magic present but the version field is cut short: the
    // sniffing stage itself must report truncation (this is the
    // ignored-getU32 regression case).
    std::string path = ::testing::TempDir() + "/tlc_short_header.trc";
    {
        std::ofstream os(path, std::ios::binary);
        os.write("TLCTv", 5);
    }
    TraceBuffer buf;
    Status s = loadTraceFile(path, buf);
    EXPECT_EQ(s.code(), StatusCode::Truncated);
    EXPECT_NE(s.message().find(path), std::string::npos) << s.message();
    EXPECT_TRUE(buf.empty());
    std::remove(path.c_str());
}

TEST(TraceCorpus, OomSizedCountDoesNotReserve)
{
    // A 16-byte header claiming 2^61 records must be rejected
    // before any allocation is attempted. (Run under ASan this
    // also proves no huge transient reservation happens.)
    TraceBuffer buf;
    Status s = readWith(Reader::Raw, header(1, 1ULL << 61), buf);
    EXPECT_EQ(s.code(), StatusCode::CountTooLarge);
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.records().capacity(), 0u);

    s = readWith(Reader::Compressed, header(2, 1ULL << 61), buf);
    EXPECT_EQ(s.code(), StatusCode::CountTooLarge);
    EXPECT_EQ(buf.records().capacity(), 0u);
}

TEST(TraceCrcFooter, WriterEmitsVersion3)
{
    std::string comp = serializeCompressed(sampleTrace());
    ASSERT_GE(comp.size(), 16u + 4u);
    EXPECT_EQ(comp.substr(0, 4), "TLCT");
    EXPECT_EQ(static_cast<unsigned char>(comp[4]),
              kTraceVersionCompressedCrc);

    TraceBuffer buf;
    ASSERT_TRUE(readWith(Reader::Compressed, comp, buf).ok());
    ASSERT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf[1].addr, 0x10000020u);
}

TEST(TraceCrcFooter, LegacyVersion2StillLoads)
{
    // A version-2 image is the version-3 image with the old version
    // number and no footer — the record encoding never changed.
    std::string comp = serializeCompressed(sampleTrace());
    std::string legacy = header(2, sampleTrace().size()) +
        comp.substr(16, comp.size() - 16 - 4);

    TraceBuffer buf;
    ASSERT_TRUE(readWith(Reader::Compressed, legacy, buf).ok());
    ASSERT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf[0].addr, 0x00400000u);
    EXPECT_EQ(buf[3].addr, 0x00400004u);

    // And through the sniffing file loader too.
    std::string path = ::testing::TempDir() + "/tlc_legacy_v2.trc";
    {
        std::ofstream os(path, std::ios::binary);
        os.write(legacy.data(),
                 static_cast<std::streamsize>(legacy.size()));
    }
    TraceBuffer fromFile;
    EXPECT_TRUE(loadTraceFile(path, fromFile).ok());
    EXPECT_EQ(fromFile.size(), 4u);
    std::remove(path.c_str());
}

TEST(TraceCrcFooter, ZeroRecordFileRoundTripsAndGuardsItsFooter)
{
    TraceBuffer empty;
    std::string img = serializeCompressed(empty);
    // Header + footer and nothing else.
    EXPECT_EQ(img.size(), 16u + 4u);

    TraceBuffer buf;
    EXPECT_TRUE(readWith(Reader::Compressed, img, buf).ok());
    EXPECT_TRUE(buf.empty());

    // Even with zero records the footer is owed: cutting it is
    // truncation, corrupting it is a checksum mismatch.
    TraceBuffer scratch;
    Status s = readWith(Reader::Compressed, img.substr(0, 17), scratch);
    EXPECT_EQ(s.code(), StatusCode::Truncated);
    std::string bad = img;
    bad[18] ^= 0x20;
    s = readWith(Reader::Compressed, bad, scratch);
    EXPECT_EQ(s.code(), StatusCode::ChecksumMismatch);
    EXPECT_TRUE(scratch.empty());
}

// ---------------------------------------------------------------------
// Round-trip property tests with random buffers.
// ---------------------------------------------------------------------

namespace {

TraceBuffer
randomTrace(Pcg32 &rng, std::size_t max_records)
{
    TraceBuffer b;
    std::size_t n = rng.nextBounded(
        static_cast<std::uint32_t>(max_records) + 1);
    for (std::size_t i = 0; i < n; ++i) {
        // Mix full-range addresses with clustered ones so the
        // compressed deltas cover tiny and huge magnitudes.
        std::uint32_t addr = (rng.nextDouble() < 0.5)
            ? rng.next()
            : 0x00400000u + rng.nextBounded(4096);
        b.append(addr, static_cast<RefType>(rng.nextBounded(3)));
    }
    return b;
}

void
expectEqual(const TraceBuffer &a, const TraceBuffer &b,
            const char *what, unsigned round)
{
    ASSERT_EQ(a.size(), b.size()) << what << " round " << round;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << " round " << round
                              << " record " << i;
    EXPECT_EQ(a.instrRefs(), b.instrRefs());
    EXPECT_EQ(a.loadRefs(), b.loadRefs());
    EXPECT_EQ(a.storeRefs(), b.storeRefs());
}

} // namespace

// Each binary image is followed by one more byte, which its reader
// must leave in the stream: a reader stops at the end of its trace.
TEST(TraceRoundTripProperty, RandomBuffersSurviveAllThreeFormats)
{
    Pcg32 rng(0xfeedface, 0x42);
    for (unsigned round = 0; round < 50; ++round) {
        TraceBuffer orig = randomTrace(rng, 300);

        TraceBuffer raw;
        std::istringstream rawIs(serializeRaw(orig) + "#");
        ASSERT_TRUE(readBinaryTrace(rawIs, raw));
        expectEqual(orig, raw, "raw", round);
        EXPECT_EQ(rawIs.get(), '#') << "raw round " << round;

        TraceBuffer comp;
        std::istringstream compIs(serializeCompressed(orig) + "#");
        ASSERT_TRUE(readCompressedTrace(compIs, comp));
        expectEqual(orig, comp, "compressed", round);
        EXPECT_EQ(compIs.get(), '#') << "compressed round " << round;

        std::ostringstream text;
        writeTextTrace(text, orig);
        TraceBuffer txt;
        ASSERT_TRUE(readWith(Reader::Text, text.str(), txt));
        expectEqual(orig, txt, "text", round);
    }
}

TEST(TraceRoundTripProperty, AppendSemanticsPreserved)
{
    // A successful read appends to existing contents.
    TraceBuffer orig = sampleTrace();
    TraceBuffer buf;
    buf.append(0x42, RefType::Load);
    ASSERT_TRUE(readWith(Reader::Raw, serializeRaw(orig), buf));
    ASSERT_EQ(buf.size(), orig.size() + 1);
    EXPECT_EQ(buf[0].addr, 0x42u);
    EXPECT_EQ(buf[1], orig[0]);
}

TEST(TraceBufferTruncate, RestoresCountsExactly)
{
    TraceBuffer b;
    b.append(0x10, RefType::Instr);
    b.append(0x20, RefType::Load);
    b.append(0x30, RefType::Store);
    b.append(0x40, RefType::Store);
    b.truncate(4); // no-op
    EXPECT_EQ(b.size(), 4u);
    b.truncate(1);
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b.instrRefs(), 1u);
    EXPECT_EQ(b.loadRefs(), 0u);
    EXPECT_EQ(b.storeRefs(), 0u);
    b.truncate(0);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.totalRefs(), 0u);
}
