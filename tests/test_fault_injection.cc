/**
 * @file
 * Fault-injection tests: the CorruptingStreamBuf itself, the trace
 * readers under randomized corruption and exhaustive truncation
 * (including cuts and flips beside the readers' block boundaries), and
 * the fail-soft sweep path (an unreadable benchmark trace plus an
 * invalid configuration must be reported and skipped, not fatal).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/explorer.hh"
#include "trace/io.hh"
#include "trace/workload.hh"
#include "util/faultio.hh"

using namespace tlc;

namespace {

std::string
payload(std::size_t n, std::uint32_t seed = 5)
{
    Pcg32 rng(seed, 0xabc);
    std::string s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(static_cast<char>(rng.nextBounded(256)));
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// CorruptingStreamBuf unit tests.
// ---------------------------------------------------------------------

TEST(FaultInjector, NoFaultsIsIdentity)
{
    const std::string bytes = payload(4096);
    FaultSpec spec; // all rates zero, no truncation
    EXPECT_EQ(corruptCopy(bytes, spec), bytes);
}

TEST(FaultInjector, SameSeedSameFaults)
{
    const std::string bytes = payload(8192);
    FaultSpec spec;
    spec.bitFlipRate = 0.01;
    spec.dropRate = 0.002;
    spec.dupRate = 0.002;
    spec.seed = 1234;
    const std::string a = corruptCopy(bytes, spec);
    const std::string b = corruptCopy(bytes, spec);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, bytes);

    spec.seed = 1235;
    EXPECT_NE(corruptCopy(bytes, spec), a);
}

TEST(FaultInjector, BitFlipsPreserveLengthAndLandNearRate)
{
    const std::string bytes = payload(100000);
    FaultSpec spec;
    spec.bitFlipRate = 0.01;
    spec.seed = 9;

    std::istringstream src(bytes);
    CorruptingStreamBuf cb(*src.rdbuf(), spec);
    std::string out;
    std::streambuf::int_type c;
    while (!std::streambuf::traits_type::eq_int_type(
               c = cb.sbumpc(), std::streambuf::traits_type::eof()))
        out.push_back(static_cast<char>(c));

    ASSERT_EQ(out.size(), bytes.size());
    EXPECT_EQ(cb.bytesRead(), bytes.size());

    std::size_t diffs = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i)
        if (out[i] != bytes[i])
            ++diffs;
    EXPECT_EQ(diffs, cb.faultsInjected());
    // 1000 expected flips; allow a wide statistical band.
    EXPECT_GT(diffs, 700u);
    EXPECT_LT(diffs, 1300u);
}

TEST(FaultInjector, TruncationCutsExactlyThere)
{
    const std::string bytes = payload(1000);
    FaultSpec spec;
    spec.truncateAfter = 137;
    const std::string out = corruptCopy(bytes, spec);
    EXPECT_EQ(out, bytes.substr(0, 137));

    spec.truncateAfter = 0;
    EXPECT_TRUE(corruptCopy(bytes, spec).empty());

    spec.truncateAfter = bytes.size() + 50; // beyond EOF: no cut
    EXPECT_EQ(corruptCopy(bytes, spec), bytes);
}

TEST(FaultInjector, DropsShortenAndDupsLengthen)
{
    const std::string bytes = payload(50000);
    FaultSpec spec;
    spec.dropRate = 0.01;
    spec.seed = 3;
    EXPECT_LT(corruptCopy(bytes, spec).size(), bytes.size());

    FaultSpec dup;
    dup.dupRate = 0.01;
    dup.seed = 3;
    EXPECT_GT(corruptCopy(bytes, dup).size(), bytes.size());
}

// ---------------------------------------------------------------------
// Readers under injected faults. The contract for every sample:
// either the read succeeds (corruption happened to be benign or
// missed the sample), or it fails with a Status and the destination
// buffer is exactly as it was on entry. Never a crash; under
// -DTLC_SANITIZE=ON, never a sanitizer report.
// ---------------------------------------------------------------------

namespace {

struct ReadOutcome
{
    std::size_t accepted = 0;
    std::size_t rejected = 0;
};

template <typename ReaderFn>
void
expectRobust(const std::string &image, ReaderFn read, ReadOutcome &out,
             const char *what, std::uint64_t seed)
{
    TraceBuffer buf;
    buf.append(0xcafe0000u, RefType::Instr);
    buf.append(0xcafe0010u, RefType::Store);

    std::istringstream is(image);
    Status s = read(is, buf);
    if (s.ok()) {
        ++out.accepted;
        return;
    }
    ++out.rejected;
    EXPECT_FALSE(s.message().empty()) << what << " seed " << seed;
    ASSERT_EQ(buf.size(), 2u)
        << what << " seed " << seed << ": failed read left partial "
        << "data; status: " << s.toString();
    EXPECT_EQ(buf[0].addr, 0xcafe0000u);
    EXPECT_EQ(buf[1].addr, 0xcafe0010u);
    EXPECT_EQ(buf.instrRefs(), 1u);
    EXPECT_EQ(buf.storeRefs(), 1u);
}

/**
 * A 140 K-reference gcc1 trace, whose compressed form spans more than
 * three of the readers' 64 KiB blocks (and its raw form ten).
 */
const TraceBuffer &
multiBlockTrace()
{
    static const TraceBuffer t =
        Workloads::generate(Benchmark::Gcc1, 140000, 0);
    return t;
}

std::string
multiBlockImage(bool compressed)
{
    std::ostringstream os;
    if (compressed)
        writeCompressedTrace(os, multiBlockTrace());
    else
        writeBinaryTrace(os, multiBlockTrace());
    return os.str();
}

/** A string buffer that logs how far each read() has consumed. */
class ReadLogBuf : public std::stringbuf
{
  public:
    explicit ReadLogBuf(const std::string &s)
        : std::stringbuf(s, std::ios::in)
    {}

    std::vector<std::size_t> readEnds; ///< offset after each read()
    std::vector<std::size_t> readSizes; ///< bytes each read() asked

  protected:
    std::streamsize xsgetn(char *out, std::streamsize n) override
    {
        std::streamsize got = std::stringbuf::xsgetn(out, n);
        readEnds.push_back(static_cast<std::size_t>(gptr() - eback()));
        readSizes.push_back(static_cast<std::size_t>(n));
        return got;
    }
};

/**
 * The first three block boundaries a clean read of @p image crosses:
 * where the reader's block-sized read() calls ended.
 */
std::vector<std::size_t>
blockBoundaries(const std::string &image, bool compressed)
{
    ReadLogBuf log(image);
    std::istream is(&log);
    TraceBuffer buf;
    Status s = compressed ? readCompressedTrace(is, buf)
                          : readBinaryTrace(is, buf);
    EXPECT_TRUE(s.ok()) << s.toString();
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < log.readEnds.size() && out.size() < 3; ++i) {
        if (log.readSizes[i] >= 4096)
            out.push_back(log.readEnds[i]);
    }
    return out;
}

/** Read @p image through a CorruptingStreamBuf, which cannot seek. */
Status
readUnseekable(const std::string &image, const FaultSpec &spec,
               bool compressed, TraceBuffer &buf)
{
    std::istringstream src(image);
    CorruptingStreamBuf cb(*src.rdbuf(), spec);
    std::istream is(&cb);
    return compressed ? readCompressedTrace(is, buf)
                      : readBinaryTrace(is, buf);
}

/**
 * Cut @p image at every offset within 16 bytes of each of its first
 * three block boundaries and at every offset in @p tail_cuts; each
 * cut must read as Truncated with the buffer rolled back. The cut is
 * a CorruptingStreamBuf's hard truncation, so the reader cannot see
 * the short length up front and meets it inside a block.
 */
void
expectBoundaryCutsTruncate(bool compressed,
                           const std::vector<std::size_t> &tail_cuts)
{
    const std::string image = multiBlockImage(compressed);
    const std::vector<std::size_t> bounds =
        blockBoundaries(image, compressed);
    ASSERT_EQ(bounds.size(), 3u);
    std::vector<std::size_t> cuts = tail_cuts;
    for (std::size_t b : bounds) {
        for (std::size_t cut = b - 16; cut <= b + 16; ++cut)
            cuts.push_back(cut);
    }
    for (std::size_t cut : cuts) {
        ASSERT_LT(cut, image.size());
        FaultSpec spec;
        spec.truncateAfter = cut;
        TraceBuffer buf;
        buf.append(0xbeef0000u, RefType::Load);
        Status s = readUnseekable(image, spec, compressed, buf);
        EXPECT_EQ(s.code(), StatusCode::Truncated)
            << "cut at " << cut << ": " << s.toString();
        ASSERT_EQ(buf.size(), 1u) << "cut at " << cut;
        EXPECT_EQ(buf.loadRefs(), 1u) << "cut at " << cut;
    }
}

} // namespace

TEST(ReadersUnderFaults, BitFlippedTracesNeverLeavePartialData)
{
    TraceBuffer orig = Workloads::generate(Benchmark::Espresso, 3000, 1);
    std::ostringstream raw_os, comp_os, text_os;
    writeBinaryTrace(raw_os, orig);
    writeCompressedTrace(comp_os, orig);
    writeTextTrace(text_os, orig);
    const std::string raw = raw_os.str();
    const std::string comp = comp_os.str();
    const std::string text = text_os.str();
    // The legacy footer-less compressed format: same record encoding,
    // version 2, no trailing CRC. Version-3 images reject essentially
    // every payload flip via the footer, so this flavour carries the
    // "flips are not universally fatal" half of the property — a flip
    // that still decodes structurally is accepted here, as every
    // compressed trace was before the footer existed.
    std::string legacy = comp.substr(0, comp.size() - 4);
    legacy[4] = 2;

    ReadOutcome out;
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        FaultSpec spec;
        spec.bitFlipRate = 1e-3; // the acceptance-criteria rate
        spec.dropRate = 2.5e-4;
        spec.dupRate = 2.5e-4;
        spec.seed = seed;
        expectRobust(corruptCopy(raw, spec),
                     [](std::istream &is, TraceBuffer &b) {
                         return readBinaryTrace(is, b);
                     }, out, "raw", seed);
        expectRobust(corruptCopy(comp, spec),
                     [](std::istream &is, TraceBuffer &b) {
                         return readCompressedTrace(is, b);
                     }, out, "compressed", seed);
        expectRobust(corruptCopy(legacy, spec),
                     [](std::istream &is, TraceBuffer &b) {
                         return readCompressedTrace(is, b);
                     }, out, "legacy compressed", seed);
        expectRobust(corruptCopy(text, spec),
                     [](std::istream &is, TraceBuffer &b) {
                         return readTextTrace(is, b);
                     }, out, "text", seed);
    }
    // At 1e-3 per byte over multi-KB images, most samples must have
    // been corrupted enough to be rejected; and the flips must not
    // have been universally fatal either (header-miss cases pass).
    EXPECT_GT(out.rejected, 100u);
    EXPECT_GT(out.accepted, 0u);
}

TEST(ReadersUnderFaults, EveryPrefixTruncationOfABinaryTraceIsHandled)
{
    TraceBuffer orig;
    for (int i = 0; i < 12; ++i)
        orig.append(0x1000u + 16u * static_cast<std::uint32_t>(i),
                    static_cast<RefType>(i % 3));
    std::ostringstream os;
    writeBinaryTrace(os, orig);
    const std::string full = os.str();

    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        TraceBuffer buf;
        buf.append(0xbeef0000u, RefType::Load);
        std::istringstream is(full.substr(0, cut));
        Status s = readBinaryTrace(is, buf);
        ASSERT_FALSE(s.ok()) << "cut at " << cut;
        // A cut just past the header is indistinguishable from a
        // hostile count, so either truncation code is correct.
        EXPECT_TRUE(s.code() == StatusCode::Truncated ||
                    s.code() == StatusCode::CountTooLarge)
            << "cut at " << cut << ": " << s.toString();
        ASSERT_EQ(buf.size(), 1u) << "cut at " << cut;
        EXPECT_EQ(buf[0].addr, 0xbeef0000u);
    }

    // The whole file still reads back fine.
    TraceBuffer buf;
    std::istringstream is(full);
    EXPECT_TRUE(readBinaryTrace(is, buf));
    EXPECT_EQ(buf.size(), orig.size());

    // A multi-block trace cut next to a block boundary, or inside
    // its last record.
    const std::size_t end = multiBlockImage(false).size();
    expectBoundaryCutsTruncate(false, {end - 5, end - 1});
}

TEST(ReadersUnderFaults, EveryPrefixTruncationOfACompressedTraceIsHandled)
{
    TraceBuffer orig;
    std::uint32_t addr = 0x00400000;
    for (int i = 0; i < 20; ++i) {
        addr += (i % 4 == 3) ? 0x10000 : 4; // small and large deltas
        orig.append(addr, static_cast<RefType>(i % 3));
    }
    std::ostringstream os;
    writeCompressedTrace(os, orig);
    const std::string full = os.str();

    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        TraceBuffer buf;
        std::istringstream is(full.substr(0, cut));
        Status s = readCompressedTrace(is, buf);
        ASSERT_FALSE(s.ok()) << "cut at " << cut;
        EXPECT_TRUE(s.code() == StatusCode::Truncated ||
                    s.code() == StatusCode::CountTooLarge)
            << "cut at " << cut << ": " << s.toString();
        EXPECT_TRUE(buf.empty()) << "cut at " << cut;
    }

    // A multi-block trace cut next to a block boundary, or inside
    // its CRC footer.
    const std::size_t end = multiBlockImage(true).size();
    expectBoundaryCutsTruncate(true, {end - 4, end - 3, end - 2, end - 1});
}

// Both binary formats round-trip a multi-block trace through a
// seekable and an unseekable stream, and a reader stops at the end of
// its trace: the byte after it is still in the stream.
TEST(ReadersUnderFaults, MultiBlockTracesRoundTripAndStopAtTheirEnd)
{
    const TraceBuffer &orig = multiBlockTrace();
    for (bool compressed : {true, false}) {
        const std::string image = multiBlockImage(compressed);
        ASSERT_GT(image.size(), 16u + 3 * 64 * 1024);
        const std::string followed = image + "#";
        auto check = [&](std::istream &is, const char *how) {
            TraceBuffer buf;
            Status s = compressed ? readCompressedTrace(is, buf)
                                  : readBinaryTrace(is, buf);
            ASSERT_TRUE(s.ok()) << how << ": " << s.toString();
            ASSERT_EQ(buf.size(), orig.size()) << how;
            for (std::size_t i = 0; i < orig.size(); ++i)
                ASSERT_EQ(buf[i], orig[i]) << how << " record " << i;
            EXPECT_EQ(buf.instrRefs(), orig.instrRefs()) << how;
            EXPECT_EQ(buf.storeRefs(), orig.storeRefs()) << how;
            EXPECT_EQ(is.get(), '#') << how;
        };
        std::istringstream seekable(followed);
        check(seekable, compressed ? "compressed, istringstream"
                                   : "raw, istringstream");
        std::istringstream src(followed);
        CorruptingStreamBuf cb(*src.rdbuf(), FaultSpec{});
        std::istream unseekable(&cb);
        check(unseekable, compressed ? "compressed, unseekable"
                                     : "raw, unseekable");
    }
}

// A v3 trace with one byte flipped beside a block boundary must fail:
// the flip either breaks the varint framing or changes a decoded
// record, which the CRC footer catches.
TEST(ReadersUnderFaults, FlipsBesideABlockBoundaryAreRejected)
{
    const std::string image = multiBlockImage(true);
    for (std::size_t b : blockBoundaries(image, true)) {
        for (std::size_t at = b - 2; at <= b + 1; ++at) {
            for (unsigned bit : {0u, 1u, 7u}) {
                std::string bad = image;
                bad[at] = static_cast<char>(bad[at] ^ (1u << bit));
                TraceBuffer buf;
                std::istringstream is(bad);
                Status s = readCompressedTrace(is, buf);
                EXPECT_TRUE(s.code() == StatusCode::Truncated ||
                            s.code() == StatusCode::TypeOutOfRange ||
                            s.code() == StatusCode::ChecksumMismatch)
                    << "byte " << at << " bit " << bit << ": "
                    << s.toString();
                EXPECT_TRUE(buf.empty()) << "byte " << at;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fail-soft sweep: the acceptance-criteria scenario. One benchmark
// routed to an unreadable trace file and one invalid configuration in
// the list; the remaining points must complete and the FailureReport
// must name both failures.
// ---------------------------------------------------------------------

TEST(FailSoftSweep, BadTraceAndBadConfigAreReportedAndSkipped)
{
    MissRateEvaluator eval(20000);
    Explorer explorer(eval);

    SystemAssumptions assume;
    std::vector<SystemConfig> configs;
    configs.push_back({8 * 1024, 0, assume});
    configs.push_back({3 * 1024, 0, assume});       // not a power of two
    configs.push_back({8 * 1024, 64 * 1024, assume});
    configs.push_back({16 * 1024, 128 * 1024, assume});

    // Healthy benchmark: only the invalid config fails.
    {
        FailureReport report;
        auto points = explorer.evaluateAll(Benchmark::Eqntott, configs,
                                           &report);
        EXPECT_EQ(points.size(), 3u);
        ASSERT_EQ(report.size(), 1u);
        EXPECT_TRUE(report.mentions("3:0"));
        EXPECT_EQ(report.failures()[0].status.code(),
                  StatusCode::InvalidConfig);
        for (const DesignPoint &p : points)
            EXPECT_GT(p.tpi.tpi, 0.0);
    }

    // Same benchmark routed to a nonexistent trace file (routing is
    // construction-time, so this is a fresh evaluator): the whole
    // benchmark fails once, on top of the invalid config.
    {
        EvaluatorOptions opts;
        opts.traceRefs = 20000;
        opts.traceFiles[Benchmark::Eqntott] = "/nonexistent/eqntott.trc";
        MissRateEvaluator routed(std::move(opts));
        Explorer routedExplorer(routed);
        FailureReport report;
        auto points = routedExplorer.evaluateAll(Benchmark::Eqntott,
                                                 configs, &report);
        EXPECT_TRUE(points.empty());
        ASSERT_EQ(report.size(), 1u);
        EXPECT_TRUE(report.mentions("eqntott"));
        EXPECT_EQ(report.failures()[0].status.code(),
                  StatusCode::IoError);
        // The summary table names the benchmark and the error.
        const std::string summary = report.summary();
        EXPECT_NE(summary.find("eqntott"), std::string::npos) << summary;
        EXPECT_NE(summary.find("io-error"), std::string::npos) << summary;
    }

    // A corrupt (not just missing) trace file is just as fail-soft,
    // and a second healthy benchmark still sweeps cleanly while the
    // broken routing is in place.
    std::string bad = ::testing::TempDir() + "/tlc_corrupt_bench.trc";
    {
        std::ofstream os(bad, std::ios::binary);
        os << "TLCT garbage follows the magic";
    }
    {
        EvaluatorOptions opts;
        opts.traceRefs = 20000;
        opts.traceFiles[Benchmark::Tomcatv] = bad;
        MissRateEvaluator routed(std::move(opts));
        Explorer routedExplorer(routed);
        FailureReport report;
        auto tom = routedExplorer.evaluateAll(Benchmark::Tomcatv,
                                              configs, &report);
        EXPECT_TRUE(tom.empty());
        EXPECT_TRUE(report.mentions("tomcatv"));

        auto li = routedExplorer.evaluateAll(Benchmark::Li, configs,
                                             &report);
        EXPECT_EQ(li.size(), 3u);
        // Combined report: tomcatv's trace + li's invalid config.
        EXPECT_EQ(report.size(), 2u);
        EXPECT_TRUE(report.mentions("3:0"));
    }
    std::remove(bad.c_str());
}

TEST(FailSoftSweep, TryEvaluateReportsInvalidConfigBeforeSimulating)
{
    MissRateEvaluator eval(20000);
    Explorer explorer(eval);

    SystemConfig bad;
    bad.l1Bytes = 8 * 1024;
    bad.l2Bytes = 5000; // not a power of two
    auto r = explorer.tryEvaluate(Benchmark::Doduc, bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidConfig);
    // The status names the offending level of the offending config.
    EXPECT_NE(r.status().message().find("L2"), std::string::npos)
        << r.status().message();

    SystemConfig good;
    good.l1Bytes = 8 * 1024;
    good.l2Bytes = 64 * 1024;
    auto ok = explorer.tryEvaluate(Benchmark::Doduc, good);
    ASSERT_TRUE(ok.ok());
    EXPECT_GT(ok.value().tpi.tpi, 0.0);
    EXPECT_GT(ok.value().areaRbe, 0.0);
}

TEST(FailSoftSweep, TraceFileRoutingServesFilesAndReportsErrors)
{
    // Write a real trace for fpppp, route to it at construction, and
    // verify the evaluator serves the file's records rather than
    // synthesis.
    TraceBuffer small = Workloads::generate(Benchmark::Fpppp, 5000, 2);
    std::string path = ::testing::TempDir() + "/tlc_fpppp.trc";
    ASSERT_TRUE(saveTraceFile(path, small));

    {
        EvaluatorOptions opts;
        opts.traceRefs = 20000;
        opts.traceFiles[Benchmark::Fpppp] = path;
        MissRateEvaluator eval(std::move(opts));
        auto t = eval.tryTrace(Benchmark::Fpppp);
        ASSERT_TRUE(t.ok()) << t.status().toString();
        EXPECT_EQ(t.value()->size(), small.size());
    }

    // Routing to a bad path reports IoError; the Status names the
    // benchmark and the path.
    {
        EvaluatorOptions opts;
        opts.traceRefs = 20000;
        opts.traceFiles[Benchmark::Fpppp] = "/nonexistent/x.trc";
        MissRateEvaluator eval(std::move(opts));
        auto bad = eval.tryTrace(Benchmark::Fpppp);
        ASSERT_FALSE(bad.ok());
        EXPECT_EQ(bad.status().code(), StatusCode::IoError);
        EXPECT_NE(bad.status().message().find("fpppp"),
                  std::string::npos)
            << bad.status().message();
        EXPECT_NE(bad.status().message().find("/nonexistent/x.trc"),
                  std::string::npos)
            << bad.status().message();

        // tryMissStats surfaces the same failure.
        SystemConfig cfg;
        auto stats = eval.tryMissStats(Benchmark::Fpppp, cfg);
        EXPECT_FALSE(stats.ok());
        EXPECT_EQ(stats.status().code(), StatusCode::IoError);
    }

    std::remove(path.c_str());
}

TEST(FailSoftSweep, WorkloadTryByNameReportsUnknownNames)
{
    auto ok = Workloads::tryByName("gcc1");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), Benchmark::Gcc1);

    auto bad = Workloads::tryByName("quake3");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::UnknownName);
    // The message lists the valid names to help the user.
    EXPECT_NE(bad.status().message().find("tomcatv"), std::string::npos)
        << bad.status().message();
}

TEST(FailSoftSweep, SweepWithReportMatchesClassicSweepWhenHealthy)
{
    MissRateEvaluator eval(20000);
    Explorer explorer(eval);
    SystemAssumptions assume;

    FailureReport report;
    auto with = explorer.sweep(Benchmark::Espresso, assume, true, false,
                               &report);
    auto classic = explorer.sweep(Benchmark::Espresso, assume, true,
                                  false);
    EXPECT_TRUE(report.empty());
    EXPECT_EQ(report.summary(),
              std::string("sweep completed with no failures\n"));
    ASSERT_EQ(with.size(), classic.size());
    for (std::size_t i = 0; i < with.size(); ++i)
        EXPECT_DOUBLE_EQ(with[i].tpi.tpi, classic[i].tpi.tpi);
}
