/**
 * @file
 * The persistent result store and the sweep cache on top of it.
 *
 * Three layers of guarantees:
 *
 *  - ResultStore (util/result_store.hh): records round-trip across
 *    reopen, later appends supersede, and a damaged file degrades
 *    fail-soft — a flipped byte drops only its record, a torn tail
 *    is truncated back to the last intact record, and only an alien
 *    header refuses to open.
 *
 *  - SweepCache (core/sweep_cache.hh): statistics round-trip
 *    bit-exactly, the record byte layout is pinned (so stores from
 *    earlier builds keep hitting), and a record whose embedded key
 *    text disagrees (hash collision, schema drift) or whose length
 *    is off reads as stale, never as wrong numbers.
 *
 *  - Crc32 (util/crc32.hh), the checksum under every record: the
 *    published check value, the slicing-by-8 path against a
 *    byte-at-a-time reference at every length and alignment, and
 *    incremental folding against the one-shot value.
 *
 *  - The differential tentpole: over the 64-point reference grid, a
 *    store-backed sweep is byte-identical to an uncached one, a WARM
 *    re-sweep is byte-identical AND >= 10x faster than the cold run
 *    that filled the store, a killed-and-resumed sweep matches an
 *    uninterrupted one, and a corrupted store entry is silently
 *    re-simulated while the sweep completes.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "core/sweep_cache.hh"
#include "util/crc32.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/profiler.hh"
#include "util/result_store.hh"
#include "util/units.hh"

#include "reference_grid.hh"

using namespace tlc;

namespace {

/// Long enough that a cold 64-config batch sweep costs real time
/// (hundreds of ms) while a warm one is pricing-only (ms) — the
/// >= 10x requirement then has an order of magnitude of slack.
constexpr std::uint64_t kRefs = 1000000;

std::string
tempPath(const std::string &name)
{
    std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct SweepResult
{
    std::vector<DesignPoint> points;
    std::vector<SweepFailure> failures;
    double wallSeconds = 0;
};

/** Built with AddressSanitizer (TLC_SANITIZE adds UBSan with it)? */
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/** Restores the worker-count override when it goes out of scope. */
class WorkerCountGuard
{
  public:
    explicit WorkerCountGuard(unsigned n) { setParallelWorkerCount(n); }
    ~WorkerCountGuard() { setParallelWorkerCount(0); }
};

/** Calls of one phase in the global profiler so far. */
std::uint64_t
phaseCalls(const char *name)
{
    const auto phases = Profiler::global().snapshot();
    auto it = phases.find(name);
    return it == phases.end() ? 0 : it->second.calls;
}

/** Seconds the global profiler has spent in the pricing models. */
double
modelSeconds()
{
    const auto phases = Profiler::global().snapshot();
    double s = 0;
    for (const char *name :
         {phase::kModelTiming, phase::kModelArea, phase::kModelTpi}) {
        auto it = phases.find(name);
        if (it != phases.end())
            s += it->second.totalSeconds();
    }
    return s;
}

/**
 * One complete fail-soft sweep on a fresh evaluator/explorer pair
 * (so the in-memory memo cannot leak between the runs compared),
 * optionally backed by the store at @p store_path.
 */
SweepResult
runSweep(Benchmark b, const std::vector<SystemConfig> &configs,
         const std::string &store_path = "")
{
    EvaluatorOptions opts;
    opts.traceRefs = kRefs;
    if (!store_path.empty()) {
        auto store = std::make_shared<SweepCache>();
        Status s = store->open(store_path);
        EXPECT_TRUE(s.ok()) << s.toString();
        opts.resultStore = std::move(store);
    }
    MissRateEvaluator ev(std::move(opts));
    Explorer ex(ev);
    FailureReport report;
    SweepResult r;
    auto t0 = std::chrono::steady_clock::now();
    r.points = ex.evaluateAll(b, configs, &report);
    r.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    r.failures = report.failures();
    return r;
}

/** Bitwise equality of every priced field of two design points. */
void
expectIdenticalPoint(const DesignPoint &a, const DesignPoint &b,
                     std::size_t i)
{
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(a.config.label(), b.config.label());
    EXPECT_EQ(a.areaRbe, b.areaRbe);
    EXPECT_EQ(a.l1Timing.accessNs, b.l1Timing.accessNs);
    EXPECT_EQ(a.l1Timing.cycleNs, b.l1Timing.cycleNs);
    EXPECT_EQ(a.l2Timing.accessNs, b.l2Timing.accessNs);
    EXPECT_EQ(a.miss.instrRefs, b.miss.instrRefs);
    EXPECT_EQ(a.miss.dataRefs, b.miss.dataRefs);
    EXPECT_EQ(a.miss.l1iMisses, b.miss.l1iMisses);
    EXPECT_EQ(a.miss.l1dMisses, b.miss.l1dMisses);
    EXPECT_EQ(a.miss.l2Hits, b.miss.l2Hits);
    EXPECT_EQ(a.miss.l2Misses, b.miss.l2Misses);
    EXPECT_EQ(a.miss.swaps, b.miss.swaps);
    EXPECT_EQ(a.miss.offchipWritebacks, b.miss.offchipWritebacks);
    EXPECT_EQ(a.tpi.tpi, b.tpi.tpi);
}

/** Points, failure report and derived envelope all byte-identical. */
void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i)
        expectIdenticalPoint(a.points[i], b.points[i], i);

    ASSERT_EQ(a.failures.size(), b.failures.size());
    for (std::size_t i = 0; i < a.failures.size(); ++i) {
        SCOPED_TRACE("failure " + std::to_string(i));
        EXPECT_EQ(a.failures[i].subject, b.failures[i].subject);
        EXPECT_EQ(a.failures[i].status.code(),
                  b.failures[i].status.code());
        EXPECT_EQ(a.failures[i].status.message(),
                  b.failures[i].status.message());
    }

    Envelope ea = Explorer::envelopeOf(a.points);
    Envelope eb = Explorer::envelopeOf(b.points);
    ASSERT_EQ(ea.points().size(), eb.points().size());
    for (std::size_t i = 0; i < ea.points().size(); ++i) {
        EXPECT_EQ(ea.points()[i].area, eb.points()[i].area);
        EXPECT_EQ(ea.points()[i].tpi, eb.points()[i].tpi);
        EXPECT_EQ(ea.points()[i].label, eb.points()[i].label);
    }
}

} // namespace

// ---------------------------------------------------------------
// ResultStore: the generic append-only file.
// ---------------------------------------------------------------

namespace {

/** Byte-at-a-time CRC-32, computed bit by bit: the reference the
 *  table-driven crc32Update() must equal. */
std::uint32_t
bytewiseCrc32(const unsigned char *p, std::size_t n)
{
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0);
    }
    return c ^ 0xffffffffu;
}

std::vector<unsigned char>
crcTestBytes(std::size_t n)
{
    std::vector<unsigned char> bytes(n);
    std::uint32_t x = 0x9e3779b9u;
    for (auto &b : bytes) {
        x = x * 1664525u + 1013904223u;
        b = static_cast<unsigned char>(x >> 24);
    }
    return bytes;
}

} // namespace

TEST(Crc32, KnownAnswer)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, SlicingMatchesBytewiseAtEveryLengthAndAlignment)
{
    const std::vector<unsigned char> bytes = crcTestBytes(64 + 8);
    for (std::size_t start = 0; start < 8; ++start) {
        for (std::size_t len = 0; len <= 64; ++len) {
            EXPECT_EQ(crc32(bytes.data() + start, len),
                      bytewiseCrc32(bytes.data() + start, len))
                << "start " << start << " length " << len;
        }
    }
}

TEST(Crc32, IncrementalUpdatesEqualOneShot)
{
    const std::vector<unsigned char> bytes = crcTestBytes(64);
    const std::uint32_t whole = crc32(bytes.data(), bytes.size());
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        std::uint32_t state = crc32Update(kCrc32Init, bytes.data(), cut);
        state = crc32Update(state, bytes.data() + cut, bytes.size() - cut);
        EXPECT_EQ(crc32Final(state), whole) << "split at " << cut;
    }
}

TEST(ResultStore, RoundTripsAcrossReopen)
{
    std::string path = tempPath("tlc_store_roundtrip.tlrs");
    {
        ResultStore store;
        ASSERT_TRUE(store.open(path).ok());
        EXPECT_EQ(store.size(), 0u);
        ASSERT_TRUE(store.append("alpha", "payload-a").ok());
        ASSERT_TRUE(store.append("beta", std::string("b\0c", 3)).ok());
        std::string got;
        ASSERT_TRUE(store.lookup("alpha", &got));
        EXPECT_EQ(got, "payload-a");
    }
    ResultStore store;
    ASSERT_TRUE(store.open(path).ok());
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.droppedRecords(), 0u);
    std::string got;
    ASSERT_TRUE(store.lookup("beta", &got));
    EXPECT_EQ(got, std::string("b\0c", 3));
    EXPECT_FALSE(store.lookup("gamma", &got));
}

TEST(ResultStore, LaterAppendSupersedesEarlier)
{
    std::string path = tempPath("tlc_store_supersede.tlrs");
    {
        ResultStore store;
        ASSERT_TRUE(store.open(path).ok());
        ASSERT_TRUE(store.append("k", "old").ok());
        ASSERT_TRUE(store.append("k", "new").ok());
    }
    ResultStore store;
    ASSERT_TRUE(store.open(path).ok());
    EXPECT_EQ(store.size(), 1u);
    std::string got;
    ASSERT_TRUE(store.lookup("k", &got));
    EXPECT_EQ(got, "new");
}

TEST(ResultStore, FlippedByteDropsOnlyThatRecord)
{
    std::string path = tempPath("tlc_store_bitflip.tlrs");
    long firstPayloadAt = 0;
    {
        ResultStore store;
        ASSERT_TRUE(store.open(path).ok());
        ASSERT_TRUE(store.append("victim", "payload-one").ok());
        ASSERT_TRUE(store.append("survivor", "payload-two").ok());
    }
    // Header (8) + lengths (8) + key ("victim") puts the first
    // record's payload at byte 22; flip one bit inside it.
    firstPayloadAt = 8 + 8 + 6 + 2;
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), static_cast<std::size_t>(firstPayloadAt));
    bytes[firstPayloadAt] ^= 0x40;
    writeFile(path, bytes);

    ResultStore store;
    ASSERT_TRUE(store.open(path).ok());
    EXPECT_EQ(store.droppedRecords(), 1u);
    EXPECT_EQ(store.size(), 1u);
    std::string got;
    EXPECT_FALSE(store.lookup("victim", &got));
    ASSERT_TRUE(store.lookup("survivor", &got));
    EXPECT_EQ(got, "payload-two");
}

TEST(ResultStore, TornTailIsTruncatedAndAppendsContinue)
{
    std::string path = tempPath("tlc_store_torn.tlrs");
    {
        ResultStore store;
        ASSERT_TRUE(store.open(path).ok());
        ASSERT_TRUE(store.append("intact", "kept").ok());
    }
    std::string bytes = readFile(path);
    std::size_t intactSize = bytes.size();
    // A record cut off mid-write: plausible lengths, missing data.
    writeFile(path, bytes + std::string("\x05\x00\x00\x00\x09\x00", 6));

    ResultStore store;
    ASSERT_TRUE(store.open(path).ok());
    EXPECT_EQ(store.droppedRecords(), 1u);
    std::string got;
    ASSERT_TRUE(store.lookup("intact", &got));
    EXPECT_EQ(got, "kept");
    // The torn bytes are gone and the file grows cleanly again.
    ASSERT_TRUE(store.append("after", "recovery").ok());
    store.close();

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(path).ok());
    EXPECT_EQ(reopened.droppedRecords(), 0u);
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_GE(readFile(path).size(), intactSize);
}

TEST(ResultStore, ZeroRecordFileOpensEmpty)
{
    std::string path = tempPath("tlc_store_empty.tlrs");
    { // Header only: a store created and closed without appends.
        ResultStore store;
        ASSERT_TRUE(store.open(path).ok());
    }
    ResultStore store;
    ASSERT_TRUE(store.open(path).ok());
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.droppedRecords(), 0u);
}

TEST(ResultStore, AlienHeaderRefusesToOpen)
{
    std::string path = tempPath("tlc_store_alien.tlrs");
    writeFile(path, std::string("NOPE\x01\x00\x00\x00", 8));
    ResultStore store;
    Status s = store.open(path);
    EXPECT_EQ(s.code(), StatusCode::BadMagic);
    EXPECT_FALSE(store.isOpen());

    writeFile(path, std::string("TLRS\x63\x00\x00\x00", 8));
    Status v = store.open(path);
    EXPECT_EQ(v.code(), StatusCode::VersionMismatch);
    EXPECT_FALSE(store.isOpen());
}

// ---------------------------------------------------------------
// SweepCache: domain serialization and collision safety.
// ---------------------------------------------------------------

TEST(SweepCache, StatsRoundTripBitExactly)
{
    std::string path = tempPath("tlc_cache_roundtrip.tlrs");
    SystemConfig c;
    c.l1Bytes = 8_KiB;
    c.l2Bytes = 256_KiB;
    std::string key = SweepCache::keyText("synthetic:test", 1000, c);

    HierarchyStats s;
    s.instrRefs = 0x0123456789abcdefull;
    s.dataRefs = 42;
    s.l1iMisses = 7;
    s.l1dMisses = 0xffffffffffffffffull;
    s.l2Hits = 1;
    s.l2Misses = 2;
    s.swaps = 3;
    s.offchipWritebacks = 4;

    SweepCache cache;
    ASSERT_TRUE(cache.open(path).ok());
    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.store(key, s);

    SweepCacheOutcome outcome = SweepCacheOutcome::Miss;
    std::optional<HierarchyStats> got = cache.lookup(key, &outcome);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(outcome, SweepCacheOutcome::Hit);
    EXPECT_EQ(got->instrRefs, s.instrRefs);
    EXPECT_EQ(got->dataRefs, s.dataRefs);
    EXPECT_EQ(got->l1iMisses, s.l1iMisses);
    EXPECT_EQ(got->l1dMisses, s.l1dMisses);
    EXPECT_EQ(got->l2Hits, s.l2Hits);
    EXPECT_EQ(got->l2Misses, s.l2Misses);
    EXPECT_EQ(got->swaps, s.swaps);
    EXPECT_EQ(got->offchipWritebacks, s.offchipWritebacks);
}

TEST(SweepCache, KeyTextMismatchReadsAsStaleNotWrongStats)
{
    SystemConfig c;
    c.l1Bytes = 4_KiB;
    std::string key = SweepCache::keyText("synthetic:real", 500, c);
    std::string other = SweepCache::keyText("synthetic:other", 500, c);
    std::string keyHash = SweepCache::hashKey(key);
    std::string otherHash = SweepCache::hashKey(other);
    ASSERT_NE(keyHash, otherHash);

    HierarchyStats s;
    s.instrRefs = 99;

    // Capture OTHER's serialized payload (which embeds OTHER's key
    // text) by writing it to a scratch store and reading it back
    // through the generic layer.
    std::string payload;
    {
        std::string scratch = tempPath("tlc_cache_stale_src.tlrs");
        SweepCache writer;
        ASSERT_TRUE(writer.open(scratch).ok());
        writer.store(other, s);
        writer.close();
        ResultStore reader;
        ASSERT_TRUE(reader.open(scratch).ok());
        ASSERT_TRUE(reader.lookup(otherHash, &payload));
    }

    // Simulate a hash collision: plant that payload under KEY's
    // store hash. The record is CRC-intact, so the generic layer
    // serves it — only the embedded key text disagrees.
    std::string path = tempPath("tlc_cache_stale.tlrs");
    {
        ResultStore planter;
        ASSERT_TRUE(planter.open(path).ok());
        ASSERT_TRUE(planter.append(keyHash, payload).ok());
    }

    SweepCache cache;
    ASSERT_TRUE(cache.open(path).ok());
    SweepCacheOutcome outcome = SweepCacheOutcome::Hit;
    EXPECT_FALSE(cache.lookup(key, &outcome).has_value());
    EXPECT_EQ(outcome, SweepCacheOutcome::Stale);
    // The honest key simply misses (its hash is absent here).
    EXPECT_FALSE(cache.lookup(other, &outcome).has_value());
    EXPECT_EQ(outcome, SweepCacheOutcome::Miss);
}

TEST(SweepCache, StorePayloadLayoutIsPinned)
{
    // The record body spelled out byte by byte, not through the
    // codec: u64le key-text length, the key text, then the eight
    // HierarchyStats fields as u64le in declaration order. Stores
    // written by earlier builds must keep hitting, so this layout
    // may only change together with kSweepCacheSchemaVersion.
    auto le64 = [](std::string &s, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    std::string body;
    for (std::uint64_t f = 0; f < 8; ++f)
        le64(body, 0x0807060504030201ull + f * 0x1010101010101010ull);
    auto payloadFor = [&](const std::string &key_text) {
        std::string p;
        le64(p, key_text.size());
        return p + key_text + body;
    };
    SystemConfig c;
    c.l1Bytes = 8_KiB;
    c.l2Bytes = 256_KiB;
    // Equal-length keys, one per damaged variant below.
    auto keyOf = [&](std::size_t variant) {
        char trace[32];
        std::snprintf(trace, sizeof trace, "synthetic:pin%04zu", variant);
        return SweepCache::keyText(trace, 1000, c);
    };

    const std::string key = keyOf(9999);
    const std::string full = payloadFor(key);
    std::string path = tempPath("tlc_cache_layout.tlrs");
    {
        ResultStore planter;
        ASSERT_TRUE(planter.open(path).ok());
        ASSERT_TRUE(planter.append(SweepCache::hashKey(key), full).ok());
        // Every truncation, and a one-byte extension, of a record
        // that is otherwise intact.
        for (std::size_t len = 0; len <= full.size(); ++len) {
            std::string p = payloadFor(keyOf(len));
            p.resize(len == full.size() ? len + 1 : len, '\0');
            ASSERT_TRUE(
                planter.append(SweepCache::hashKey(keyOf(len)), p).ok());
        }
    }

    SweepCache cache;
    ASSERT_TRUE(cache.open(path).ok());
    SweepCacheOutcome outcome = SweepCacheOutcome::Miss;
    std::optional<HierarchyStats> got = cache.lookup(key, &outcome);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(outcome, SweepCacheOutcome::Hit);
    EXPECT_EQ(got->instrRefs, 0x0807060504030201ull);
    EXPECT_EQ(got->dataRefs, 0x1817161514131211ull);
    EXPECT_EQ(got->l1iMisses, 0x2827262524232221ull);
    EXPECT_EQ(got->l1dMisses, 0x3837363534333231ull);
    EXPECT_EQ(got->l2Hits, 0x4847464544434241ull);
    EXPECT_EQ(got->l2Misses, 0x5857565554535251ull);
    EXPECT_EQ(got->swaps, 0x6867666564636261ull);
    EXPECT_EQ(got->offchipWritebacks, 0x7877767574737271ull);
    for (std::size_t len = 0; len <= full.size(); ++len) {
        SCOPED_TRACE("variant " + std::to_string(len));
        EXPECT_FALSE(cache.lookup(keyOf(len), &outcome).has_value());
        EXPECT_EQ(outcome, SweepCacheOutcome::Stale);
    }

    // The shared decoder itself: exactly kHierarchyStatsBytes, no
    // more and no less, and the encoder writes the same bytes.
    ASSERT_EQ(body.size(), kHierarchyStatsBytes);
    HierarchyStats s;
    ASSERT_TRUE(decodeHierarchyStats(body, s));
    std::string reencoded;
    encodeHierarchyStats(reencoded, s);
    EXPECT_EQ(reencoded, body);
    for (std::size_t len = 0; len < body.size(); ++len)
        EXPECT_FALSE(decodeHierarchyStats(body.substr(0, len), s)) << len;
    EXPECT_FALSE(decodeHierarchyStats(body + '\0', s));
}

// ---------------------------------------------------------------
// The differential tentpole: store-backed sweeps over the 64-point
// reference grid.
// ---------------------------------------------------------------

TEST(ResultStoreDifferential, WarmResweepIsByteIdenticalAndTenTimesFaster)
{
    std::vector<SystemConfig> grid = referenceGrid();
    ASSERT_EQ(grid.size(), 64u);
    std::string path = tempPath("tlc_diff_warm.tlrs");

    // Sanitizers slow the timing/area/TPI models, which the warm and
    // cold runs pay alike, far more than the trace walk, so there
    // the speedup is timed without pricing, serially so that the
    // model phases' summed time is wall time.
    std::optional<WorkerCountGuard> serial;
    if (kSanitized)
        serial.emplace(1);
    Profiler &prof = Profiler::global();
    const bool wasEnabled = prof.enabled();
    prof.setEnabled(true);
    MetricCounter &lanes =
        MetricsRegistry::global().counter("explore.batch.lanes");

    SweepResult uncached = runSweep(Benchmark::Gcc1, grid);
    const double cold0 = modelSeconds();
    SweepResult cold = runSweep(Benchmark::Gcc1, grid, path);
    const double warm0 = modelSeconds();
    const std::uint64_t lanesBefore = lanes.value();
    const std::uint64_t loadsBefore = phaseCalls(phase::kTraceLoad);
    SweepResult warm = runSweep(Benchmark::Gcc1, grid, path);
    const double warm1 = modelSeconds();
    prof.setEnabled(wasEnabled);

    EXPECT_EQ(uncached.points.size(), 64u);
    EXPECT_TRUE(uncached.failures.empty());
    expectIdentical(uncached, cold);
    expectIdentical(uncached, warm);

    // The store answered every point, so the warm run built no lane
    // and never touched the trace.
    EXPECT_EQ(lanes.value(), lanesBefore);
    EXPECT_EQ(phaseCalls(phase::kTraceLoad), loadsBefore);

    // It should beat the cold run by far more than the promised
    // order of magnitude.
    if (kSanitized) {
        const double coldUnpriced = cold.wallSeconds - (warm0 - cold0);
        const double warmUnpriced = warm.wallSeconds - (warm1 - warm0);
        EXPECT_GE(coldUnpriced, warmUnpriced * 10)
            << "cold " << coldUnpriced << "s vs warm " << warmUnpriced
            << "s, both without pricing";
    } else {
        EXPECT_GE(cold.wallSeconds, warm.wallSeconds * 10)
            << "cold " << cold.wallSeconds << "s vs warm "
            << warm.wallSeconds << "s";
    }
}

TEST(ResultStoreDifferential, KilledAndResumedSweepMatchesUninterrupted)
{
    std::vector<SystemConfig> grid = referenceGrid();
    std::string path = tempPath("tlc_diff_resume.tlrs");

    // "Kill" a sweep after 23 of 64 points: run only a prefix, then
    // drop the evaluator (as a killed process would).
    std::vector<SystemConfig> prefix(grid.begin(), grid.begin() + 23);
    SweepResult partial = runSweep(Benchmark::Gcc1, prefix, path);
    ASSERT_EQ(partial.points.size(), 23u);
    {
        SweepCache probe;
        ASSERT_TRUE(probe.open(path).ok());
        EXPECT_GT(probe.entries(), 0u);
    }

    // The resumed run serves the prefix from the store and simulates
    // only the tail; it must match an uninterrupted uncached run
    // byte for byte.
    SweepResult resumed = runSweep(Benchmark::Gcc1, grid, path);
    SweepResult uninterrupted = runSweep(Benchmark::Gcc1, grid);
    expectIdentical(uninterrupted, resumed);
}

TEST(ResultStoreDifferential, CorruptedEntryIsResimulatedAndSweepCompletes)
{
    std::vector<SystemConfig> grid = referenceGrid();
    std::string path = tempPath("tlc_diff_corrupt.tlrs");

    SweepResult baseline = runSweep(Benchmark::Gcc1, grid);
    SweepResult cold = runSweep(Benchmark::Gcc1, grid, path);
    expectIdentical(baseline, cold);

    // Flip one byte in the middle of the store: some record's CRC
    // now disagrees and that entry is dropped at open.
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 100u);
    bytes[bytes.size() / 2] ^= 0x10;
    writeFile(path, bytes);
    {
        SweepCache probe;
        ASSERT_TRUE(probe.open(path).ok());
        EXPECT_GE(probe.droppedRecords(), 1u);
        EXPECT_LT(probe.entries(), 64u);
    }

    // The sweep completes, re-simulating the lost point(s), and
    // still matches the uncached baseline byte for byte.
    SweepResult repaired = runSweep(Benchmark::Gcc1, grid, path);
    expectIdentical(baseline, repaired);

    // The re-simulated points were appended back: a further run is
    // fully warm again.
    SweepCache probe;
    ASSERT_TRUE(probe.open(path).ok());
    EXPECT_EQ(probe.entries(), 64u);
}
