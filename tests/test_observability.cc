/**
 * @file
 * Tests for the observability layer: metrics registry semantics
 * (create-or-get, kinds, dumps), concurrent counter increments under
 * the parallelFor worker team (run under TSan via the test_parallel
 * target), the scoped phase profiler, the Chrome trace-event
 * exporter, the JSON helpers that back all of them, sweep progress
 * callbacks, the run manifest schema, and the file writers'
 * late-error reporting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/explorer.hh"
#include "trace/io.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/profiler.hh"
#include "util/run_manifest.hh"
#include "util/trace_event.hh"

using namespace tlc;

// ---------------------------------------------------------------- JSON

TEST(Json, EscapeCoversControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonQuote("x"), "\"x\"");
}

TEST(Json, NumberRoundTripsAndSanitisesNonFinite)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-1.5), "-1.5");
    // Shortest form that parses back to the same double.
    double v = 0.1;
    EXPECT_EQ(std::stod(jsonNumber(v)), v);
    v = 1.0 / 3.0;
    EXPECT_EQ(std::stod(jsonNumber(v)), v);
    // JSON has no NaN/Inf; the helper degrades to 0.
    EXPECT_EQ(jsonNumber(std::nan("")), "0");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "0");
}

TEST(Json, SyntaxCheckerAcceptsValidDocuments)
{
    EXPECT_TRUE(jsonSyntaxOk("{}"));
    EXPECT_TRUE(jsonSyntaxOk("[]"));
    EXPECT_TRUE(jsonSyntaxOk("42"));
    EXPECT_TRUE(jsonSyntaxOk("-1.5e-3"));
    EXPECT_TRUE(jsonSyntaxOk("\"str\""));
    EXPECT_TRUE(jsonSyntaxOk("true"));
    EXPECT_TRUE(jsonSyntaxOk(" { \"a\" : [1, 2.5, null, {\"b\": "
                             "\"\\u0041\\n\"}] } "));
    EXPECT_TRUE(jsonSyntaxOk("{\"a\": {\"a\": 1}}"));
    // 65 nested arrays: depth 64 below the top, the parser's limit.
    EXPECT_TRUE(jsonSyntaxOk(std::string(65, '[') + std::string(65, ']')));
}

TEST(Json, SyntaxCheckerRejectsMalformedDocuments)
{
    EXPECT_FALSE(jsonSyntaxOk(""));
    EXPECT_FALSE(jsonSyntaxOk("{"));
    EXPECT_FALSE(jsonSyntaxOk("{\"a\": 1,}"));
    EXPECT_FALSE(jsonSyntaxOk("[1, 2") );
    EXPECT_FALSE(jsonSyntaxOk("{\"a\" 1}"));
    EXPECT_FALSE(jsonSyntaxOk("{} trailing"));
    EXPECT_FALSE(jsonSyntaxOk("01"));
    EXPECT_FALSE(jsonSyntaxOk("+1"));
    EXPECT_FALSE(jsonSyntaxOk("\"unterminated"));
    EXPECT_FALSE(jsonSyntaxOk("{'a': 1}"));
    EXPECT_FALSE(jsonSyntaxOk("nul"));
    EXPECT_FALSE(jsonSyntaxOk("-"));
    EXPECT_FALSE(jsonSyntaxOk("1."));
    EXPECT_FALSE(jsonSyntaxOk("1e+"));
    // The check is jsonParse's verdict, hardening rules included.
    EXPECT_FALSE(jsonSyntaxOk("{\"a\": 1, \"a\": 2}"));
    EXPECT_FALSE(jsonSyntaxOk("\"\\ud83d\""));
    EXPECT_FALSE(jsonSyntaxOk(std::string(66, '[') + std::string(66, ']')));
}

// ------------------------------------------------------------- metrics

TEST(Metrics, CreateOrGetReturnsTheSameObject)
{
    MetricsRegistry reg;
    MetricCounter &a = reg.counter("cache.l1d.misses");
    MetricCounter &b = reg.counter("cache.l1d.misses");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.has("cache.l1d.misses"));
    EXPECT_FALSE(reg.has("cache.l1d"));
}

TEST(Metrics, ReferencesSurviveLaterRegistrations)
{
    // The hot-path contract: hold the reference, never re-look-up.
    MetricsRegistry reg;
    MetricCounter &early = reg.counter("a.first");
    for (int i = 0; i < 100; ++i)
        reg.counter("b.fill." + std::to_string(i));
    early.inc();
    EXPECT_EQ(reg.counter("a.first").value(), 1u);
}

TEST(Metrics, GaugeAndHistogramBasics)
{
    MetricsRegistry reg;
    MetricGauge &g = reg.gauge("explore.speedup");
    g.set(3.75);
    EXPECT_DOUBLE_EQ(reg.gauge("explore.speedup").value(), 3.75);

    MetricHistogram &h = reg.histogram("trace.burst");
    h.sample(1);
    h.sample(2);
    h.sample(1024);
    EXPECT_EQ(h.snapshot().count(), 3u);

    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "explore.speedup"); // sorted
    EXPECT_EQ(names[1], "trace.burst");
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations)
{
    MetricsRegistry reg;
    reg.counter("c").inc(7);
    reg.gauge("g").set(1.5);
    reg.histogram("h").sample(9);
    reg.resetAll();
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.counter("c").value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
    EXPECT_EQ(reg.histogram("h").snapshot().count(), 0u);
}

TEST(Metrics, JsonDumpMatchesGolden)
{
    MetricsRegistry reg;
    reg.counter("cache.l2.misses").inc(12);
    reg.counter("cache.l1.hits").inc(88);
    reg.gauge("explore.speedup").set(2.5);
    reg.histogram("lat").sample(1);
    reg.histogram("lat").sample(5);

    const std::string expect = "{\n"
                               "  \"cache.l1.hits\": 88,\n"
                               "  \"cache.l2.misses\": 12,\n"
                               "  \"explore.speedup\": 2.5,\n"
                               "  \"lat\": {\"count\": 2, "
                               "\"buckets\": [1, 0, 1]}\n"
                               "}";
    EXPECT_EQ(reg.toJson(), expect);
    EXPECT_TRUE(jsonSyntaxOk(reg.toJson()));
}

TEST(Metrics, TextDumpListsEveryMetric)
{
    MetricsRegistry reg;
    reg.counter("alpha").inc(5);
    reg.gauge("beta").set(0.25);
    std::string text = reg.toText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("5"), std::string::npos);
    EXPECT_NE(text.find("beta"), std::string::npos);
}

TEST(Metrics, EmptyRegistryDumpsAreValid)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_TRUE(jsonSyntaxOk(reg.toJson()));
}

TEST(Metrics, ConcurrentIncrementsFromWorkerTeamLoseNothing)
{
    // The core thread-safety claim, meant to run under TSan: many
    // workers bumping one counter concurrently lose no increments.
    setParallelWorkerCount(4);
    MetricsRegistry reg;
    MetricCounter &c = reg.counter("concurrent.hits");
    MetricHistogram &h = reg.histogram("concurrent.sizes");
    constexpr std::size_t n = 20000;
    parallelFor(n, parallelWorkerCount(), [&](std::size_t i) {
        c.inc();
        if (i % 100 == 0)
            h.sample(i);
    });
    setParallelWorkerCount(0);
    EXPECT_EQ(c.value(), n);
    EXPECT_EQ(h.snapshot().count(), n / 100);
}

TEST(Metrics, ConcurrentRegistrationYieldsOneObjectPerName)
{
    setParallelWorkerCount(4);
    MetricsRegistry reg;
    std::atomic<MetricCounter *> seen{nullptr};
    std::atomic<int> mismatches{0};
    parallelFor(1000, parallelWorkerCount(), [&](std::size_t) {
        MetricCounter &c = reg.counter("race.shared");
        c.inc();
        MetricCounter *expected = nullptr;
        if (!seen.compare_exchange_strong(expected, &c) &&
            expected != &c)
            mismatches.fetch_add(1);
    });
    setParallelWorkerCount(0);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(reg.counter("race.shared").value(), 1000u);
}

TEST(Metrics, GlobalRegistryHasLibraryInstrumentation)
{
    // The library registers its bundles lazily on first use; force
    // one use and check the namespaces exist.
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    SystemAssumptions a;
    ASSERT_FALSE(ex.sweep(Benchmark::Gcc1, a, true, false).empty());
    MetricsRegistry &g = MetricsRegistry::global();
    EXPECT_TRUE(g.has("explore.points.priced"));
    EXPECT_TRUE(g.has("cache.simulations"));
    EXPECT_TRUE(g.has("trace.synthetic.records"));
    EXPECT_GE(g.counter("cache.simulations").value(), 1u);
    EXPECT_TRUE(jsonSyntaxOk(g.toJson()));
}

// ------------------------------------------------------------ profiler

TEST(Profiler, DisabledTimersRecordNothing)
{
    Profiler p;
    ASSERT_FALSE(p.enabled());
    {
        ScopedTimer t(phase::kTraceLoad, p);
    }
    EXPECT_TRUE(p.snapshot().empty());
}

TEST(Profiler, EnabledTimersAggregateAcrossCalls)
{
    Profiler p;
    p.setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        ScopedTimer t(phase::kSimBatch, p);
    }
    {
        ScopedTimer t("custom.phase", p);
    }
    auto snap = p.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[phase::kSimBatch].calls, 3u);
    EXPECT_EQ(snap["custom.phase"].calls, 1u);
    EXPECT_GE(snap[phase::kSimBatch].totalNs, 0u);
    EXPECT_GE(snap[phase::kSimBatch].maxNs,
              snap[phase::kSimBatch].totalNs / 3);
}

TEST(Profiler, ArmingIsDecidedAtConstruction)
{
    // Flipping the switch mid-scope must not tear a half-armed timer.
    Profiler p;
    {
        ScopedTimer t(phase::kTraceLoad, p);
        p.setEnabled(true); // too late for this timer
    }
    EXPECT_TRUE(p.snapshot().empty());
    {
        ScopedTimer t(phase::kTraceLoad, p);
        p.setEnabled(false); // armed timers still record
    }
    EXPECT_EQ(p.snapshot()[phase::kTraceLoad].calls, 1u);
}

TEST(Profiler, RecordsMergeFromConcurrentWorkers)
{
    Profiler p;
    p.setEnabled(true);
    setParallelWorkerCount(4);
    parallelFor(200, parallelWorkerCount(), [&](std::size_t) {
        ScopedTimer t(phase::kModelTpi, p);
    });
    setParallelWorkerCount(0);
    EXPECT_EQ(p.snapshot()[phase::kModelTpi].calls, 200u);
}

TEST(Profiler, DumpsAreWellFormed)
{
    Profiler p;
    p.setEnabled(true);
    p.record(phase::kTraceLoad, 1500000); // 1.5 ms
    p.record(phase::kTraceLoad, 500000);
    std::string json = p.toJson();
    EXPECT_TRUE(jsonSyntaxOk(json));
    EXPECT_NE(json.find("\"trace.load\""), std::string::npos);
    EXPECT_NE(json.find("\"calls\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"total_ms\": 2"), std::string::npos);

    std::string text = p.toText();
    EXPECT_NE(text.find("trace.load"), std::string::npos);
    EXPECT_NE(text.find("calls"), std::string::npos);

    p.reset();
    EXPECT_TRUE(p.snapshot().empty());
    EXPECT_TRUE(p.enabled()); // reset drops data, not the switch
    EXPECT_TRUE(jsonSyntaxOk(p.toJson()));
}

// --------------------------------------------------------- trace events

TEST(TraceEvent, InactiveByDefault)
{
    EXPECT_EQ(TraceEventRecorder::active(), nullptr);
}

TEST(TraceEvent, WritesValidChromeTraceJson)
{
    TraceEventRecorder rec;
    auto t0 = TraceEventRecorder::Clock::now();
    auto t1 = t0 + std::chrono::microseconds(250);
    rec.complete("64:1:16/1024:4:32", "design-point", t0, t1, 0,
                 "{\"benchmark\": \"gcc1\", \"index\": 0}");
    rec.complete("128:2:32", "design-point", t0, t1, 1);
    EXPECT_EQ(rec.size(), 2u);

    std::ostringstream os;
    rec.write(os);
    std::string json = os.str();
    EXPECT_TRUE(jsonSyntaxOk(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    // One thread_name metadata event per distinct track.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
    EXPECT_NE(json.find("\"worker-1\""), std::string::npos);
    EXPECT_NE(json.find("\"benchmark\": \"gcc1\""), std::string::npos);
}

TEST(TraceEvent, ClampsInvertedIntervalsToZeroDuration)
{
    TraceEventRecorder rec;
    auto t0 = TraceEventRecorder::Clock::now();
    rec.complete("backwards", "t", t0 + std::chrono::microseconds(5),
                 t0, 0);
    std::ostringstream os;
    rec.write(os);
    EXPECT_TRUE(jsonSyntaxOk(os.str()));
    EXPECT_NE(os.str().find("\"dur\": 0"), std::string::npos);
}

TEST(TraceEvent, EscapesEventNames)
{
    TraceEventRecorder rec;
    auto t0 = TraceEventRecorder::Clock::now();
    rec.complete("quote\"back\\slash", "c", t0, t0, 0);
    std::ostringstream os;
    rec.write(os);
    EXPECT_TRUE(jsonSyntaxOk(os.str()));
}

TEST(TraceEvent, ConcurrentRecordingIsSafeAndComplete)
{
    TraceEventRecorder rec;
    setParallelWorkerCount(4);
    parallelFor(500, parallelWorkerCount(), [&](std::size_t i) {
        auto now = TraceEventRecorder::Clock::now();
        rec.complete("slice" + std::to_string(i), "t", now, now,
                     parallelWorkerId());
    });
    setParallelWorkerCount(0);
    EXPECT_EQ(rec.size(), 500u);
    std::ostringstream os;
    rec.write(os);
    EXPECT_TRUE(jsonSyntaxOk(os.str()));
}

// ------------------------------------------------------------ progress

TEST(Progress, FinalUpdateAlwaysFiresWithDoneEqualTotal)
{
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    std::atomic<std::size_t> fires{0};
    std::atomic<std::size_t> last_done{0}, last_total{0};
    ex.setProgressCallback(
        [&](const SweepProgress &p) {
            fires.fetch_add(1);
            last_done.store(p.done);
            last_total.store(p.total);
            EXPECT_LE(p.done, p.total);
            EXPECT_GE(p.elapsedSeconds, 0.0);
            EXPECT_GE(p.etaSeconds, 0.0);
        },
        /*min_interval_seconds=*/0.0);
    SystemAssumptions a;
    auto points = ex.sweep(Benchmark::Gcc1, a, true, false);
    EXPECT_FALSE(points.empty());
    EXPECT_GE(fires.load(), 1u);
    EXPECT_EQ(last_done.load(), points.size());
    EXPECT_EQ(last_total.load(), points.size());
}

TEST(Progress, UninstalledCallbackIsQuiet)
{
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    std::atomic<std::size_t> fires{0};
    ex.setProgressCallback(
        [&](const SweepProgress &) { fires.fetch_add(1); }, 0.0);
    ex.setProgressCallback(nullptr);
    SystemAssumptions a;
    ex.sweep(Benchmark::Gcc1, a, true, false);
    EXPECT_EQ(fires.load(), 0u);
}

TEST(Progress, SweepSlicesLandOnTheActiveRecorder)
{
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    TraceEventRecorder rec;
    TraceEventRecorder::setActive(&rec);
    SystemAssumptions a;
    auto points = ex.sweep(Benchmark::Gcc1, a, true, false);
    TraceEventRecorder::setActive(nullptr);
    // One design-point slice per point, plus at least one sim-batch
    // slice from the batched simulation underneath.
    EXPECT_GT(rec.size(), points.size());
    std::ostringstream os;
    rec.write(os);
    std::string json = os.str();
    EXPECT_TRUE(jsonSyntaxOk(json));
    std::size_t design_points = 0;
    const std::string needle = "\"cat\": \"design-point\"";
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
        ++design_points;
    EXPECT_EQ(design_points, points.size());
    EXPECT_NE(json.find("\"cat\": \"sim-batch\""), std::string::npos);
}

// ------------------------------------------------------ reference sweep

TEST(ReferenceSweep, CountersAndPhaseCallsArePinned)
{
    // The reference sweep: every workload over the full design space
    // at 1 M refs per trace. One worker thread fixes the sweep plan
    // (one bin, so one batch group, per workload) and the timing
    // memo's hit/miss split, so every count below is exact. A counter that
    // stops ticking, ticks twice, or a phase that disappears shows
    // up here as a diff.
    setParallelWorkerCount(1);
    MetricsRegistry &m = MetricsRegistry::global();
    m.resetAll();
    Profiler &prof = Profiler::global();
    prof.reset();
    const bool wasEnabled = prof.enabled();
    prof.setEnabled(true);

    MissRateEvaluator ev(1000000);
    Explorer ex(ev);
    SystemAssumptions a;
    FailureReport report;
    std::size_t points = 0;
    for (Benchmark b : Workloads::all())
        points += ex.sweep(b, a, true, true, &report).size();
    prof.setEnabled(wasEnabled);
    setParallelWorkerCount(0);

    EXPECT_EQ(Workloads::all().size(), 7u);
    EXPECT_EQ(points, 315u);
    EXPECT_TRUE(report.empty());

    const std::map<std::string, std::uint64_t> counters = {
        {"cache.l1.hits", 255593796},
        {"cache.l1d.misses", 16588646},
        {"cache.l1i.misses", 11317558},
        {"cache.l2.exclusive_swaps", 0},
        {"cache.l2.hits", 12660599},
        {"cache.l2.misses", 15245605},
        {"cache.offchip.writebacks", 5918179},
        {"cache.refs.data", 73797750},
        {"cache.refs.instr", 209702250},
        {"cache.simulations", 315},
        {"explore.batch.groups", 7},
        {"explore.batch.lanes", 315},
        {"explore.missrate_cache.hits", 0},
        {"explore.missrate_cache.misses", 315},
        {"explore.points.failed", 0},
        {"explore.points.priced", 315},
        {"explore.sweeps", 7},
        {"explore.timing_cache.hits", 1117},
        {"explore.timing_cache.misses", 17},
        {"trace.synthetic.generated", 7},
        {"trace.synthetic.records", 7000000},
    };
    for (const auto &[name, value] : counters)
        EXPECT_EQ(m.counter(name).value(), value) << name;

    const std::map<std::string, std::uint64_t> calls = {
        {phase::kModelArea, 315}, {phase::kModelTiming, 17},
        {phase::kModelTpi, 315},  {phase::kSimBatch, 7},
        {phase::kTraceLoad, 7},
    };
    const auto phases = prof.snapshot();
    EXPECT_EQ(phases.size(), calls.size());
    for (const auto &[name, n] : calls) {
        auto it = phases.find(name);
        ASSERT_NE(it, phases.end()) << name;
        EXPECT_EQ(it->second.calls, n) << name;
    }
}

TEST(ReferenceSweep, FourWorkerPlanCountsArePinned)
{
    // The same sweep at four workers: every workload plans four bins
    // of whole L1 groups, each one trace pass. Only race-free counts
    // are pinned; which worker misses the timing memo first is not.
    setParallelWorkerCount(4);
    MetricsRegistry &m = MetricsRegistry::global();
    m.resetAll();
    Profiler &prof = Profiler::global();
    prof.reset();
    const bool wasEnabled = prof.enabled();
    prof.setEnabled(true);

    MissRateEvaluator ev(1000000);
    Explorer ex(ev);
    SystemAssumptions a;
    FailureReport report;
    std::size_t points = 0;
    for (Benchmark b : Workloads::all())
        points += ex.sweep(b, a, true, true, &report).size();
    prof.setEnabled(wasEnabled);
    setParallelWorkerCount(0);

    EXPECT_EQ(points, 315u);
    EXPECT_TRUE(report.empty());
    EXPECT_EQ(m.counter("explore.batch.groups").value(), 28u);
    EXPECT_EQ(m.counter("explore.batch.lanes").value(), 315u);
    const auto phases = prof.snapshot();
    auto it = phases.find(phase::kSimBatch);
    ASSERT_NE(it, phases.end());
    EXPECT_EQ(it->second.calls, 28u);
}

// ------------------------------------------------------------ manifest

TEST(Manifest, JsonCarriesSchemaAndEmbeddedDumps)
{
    const char *argv[] = {"/path/to/design_explorer", "--refs=1000",
                          "--progress"};
    RunManifest m = RunManifest::fromCommandLine(3, argv);
    m.workload = "gcc1";
    m.traceRefs = 1000;
    m.pointsPriced = 42;
    m.failures = 1;
    m.wallSeconds = 0.5;

    EXPECT_EQ(m.tool, "design_explorer");
    EXPECT_EQ(m.commandLine,
              "/path/to/design_explorer --refs=1000 --progress");
    EXPECT_GE(m.threads, 1u);

    std::string json = m.toJson();
    EXPECT_TRUE(jsonSyntaxOk(json));
    for (const char *key :
         {"\"schema\": \"tlc-run-manifest-v1\"", "\"tool\"",
          "\"command\"", "\"workload\"", "\"trace_refs\"",
          "\"threads\"", "\"points_priced\"", "\"failures\"",
          "\"wall_seconds\"", "\"metrics\"", "\"phases\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

// Every file writer flushes before it checks the stream: /dev/full
// accepts the open and every buffered write, and fails only when the
// buffered tail reaches it. A small payload fits in the ofstream's
// buffer, so a writer that checks before flushing reports OK.
TEST(FileWriters, ReportAWriteErrorOnTheBufferedTail)
{
    if (!std::ifstream("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    const std::string full = "/dev/full";

    TraceBuffer trace;
    for (std::uint32_t i = 0; i < 100; ++i)
        trace.append(0x400000 + 4 * i, RefType::Instr);
    for (bool compressed : {true, false}) {
        EXPECT_EQ(saveTraceFile(full, trace, compressed).code(),
                  StatusCode::IoError)
            << "compressed=" << compressed;
    }

    TraceEventRecorder rec;
    auto t0 = TraceEventRecorder::Clock::now();
    rec.complete("point", "design-point", t0, t0, 0);
    EXPECT_EQ(rec.writeFile(full).code(), StatusCode::IoError);

    const char *argv[] = {"tool"};
    EXPECT_EQ(RunManifest::fromCommandLine(1, argv).writeFile(full).code(),
              StatusCode::IoError);

    EXPECT_EQ(writeMetricsFile(full).code(), StatusCode::IoError);
}
