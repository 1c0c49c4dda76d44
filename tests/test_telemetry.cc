/**
 * @file
 * Cross-process telemetry (core/shard_runner.hh frame tags 3-6 +
 * util/flight_recorder.hh).
 *
 * The contract under test:
 *
 *  - a supervised sweep's aggregated metric rollups (cache.*,
 *    explore.*) and failure report equal the in-process engine's
 *    exactly, on a clean grid and on one with an invalid config —
 *    worker deltas stream back losslessly and merge once;
 *  - every worker attempt also lands under its own worker.<id>.*
 *    namespace;
 *  - worker profiler phase stats merge into the parent profiler;
 *  - on an injected crash or hang, the FailureReport quarantine
 *    entry carries the flight recorder's last-known state: the
 *    poisoned design point's label and the phase it died in;
 *  - the merged multi-process trace export parses as strict JSON
 *    and names one process track per worker attempt;
 *  - the flight-recorder payload codec round-trips, and the note
 *    ring keeps the newest entries when it wraps;
 *  - supervisorTimelinesJson renders strict JSON with one entry per
 *    resolved (sub-)shard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "core/shard_runner.hh"
#include "trace/io.hh"
#include "trace/workload.hh"
#include "util/flight_recorder.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/profiler.hh"
#include "util/trace_event.hh"

#include "reference_grid.hh"

using namespace tlc;

namespace {

constexpr std::uint64_t kRefs = 50000;

SupervisorOptions
testOptions()
{
    SupervisorOptions o;
    o.pointsPerShard = 32;
    o.watchdog.timeoutSeconds = 20.0;
    o.watchdog.killGraceSeconds = 0.2;
    o.retry.maxRetries = 1;
    o.retry.backoffBaseSeconds = 0.001;
    o.retry.backoffMaxSeconds = 0.01;
    return o;
}

/** Counters under the compared namespaces: the simulation- and
 *  sweep-level counts that must be identical however the sweep
 *  executed. trace.* is left out (trace acquisition, which
 *  WorkersLoadNoTrace checks on its own), worker.* because only the
 *  supervised run has per-worker namespaces, supervisor.* because
 *  the in-process engine never supervises. */
std::map<std::string, std::uint64_t>
comparableCounters()
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] :
         MetricsRegistry::global().counterValues()) {
        if (name.rfind("cache.", 0) == 0 ||
            name.rfind("explore.", 0) == 0)
            out[name] = value;
    }
    return out;
}

struct RunOutput
{
    std::vector<DesignPoint> points;
    std::vector<SweepFailure> failures;
    SupervisionStats stats;
    std::vector<ShardTimeline> timeline;
};

RunOutput
runInProcess(const std::vector<SystemConfig> &configs)
{
    EvaluatorOptions opts;
    opts.traceRefs = kRefs;
    MissRateEvaluator ev(std::move(opts));
    Explorer ex(ev);
    FailureReport report;
    RunOutput r;
    r.points = ex.evaluateAll(Benchmark::Gcc1, configs, &report);
    r.failures = report.failures();
    return r;
}

RunOutput
runSupervised(const std::vector<SystemConfig> &configs,
              const SupervisorOptions &opts,
              const std::string &trace_file = "")
{
    EvaluatorOptions evopts;
    evopts.traceRefs = kRefs;
    if (!trace_file.empty())
        evopts.traceFiles[Benchmark::Gcc1] = trace_file;
    MissRateEvaluator ev(std::move(evopts));
    Explorer ex(ev);
    FailureReport report;
    RunOutput r;
    SupervisedSweep ss = supervisedEvaluateAll(ex, Benchmark::Gcc1,
                                               configs, &report, opts);
    r.points = std::move(ss.points);
    r.stats = ss.stats;
    r.timeline = std::move(ss.timeline);
    r.failures = report.failures();
    return r;
}

ShardFault
fault(ShardFault::Kind kind, std::uint32_t at, int times)
{
    ShardFault f;
    f.kind = kind;
    f.atIndex = at;
    f.times = times;
    return f;
}

} // namespace

// ---------------------------------------------------------------
// Metrics rollup parity
// ---------------------------------------------------------------

TEST(Telemetry, SupervisedRollupsEqualInProcessCounters)
{
    // The clean grid, and the grid plus one invalid configuration
    // (a non-power-of-two L1) so the failure path of the shared
    // collection step is compared too.
    std::vector<SystemConfig> grid = referenceGrid();
    std::vector<SystemConfig> salted = grid;
    SystemConfig bad;
    bad.l1Bytes = 3000;
    bad.l2Bytes = 0;
    salted.push_back(bad);

    for (const auto *configs : {&grid, &salted}) {
        SCOPED_TRACE(configs == &grid ? "clean grid" : "salted grid");
        // One worker thread in process plans the whole list into one
        // trace pass; the supervised sweep plans it into 32-point
        // shards, one worker process and one batch each, whose counter
        // deltas the supervisor must add up. Only the batch count
        // tells the two executions apart.
        setParallelWorkerCount(1);
        MetricsRegistry::global().resetAll();
        RunOutput inproc = runInProcess(*configs);
        auto reference = comparableCounters();

        MetricsRegistry::global().resetAll();
        RunOutput sup = runSupervised(*configs, testOptions());
        auto rollup = comparableCounters();
        setParallelWorkerCount(0);

        ASSERT_EQ(inproc.points.size(), sup.points.size());
        // Two shards of valid configs on both grids: the invalid
        // config fails check() in the parent and needs no worker.
        EXPECT_EQ(sup.stats.shards, 2u);
        EXPECT_EQ(reference["explore.batch.groups"], 1u);
        EXPECT_EQ(rollup["explore.batch.groups"], 2u);
        reference.erase("explore.batch.groups");
        rollup.erase("explore.batch.groups");
        // Every other cache.* and explore.* counter the sweep
        // registers; the salted grid adds explore.failures.recorded.
        EXPECT_EQ(reference.size(), configs == &grid ? 18u : 19u);
        EXPECT_EQ(reference, rollup);
        ASSERT_EQ(inproc.failures.size(), configs == &grid ? 0u : 1u);
        const auto failed = rollup.find("explore.points.failed");
        ASSERT_NE(failed, rollup.end());
        EXPECT_EQ(failed->second, inproc.failures.size());
        ASSERT_EQ(inproc.failures.size(), sup.failures.size());
        for (std::size_t i = 0; i < inproc.failures.size(); ++i) {
            EXPECT_EQ(inproc.failures[i].subject, sup.failures[i].subject);
            EXPECT_EQ(inproc.failures[i].status.code(),
                      sup.failures[i].status.code());
            EXPECT_EQ(inproc.failures[i].status.message(),
                      sup.failures[i].status.message());
        }
    }
}

TEST(Telemetry, WorkerNamespacesAndPhaseStatsMerge)
{
    // One worker at a time, so the pinned counts below are one bin's.
    WorkerCountGuard guard(1);
    const auto grid = referenceGrid();
    MetricsRegistry::global().resetAll();
    Profiler::global().reset();
    const bool wasEnabled = Profiler::global().enabled();
    Profiler::global().setEnabled(true);

    RunOutput sup = runSupervised(grid, testOptions());
    Profiler::global().setEnabled(wasEnabled);

    // 64 points / 32 per shard = 2 clean worker attempts, each
    // streaming one metrics, one phases and one flight frame.
    EXPECT_EQ(sup.stats.shards, 2u);
    EXPECT_EQ(sup.stats.attempts, 2u);
    EXPECT_EQ(sup.stats.metricFrames, 2u);
    EXPECT_EQ(sup.stats.phaseFrames, 2u);
    EXPECT_EQ(sup.stats.flightFrames, 2u);

    // Every attempt put its simulation counts under worker.<id>.*:
    // 11 counters for each of this sweep's two workers (the memo is
    // the parent's, so its misses are not among them, and so is the
    // trace, so trace.synthetic.* is not either). (Worker ids
    // are unique per process, so earlier tests' namespaces, which
    // resetAll keeps registered, are not counted.)
    std::vector<std::string> prefixes;
    for (const ShardTimeline &shard : sup.timeline)
        for (const ShardAttempt &attempt : shard.attempts)
            prefixes.push_back("worker." +
                               std::to_string(attempt.workerId) + ".");
    ASSERT_EQ(prefixes.size(), 2u);
    std::uint64_t namespaced = 0;
    bool sawWorkerCacheHits = false;
    for (const auto &[name, value] :
         MetricsRegistry::global().counterValues()) {
        for (const std::string &prefix : prefixes) {
            if (name.rfind(prefix, 0) != 0)
                continue;
            ++namespaced;
            if (name == prefix + "cache.l1.hits" && value > 0)
                sawWorkerCacheHits = true;
        }
    }
    EXPECT_EQ(namespaced, 22u);
    EXPECT_TRUE(sawWorkerCacheHits);

    // The workers' sim.batch time merged into the parent profiler.
    const auto phases = Profiler::global().snapshot();
    auto it = phases.find(phase::kSimBatch);
    ASSERT_NE(it, phases.end());
    EXPECT_GE(it->second.calls, 2u);
    EXPECT_GT(it->second.totalNs, 0u);
    // And the parent's own supervision phase is still there.
    EXPECT_NE(phases.find(phase::kSupervisorShard), phases.end());
}

TEST(Telemetry, WorkersLoadNoTrace)
{
    // The parent loads the trace file once before its first fork and
    // every worker simulates the copy it inherited: no worker
    // namespace counts a trace load, so the rolled-up
    // trace.load.files delta from workers is 0 and the global count
    // is the parent's one load, at any width.
    const std::string path = ::testing::TempDir() + "tlc_telemetry.trc";
    ASSERT_TRUE(saveTraceFile(path, Workloads::generate(Benchmark::Gcc1,
                                                        kRefs))
                    .ok());
    const auto grid = referenceGrid();
    auto &reg = MetricsRegistry::global();
    for (unsigned width : {1u, 4u}) {
        SCOPED_TRACE("width " + std::to_string(width));
        WorkerCountGuard guard(width);
        const std::uint64_t loads0 = reg.counter("trace.load.files").value();
        RunOutput sup = runSupervised(grid, testOptions(), path);
        EXPECT_EQ(sup.points.size(), grid.size());
        EXPECT_GE(sup.stats.attempts, width);
        EXPECT_EQ(reg.counter("trace.load.files").value() - loads0, 1u);
        std::vector<std::string> workerLoads;
        for (const ShardTimeline &shard : sup.timeline)
            for (const ShardAttempt &attempt : shard.attempts)
                workerLoads.push_back("worker." +
                                      std::to_string(attempt.workerId) +
                                      ".trace.load.files");
        for (const auto &[name, value] : reg.counterValues()) {
            if (std::find(workerLoads.begin(), workerLoads.end(), name) !=
                workerLoads.end()) {
                EXPECT_EQ(value, 0u) << name;
            }
        }
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Flight-recorder context in the failure report
// ---------------------------------------------------------------

TEST(Telemetry, CrashQuarantineCarriesFlightContext)
{
    const auto grid = referenceGrid();
    SupervisorOptions opts = testOptions();
    opts.pointsPerShard = 4;
    opts.retry.maxRetries = 0;
    opts.faults.faults.push_back(
        fault(ShardFault::Kind::Crash, 12, -1));

    RunOutput r = runSupervised(grid, opts);
    ASSERT_EQ(r.failures.size(), 1u);
    const SweepFailure &f = r.failures.front();
    EXPECT_EQ(f.subject, grid[12].label());
    EXPECT_EQ(f.status.code(), StatusCode::WorkerCrash);
    EXPECT_NE(f.status.message().find("quarantined"),
              std::string::npos);
    // The emergency signal path flushed the ring: the entry names
    // the exact design point and the phase the worker died in.
    EXPECT_NE(f.status.message().find("flight recorder"),
              std::string::npos);
    EXPECT_NE(f.status.message().find(grid[12].label()),
              std::string::npos);
    EXPECT_NE(f.status.message().find("report"), std::string::npos);

    // The timeline saw the flight frame too.
    bool sawSignalFlight = false;
    for (const auto &tl : r.timeline)
        for (const auto &at : tl.attempts)
            if (at.flightReason == "signal" &&
                at.flightPoint == grid[12].label())
                sawSignalFlight = true;
    EXPECT_TRUE(sawSignalFlight);
}

TEST(Telemetry, HangQuarantineCarriesFlightContext)
{
    const auto grid = referenceGrid();
    SupervisorOptions opts = testOptions();
    opts.pointsPerShard = 4;
    opts.retry.maxRetries = 0;
    opts.watchdog.timeoutSeconds = 2.0;
    opts.faults.faults.push_back(fault(ShardFault::Kind::Hang, 12, -1));

    RunOutput r = runSupervised(grid, opts);
    ASSERT_EQ(r.failures.size(), 1u);
    const SweepFailure &f = r.failures.front();
    EXPECT_EQ(f.subject, grid[12].label());
    EXPECT_EQ(f.status.code(), StatusCode::WorkerTimeout);
    EXPECT_NE(f.status.message().find("quarantined"),
              std::string::npos);
    EXPECT_NE(f.status.message().find("flight recorder"),
              std::string::npos);
    EXPECT_NE(f.status.message().find(grid[12].label()),
              std::string::npos);
}

TEST(Telemetry, QuarantineMessageNamesTheWorkerOnce)
{
    // The one wording of a quarantine entry (docs/observability.md):
    // the verdict, the worker's outcome, then its flight context.
    const auto grid = referenceGrid();
    SupervisorOptions opts = testOptions();
    opts.pointsPerShard = 4;
    opts.retry.maxRetries = 0;
    opts.faults.faults.push_back(
        fault(ShardFault::Kind::Crash, 12, -1));

    RunOutput r = runSupervised(grid, opts);
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_EQ(r.failures.front().status.message(),
              "point quarantined after 1 attempt(s): worker killed by "
              "signal " +
                  std::to_string(SIGSEGV) + " (" + strsignal(SIGSEGV) +
                  "); flight recorder (signal): last point '" +
                  grid[12].label() + "' in phase 'report'");
}

// ---------------------------------------------------------------
// Merged trace export
// ---------------------------------------------------------------

TEST(Telemetry, MergedTraceParsesStrictlyWithWorkerTracks)
{
    // One bin: two 32-point shards, so the track names are known.
    WorkerCountGuard guard(1);
    const auto grid = referenceGrid();
    TraceEventRecorder rec;
    TraceEventRecorder::setActive(&rec);
    RunOutput sup = runSupervised(grid, testOptions());
    TraceEventRecorder::setActive(nullptr);

    EXPECT_EQ(sup.stats.eventFrames, 2u);

    std::ostringstream os;
    rec.write(os);
    const std::string doc = os.str();
    EXPECT_TRUE(jsonSyntaxOk(doc));
    // One named process track per worker attempt, plus the
    // supervisor's own shard slices.
    // The worker serial is process-global (it keeps counting across
    // tests in this binary), so match the stable part of the track
    // name rather than a specific id.
    EXPECT_NE(doc.find("process_name"), std::string::npos);
    EXPECT_NE(doc.find(": shard [0..32) attempt 1"), std::string::npos)
        << "expected a per-attempt process track name";
    EXPECT_NE(doc.find("\"supervisor\""), std::string::npos);
    EXPECT_NE(doc.find("sim.batch"), std::string::npos);
}

// ---------------------------------------------------------------
// Flight-recorder codec
// ---------------------------------------------------------------

TEST(Telemetry, FlightPayloadRoundTrips)
{
    FlightRecorder &fr = FlightRecorder::global();
    fr.reset();
    fr.setPoint("8:64");
    fr.setPhase("sim.batch");
    fr.note("first %d", 1);
    fr.note("second %d", 2);

    char buf[4096];
    const std::size_t n =
        fr.serializePayload(buf, sizeof buf, 6,
                            FlightRecorder::kReasonSignal, 11);
    ASSERT_GT(n, 0u);

    FlightInfo info;
    ASSERT_TRUE(FlightRecorder::decodePayload(
        std::string_view(buf, n), 6, info));
    EXPECT_EQ(info.reason, FlightRecorder::kReasonSignal);
    EXPECT_EQ(info.signo, 11);
    EXPECT_EQ(info.point, "8:64");
    EXPECT_EQ(info.phase, "sim.batch");
    ASSERT_EQ(info.notes.size(), 2u);
    EXPECT_EQ(info.notes[0], "first 1");
    EXPECT_EQ(info.notes[1], "second 2");

    // Wrong tag and truncated payloads are rejected.
    EXPECT_FALSE(FlightRecorder::decodePayload(
        std::string_view(buf, n), 5, info));
    EXPECT_FALSE(FlightRecorder::decodePayload(
        std::string_view(buf, n - 1), 6, info));
    fr.reset();
}

TEST(Telemetry, FlightRingKeepsNewestWhenWrapping)
{
    FlightRecorder &fr = FlightRecorder::global();
    fr.reset();
    const int total = static_cast<int>(FlightRecorder::kRingEntries) + 5;
    for (int i = 0; i < total; ++i)
        fr.note("note %d", i);

    char buf[4096];
    const std::size_t n = fr.serializePayload(
        buf, sizeof buf, 6, FlightRecorder::kReasonClean, 0);
    ASSERT_GT(n, 0u);
    FlightInfo info;
    ASSERT_TRUE(FlightRecorder::decodePayload(
        std::string_view(buf, n), 6, info));
    ASSERT_EQ(info.notes.size(), FlightRecorder::kRingEntries);
    // Oldest surviving note first, newest last.
    EXPECT_EQ(info.notes.front(), "note 5");
    EXPECT_EQ(info.notes.back(),
              "note " + std::to_string(total - 1));
    fr.reset();
}

// ---------------------------------------------------------------
// Timelines
// ---------------------------------------------------------------

TEST(Telemetry, TimelineRecordsAttemptsAndRendersStrictJson)
{
    // One bin: four 16-point shards in index order.
    WorkerCountGuard guard(1);
    const auto grid = referenceGrid();
    SupervisorOptions opts = testOptions();
    opts.pointsPerShard = 16;
    // A transient crash: first attempt dies at point 12, the retry
    // succeeds, so one shard shows two attempts.
    opts.faults.faults.push_back(fault(ShardFault::Kind::Crash, 12, 1));

    RunOutput r = runSupervised(grid, opts);
    EXPECT_TRUE(r.failures.empty());
    ASSERT_EQ(r.timeline.size(), 4u); // 64 points / 16 per shard
    bool sawRetry = false;
    for (const auto &tl : r.timeline) {
        EXPECT_EQ(tl.resolution, "ok");
        ASSERT_FALSE(tl.attempts.empty());
        if (tl.attempts.size() == 2) {
            sawRetry = true;
            EXPECT_EQ(tl.firstIndex, 0u);
            EXPECT_EQ(tl.attempts[0].outcome, "crash");
            EXPECT_GT(tl.attempts[0].backoffSeconds, 0.0);
            EXPECT_EQ(tl.attempts[1].outcome, "ok");
            // The crashed attempt still delivered everything before
            // the poisoned point.
            EXPECT_EQ(tl.attempts[0].resultsDelivered, 12u);
            EXPECT_EQ(tl.attempts[1].resultsDelivered, 4u);
        }
    }
    EXPECT_TRUE(sawRetry);

    const std::string json =
        supervisorTimelinesJson(r.stats, r.timeline);
    EXPECT_TRUE(jsonSyntaxOk(json));
    EXPECT_NE(json.find("\"shards\""), std::string::npos);
    EXPECT_NE(json.find("\"resolution\": \"ok\""), std::string::npos);
}
