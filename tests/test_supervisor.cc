/**
 * @file
 * The fault-isolated sweep supervisor (util/supervisor.hh +
 * core/shard_runner.hh).
 *
 * The contract under test is graceful degradation with byte-exact
 * accounting:
 *
 *  - a supervised sweep with NO faults is byte-identical to the
 *    in-process engine — points, failure report, envelope;
 *  - an injected worker crash/hang/torn stream at a known design
 *    point completes the sweep, quarantines EXACTLY that point, and
 *    leaves every other point byte-identical;
 *  - transient faults (times=1) are absorbed by the retry loop with
 *    zero effect on the output;
 *  - FailureReport aggregation across retries and bisection loses
 *    nothing and duplicates nothing, and keeps the in-process
 *    input-index ordering;
 *  - a SIGKILLed *supervisor* (and its orphaned workers) resumed
 *    against the same result store reproduces the uninterrupted
 *    output byte-for-byte;
 *  - out-of-range isolation flags are fatal, not silently wrapped;
 *  - the result store surfaces the ENOSPC class as
 *    ResourceExhausted at write time and repairs the torn tail
 *    immediately, so the file stays intact for the next opener.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/explorer.hh"
#include "core/shard_runner.hh"
#include "core/sweep_cache.hh"
#include "util/crc32.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/result_store.hh"
#include "util/supervisor.hh"
#include "util/wire.hh"

#include "reference_grid.hh"

using namespace tlc;

namespace {

/// Short traces: a supervised differential run simulates the grid
/// several times over in subprocesses, and the properties under
/// test are structural, not statistical.
constexpr std::uint64_t kRefs = 50000;

std::string
tempPath(const std::string &name)
{
    std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

struct SweepResult
{
    std::vector<DesignPoint> points;
    std::vector<SweepFailure> failures;
    SupervisionStats stats;
    std::vector<ShardTimeline> timeline;
};

/** Supervisor options tuned for tests: small shards so one grid
 *  spans several workers, fast watchdog, near-zero backoff. */
SupervisorOptions
testOptions()
{
    SupervisorOptions o;
    o.pointsPerShard = 16;
    o.watchdog.timeoutSeconds = 20.0;
    o.watchdog.killGraceSeconds = 0.2;
    o.retry.maxRetries = 2;
    o.retry.backoffBaseSeconds = 0.001;
    o.retry.backoffMaxSeconds = 0.01;
    return o;
}

/** Evaluator options of the tests, with the result store at
 *  @p store_path attached ("" = none). */
EvaluatorOptions
evaluatorOptions(const std::string &store_path = "")
{
    EvaluatorOptions opts;
    opts.traceRefs = kRefs;
    if (!store_path.empty()) {
        opts.resultStore = std::make_shared<SweepCache>();
        EXPECT_TRUE(opts.resultStore->open(store_path).ok());
    }
    return opts;
}

/** In-process reference sweep on a fresh evaluator/explorer pair. */
SweepResult
runInProcess(const std::vector<SystemConfig> &configs,
             EvaluatorOptions evopts = evaluatorOptions())
{
    MissRateEvaluator ev(std::move(evopts));
    Explorer ex(ev);
    FailureReport report;
    SweepResult r;
    r.points = ex.evaluateAll(Benchmark::Gcc1, configs, &report);
    r.failures = report.failures();
    return r;
}

/** Supervised sweep on a fresh evaluator/explorer pair built from
 *  @p evopts (the parent's evaluator, store included). */
SweepResult
runSupervised(const std::vector<SystemConfig> &configs,
              const SupervisorOptions &opts,
              EvaluatorOptions evopts = evaluatorOptions())
{
    MissRateEvaluator ev(std::move(evopts));
    Explorer ex(ev);
    FailureReport report;
    SweepResult r;
    SupervisedSweep ss = supervisedEvaluateAll(ex, Benchmark::Gcc1,
                                               configs, &report, opts);
    r.points = std::move(ss.points);
    r.stats = ss.stats;
    r.timeline = std::move(ss.timeline);
    r.failures = report.failures();
    return r;
}

/** runSupervised with RLIMIT_NOFILE lowered to the lowest free
 *  descriptor, so every launch fails in pipe(); restored after. */
SweepResult
runSupervisedWithoutPipes(const std::vector<SystemConfig> &configs,
                          const SupervisorOptions &opts)
{
    struct rlimit saved;
    EXPECT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
    const int lowestFree = dup(0);
    EXPECT_GE(lowestFree, 0);
    close(lowestFree);
    struct rlimit none = saved;
    none.rlim_cur = static_cast<rlim_t>(lowestFree);
    EXPECT_EQ(setrlimit(RLIMIT_NOFILE, &none), 0);
    SweepResult r = runSupervised(configs, opts);
    EXPECT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
    return r;
}

/** The planned passes of @p configs at the current sweep width, bin
 *  after bin: the shards a clean supervised sweep launches, in the
 *  order its timeline lists them. */
std::vector<SweepPass>
plannedShards(const std::vector<SystemConfig> &configs,
              std::size_t points_per_shard)
{
    std::vector<SweepPass> out;
    for (SweepBin &bin :
         planSweep(configs, parallelWorkerCount(), points_per_shard))
        for (SweepPass &pass : bin.passes)
            out.push_back(std::move(pass));
    return out;
}

/** @p timeline lists @p passes in plan order, each bisected shard
 *  followed at once by its two halves (and theirs, depth first). */
void
expectPlanOrder(const std::vector<ShardTimeline> &timeline,
                const std::vector<SweepPass> &passes)
{
    std::size_t next = 0;
    std::size_t halvesOwed = 0;
    for (const ShardTimeline &tl : timeline) {
        if (halvesOwed == 0) {
            ASSERT_LT(next, passes.size());
            EXPECT_EQ(tl.firstIndex, passes[next].indices.front());
            EXPECT_EQ(tl.count, passes[next].indices.size());
            ++next;
        } else {
            --halvesOwed;
        }
        if (tl.resolution == "bisected")
            halvesOwed += 2;
    }
    EXPECT_EQ(next, passes.size());
    EXPECT_EQ(halvesOwed, 0u);
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
// util/supervisor.hh: the generic worker-supervision layer.
// ---------------------------------------------------------------

TEST(Supervisor, FramesRoundTripInOrder)
{
    std::vector<std::string> got;
    WorkerOutcome out = superviseWorker(
        [](int fd) {
            ASSERT_TRUE(writeFrame(fd, "alpha").ok());
            ASSERT_TRUE(writeFrame(fd, "").ok());
            ASSERT_TRUE(writeFrame(fd, std::string(70000, 'x')).ok());
        },
        WatchdogSpec{}, [&](std::string_view p) {
            got.emplace_back(p);
        });
    EXPECT_TRUE(out.ok()) << out.detail;
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], "alpha");
    EXPECT_EQ(got[1], "");
    EXPECT_EQ(got[2], std::string(70000, 'x'));
}

TEST(Supervisor, CrashIsClassifiedAndEarlierFramesSurvive)
{
    std::vector<std::string> got;
    WorkerOutcome out = superviseWorker(
        [](int fd) {
            (void)writeFrame(fd, "before-the-crash");
            raise(SIGSEGV);
        },
        WatchdogSpec{}, [&](std::string_view p) {
            got.emplace_back(p);
        });
    EXPECT_EQ(out.kind, WorkerOutcome::Kind::Crash);
    EXPECT_EQ(out.termSignal, SIGSEGV);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], "before-the-crash");
    Status s = out.toStatus("shard 0");
    EXPECT_EQ(s.code(), StatusCode::WorkerCrash);
    EXPECT_NE(s.message().find("shard 0"), std::string::npos);
}

TEST(Supervisor, HangHitsWatchdogDespiteIgnoredSigterm)
{
    WatchdogSpec wd;
    wd.timeoutSeconds = 0.2;
    wd.killGraceSeconds = 0.1;
    WorkerOutcome out = superviseWorker(
        [](int) {
            signal(SIGTERM, SIG_IGN);
            for (;;)
                pause();
        },
        wd, [](std::string_view) {});
    EXPECT_EQ(out.kind, WorkerOutcome::Kind::Timeout);
    EXPECT_EQ(out.toStatus("shard").code(), StatusCode::WorkerTimeout);
}

TEST(Supervisor, FloodingWorkerStillMeetsItsWatchdog)
{
    // A worker that ignores SIGTERM and keeps the pipe full (it
    // refills it while the slow on_frame sleeps) never lets a read
    // come back empty; the watchdog and the SIGKILL escalation must
    // fire anyway.
    std::string frame;
    const std::string payload(1000, 'f');
    putU32le(frame, static_cast<std::uint32_t>(payload.size()));
    putU32le(frame, crc32(payload.data(), payload.size()));
    frame += payload;
    WatchdogSpec wd;
    wd.timeoutSeconds = 0.2;
    wd.killGraceSeconds = 0.1;
    std::size_t frames = 0;
    const auto t0 = std::chrono::steady_clock::now();
    WorkerOutcome out = superviseWorker(
        [&frame](int fd) {
            signal(SIGTERM, SIG_IGN);
            for (;;) {
                if (::write(fd, frame.data(), frame.size()) < 0)
                    _exit(1);
            }
        },
        wd, [&](std::string_view) {
            ++frames;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_EQ(out.kind, WorkerOutcome::Kind::Timeout);
    EXPECT_GT(frames, 0u);
    EXPECT_LT(wall, 5.0);
}

TEST(Supervisor, PollTimeoutOfAPastDeadlineIsZero)
{
    using Clock = std::chrono::steady_clock;
    EXPECT_EQ(pollTimeoutMs(Clock::time_point::min()), 0);
    EXPECT_EQ(pollTimeoutMs(Clock::now() - std::chrono::seconds(1)), 0);
    EXPECT_EQ(pollTimeoutMs(Clock::time_point::max()), -1);
    const int ms = pollTimeoutMs(Clock::now() + std::chrono::seconds(1));
    EXPECT_GT(ms, 0);
    EXPECT_LE(ms, 1001);
}

TEST(Supervisor, TornTrailingFrameIsAProtocolError)
{
    WorkerOutcome out = superviseWorker(
        [](int fd) {
            // A header promising 64 payload bytes, then silence.
            const unsigned char torn[8] = {64, 0, 0, 0, 0xef, 0xbe,
                                           0xad, 0xde};
            (void)::write(fd, torn, sizeof torn);
        },
        WatchdogSpec{}, [](std::string_view) {});
    EXPECT_EQ(out.kind, WorkerOutcome::Kind::Protocol);
}

TEST(Supervisor, NonzeroExitIsClassified)
{
    WorkerOutcome out = superviseWorker([](int) { _exit(7); },
                                        WatchdogSpec{},
                                        [](std::string_view) {});
    EXPECT_EQ(out.kind, WorkerOutcome::Kind::Exit);
    EXPECT_EQ(out.exitStatus, 7);
}

TEST(Supervisor, BackoffIsDeterministicBoundedAndJittered)
{
    RetryPolicy p;
    p.backoffBaseSeconds = 0.05;
    p.backoffMaxSeconds = 2.0;
    for (int a = 0; a < 8; ++a) {
        double d1 = p.backoffSeconds(a, 17);
        double d2 = p.backoffSeconds(a, 17);
        EXPECT_EQ(d1, d2); // same (seed, key, attempt) => same wait
        EXPECT_GE(d1, 0.5 * p.backoffBaseSeconds);
        EXPECT_LE(d1, p.backoffMaxSeconds);
    }
    // Different shards desynchronize.
    EXPECT_NE(p.backoffSeconds(3, 17), p.backoffSeconds(3, 18));
}

// ---------------------------------------------------------------
// core/shard_runner.hh: supervised sweeps.
// ---------------------------------------------------------------

TEST(ShardRunner, CleanSupervisedSweepMatchesInProcess)
{
    // One worker, so the grid's 64 points are 4 shards of 16 (other
    // widths: ConcurrentShardsMatchInProcessAtEveryWidth).
    WorkerCountGuard guard(1);
    const auto grid = referenceGrid();
    SweepResult clean = runInProcess(grid);
    SweepResult sup = runSupervised(grid, testOptions());
    expectIdentical(clean, sup);
    EXPECT_EQ(sup.stats.quarantined, 0u);
    EXPECT_EQ(sup.stats.retries, 0u);
    EXPECT_EQ(sup.stats.shards, 4u);
}

TEST(ShardRunner, PermanentCrashQuarantinesExactlyThatPoint)
{
    // One worker at a time, so the pinned counts below are one bin's.
    WorkerCountGuard guard(1);
    const auto grid = referenceGrid();
    const std::uint32_t poisoned = 12;
    SweepResult clean = runInProcess(grid);

    SupervisorOptions opts = testOptions();
    opts.retry.maxRetries = 1; // keep the bisection cascade short
    opts.faults.faults.push_back(
        fault(ShardFault::Kind::Crash, poisoned, -1));
    const MetricCounter &failedPoints =
        MetricsRegistry::global().counter("explore.points.failed");
    const std::uint64_t failedBefore = failedPoints.value();
    SweepResult sup = runSupervised(grid, opts);

    // Exactly the poisoned point is missing; everything else is
    // byte-identical and in order.
    ASSERT_EQ(sup.points.size(), clean.points.size() - 1);
    std::size_t si = 0;
    for (std::size_t i = 0; i < clean.points.size(); ++i) {
        if (i == poisoned)
            continue;
        expectIdenticalPoint(clean.points[i], sup.points[si], i);
        ++si;
    }
    ASSERT_EQ(sup.failures.size(), 1u);
    EXPECT_EQ(sup.failures[0].subject, grid[poisoned].label());
    EXPECT_EQ(sup.failures[0].status.code(), StatusCode::WorkerCrash);
    EXPECT_NE(sup.failures[0].status.message().find("quarantined"),
              std::string::npos);
    // The recovery drill's accounting, pinned exactly: it depends
    // only on the grid, the shard size, the retry budget and the
    // poisoned index, never on the trace length.
    EXPECT_EQ(sup.points.size(), 63u);
    EXPECT_EQ(sup.stats.quarantined, 1u);
    EXPECT_EQ(sup.stats.attempts, 11u);
    EXPECT_EQ(sup.stats.crashes, 6u);
    EXPECT_EQ(sup.stats.shards, 8u);
    EXPECT_EQ(sup.stats.retries, 3u);
    EXPECT_EQ(sup.stats.bisections, 2u);
    // A quarantined point is a per-point failure like an invalid
    // config, so it counts in explore.points.failed.
    EXPECT_EQ(failedPoints.value() - failedBefore, 1u);
}

TEST(ShardRunner, TransientCrashIsAbsorbedByRetry)
{
    const auto grid = referenceGrid();
    SweepResult clean = runInProcess(grid);

    SupervisorOptions opts = testOptions();
    opts.faults.faults.push_back(
        fault(ShardFault::Kind::Crash, 12, /*times=*/1));
    SweepResult sup = runSupervised(grid, opts);

    expectIdentical(clean, sup);
    EXPECT_EQ(sup.stats.quarantined, 0u);
    EXPECT_EQ(sup.stats.crashes, 1u);
    EXPECT_EQ(sup.stats.retries, 1u);
    EXPECT_EQ(sup.stats.backoffWaits, 1u);
}

TEST(ShardRunner, TransientHangIsKilledAndRetried)
{
    const auto grid = referenceGrid();
    SweepResult clean = runInProcess(grid);

    SupervisorOptions opts = testOptions();
    opts.watchdog.timeoutSeconds = 0.3;
    opts.faults.faults.push_back(
        fault(ShardFault::Kind::Hang, 12, /*times=*/1));
    SweepResult sup = runSupervised(grid, opts);

    expectIdentical(clean, sup);
    EXPECT_EQ(sup.stats.timeouts, 1u);
    EXPECT_EQ(sup.stats.retries, 1u);
    EXPECT_EQ(sup.stats.quarantined, 0u);
}

TEST(ShardRunner, TornStreamKeepsDeliveredResultsAndRetriesTheRest)
{
    const auto grid = referenceGrid();
    SweepResult clean = runInProcess(grid);

    SupervisorOptions opts = testOptions();
    opts.faults.faults.push_back(
        fault(ShardFault::Kind::PartialWrite, 12, /*times=*/1));
    SweepResult sup = runSupervised(grid, opts);

    expectIdentical(clean, sup);
    // The partial attempt exited nonzero after tearing its stream;
    // results it did deliver were kept, the rest re-ran.
    EXPECT_EQ(sup.stats.exits, 1u);
    EXPECT_EQ(sup.stats.retries, 1u);
    EXPECT_EQ(sup.stats.quarantined, 0u);
}

TEST(ShardRunner, ReportAggregationAcrossRetriesAndBisection)
{
    // A grid salted with invalid configurations (a non-power-of-two
    // L1) surrounding a poisoned point: the supervised report must
    // keep the in-process entries — same subjects, same codes, same
    // input-index order — with exactly one quarantine entry
    // inserted at the poisoned point's position, however many
    // retries and bisections it took to isolate it.
    auto grid = referenceGrid();
    SystemConfig bad;
    bad.l1Bytes = 3000; // not a power of two: fails check()
    bad.l2Bytes = 0;
    grid.insert(grid.begin() + 5, bad);
    bad.l1Bytes = 5000; // distinct, so duplicates below mean bugs
    grid.insert(grid.begin() + 20, bad);
    const std::uint32_t poisoned = 13;

    SweepResult clean = runInProcess(grid);
    ASSERT_EQ(clean.failures.size(), 2u);

    SupervisorOptions opts = testOptions();
    opts.retry.maxRetries = 1;
    opts.faults.faults.push_back(
        fault(ShardFault::Kind::Crash, poisoned, -1));
    SweepResult sup = runSupervised(grid, opts);

    ASSERT_EQ(sup.failures.size(), clean.failures.size() + 1);
    std::size_t quarantineEntries = 0;
    std::vector<SweepFailure> rest;
    for (const auto &f : sup.failures) {
        if (f.status.code() == StatusCode::WorkerCrash) {
            ++quarantineEntries;
            EXPECT_EQ(f.subject, grid[poisoned].label());
        } else {
            rest.push_back(f);
        }
    }
    EXPECT_EQ(quarantineEntries, 1u);
    ASSERT_EQ(rest.size(), clean.failures.size());
    for (std::size_t i = 0; i < rest.size(); ++i) {
        EXPECT_EQ(rest[i].subject, clean.failures[i].subject);
        EXPECT_EQ(rest[i].status.code(), clean.failures[i].status.code());
        EXPECT_EQ(rest[i].status.message(),
                  clean.failures[i].status.message());
    }
    // The quarantine entry sits at the poisoned point's input
    // position: after the index-5 invalid config, before index 20's.
    EXPECT_EQ(sup.failures[1].subject, grid[poisoned].label());

    // No duplicates anywhere, despite every attempt re-reporting
    // frames for the healthy points of the poisoned shard.
    for (std::size_t i = 0; i < sup.failures.size(); ++i)
        for (std::size_t j = i + 1; j < sup.failures.size(); ++j)
            EXPECT_FALSE(sup.failures[i].subject ==
                             sup.failures[j].subject &&
                         sup.failures[i].status.message() ==
                             sup.failures[j].status.message());
}

TEST(ShardRunner, SigkilledSupervisorResumesByteIdentical)
{
    const auto grid = referenceGrid();
    const std::string storePath =
        tempPath("tlc_supervisor_resume.tlrs");
    SweepResult clean = runInProcess(grid);

    // Phase 1: run a supervised sweep in a forked child (its own
    // process group, so killing it also kills any in-flight worker
    // it orphans), and SIGKILL the whole group after the first
    // result is recorded — the parent appended it to the store
    // first.
    int progressPipe[2];
    ASSERT_EQ(pipe(progressPipe), 0);
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        setpgid(0, 0);
        close(progressPipe[0]);
        const int wfd = progressPipe[1];
        MissRateEvaluator ev(evaluatorOptions(storePath));
        Explorer ex(ev);
        ex.setProgressCallback([wfd](const SweepProgress &) {
            char b = '.';
            (void)::write(wfd, &b, 1);
        });
        FailureReport report;
        (void)supervisedEvaluateAll(ex, Benchmark::Gcc1, grid, &report,
                                    testOptions());
        _exit(0);
    }
    close(progressPipe[1]);
    char b = 0;
    ASSERT_EQ(::read(progressPipe[0], &b, 1), 1); // 1st result recorded
    kill(-child, SIGKILL);
    close(progressPipe[0]);
    int wstatus = 0;
    ASSERT_EQ(waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus)); // it did not finish on its own

    // Phase 2: resume against the same store. Recorded results
    // answer from disk; the tail simulates; output is byte-identical.
    // The resume must have used the store: at least one hit, and
    // fewer lanes simulated than the grid holds.
    auto &reg = MetricsRegistry::global();
    const std::uint64_t hits0 = reg.counter("sweep_cache.hits").value();
    const std::uint64_t lanes0 =
        reg.counter("explore.batch.lanes").value();
    SweepResult resumed =
        runSupervised(grid, testOptions(), evaluatorOptions(storePath));
    expectIdentical(clean, resumed);
    EXPECT_EQ(resumed.stats.quarantined, 0u);
    EXPECT_GE(reg.counter("sweep_cache.hits").value() - hits0, 1u);
    EXPECT_LT(reg.counter("explore.batch.lanes").value() - lanes0,
              grid.size());
    std::remove(storePath.c_str());
}

TEST(ShardRunner, WarmSupervisedSweepLaunchesNoWorker)
{
    // A store on the parent's evaluator, filled by an in-process
    // sweep: the supervised rerun resolves every point in the parent
    // and forks nothing, yet prints the same bytes.
    const auto grid = referenceGrid();
    const std::string storePath = tempPath("tlc_supervisor_warm.tlrs");
    SweepResult clean;
    {
        MissRateEvaluator ev(evaluatorOptions(storePath));
        Explorer ex(ev);
        FailureReport report;
        clean.points = ex.evaluateAll(Benchmark::Gcc1, grid, &report);
        clean.failures = report.failures();
    }
    SweepResult warm =
        runSupervised(grid, testOptions(), evaluatorOptions(storePath));
    expectIdentical(clean, warm);
    EXPECT_EQ(warm.stats.attempts, 0u);
    EXPECT_EQ(warm.stats.shards, 0u);
    std::remove(storePath.c_str());
}

TEST(ShardRunner, ExplorerIsolationSupervisesEverySweep)
{
    // A driver picks the pass runner once, at setup: every later
    // sweep of the explorer runs in forked workers, prices what the
    // worker team prices, and adds to one tally — here a cold sweep
    // and a memo-answered one that forks nothing.
    const auto grid = referenceGrid();
    SweepResult clean = runInProcess(grid);
    SweepResult once = runSupervised(grid, testOptions());

    MissRateEvaluator ev(evaluatorOptions());
    Explorer ex(ev);
    EXPECT_EQ(ex.supervision(), nullptr);
    const SupervisorOptions opts = testOptions();
    ex.setIsolation(&opts);
    ASSERT_NE(ex.supervision(), nullptr);
    const MetricCounter &sweeps =
        MetricsRegistry::global().counter("supervisor.sweeps");
    const MetricCounter &shards =
        MetricsRegistry::global().counter("supervisor.shards");
    const std::uint64_t sweepsBefore = sweeps.value();
    const std::uint64_t shardsBefore = shards.value();
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(pass == 0 ? "cold" : "memo-answered");
        FailureReport report;
        SweepResult viaExplorer;
        viaExplorer.points = ex.evaluateAll(Benchmark::Gcc1, grid, &report);
        viaExplorer.failures = report.failures();
        expectIdentical(clean, viaExplorer);
    }
    const SupervisedSweep &tally = *ex.supervision();
    EXPECT_TRUE(tally.points.empty());
    EXPECT_EQ(tally.stats.shards, once.stats.shards);
    EXPECT_EQ(tally.stats.attempts, once.stats.attempts);
    EXPECT_EQ(tally.timeline.size(), once.timeline.size());
    // The registry holds the same tally, added once per sweep.
    EXPECT_EQ(sweeps.value() - sweepsBefore, 2u);
    EXPECT_EQ(shards.value() - shardsBefore, once.stats.shards);

    ex.setIsolation(nullptr);
    EXPECT_EQ(ex.supervision(), nullptr);
}

TEST(ShardRunner, InjectTimesCountsFiringsPerRunNotPerSweep)
{
    // times = 1 is one firing for the whole run: two supervised
    // sweeps on one explorer (two benchmarks, so both fork workers)
    // crash one worker between them. setIsolation starts a new run.
    const auto grid = referenceGrid();
    MissRateEvaluator ev(evaluatorOptions());
    Explorer ex(ev);
    SupervisorOptions opts = testOptions();
    opts.faults.faults.push_back(
        fault(ShardFault::Kind::Crash, 12, /*times=*/1));
    ex.setIsolation(&opts);
    FailureReport report;
    for (Benchmark b : {Benchmark::Gcc1, Benchmark::Espresso})
        EXPECT_EQ(ex.evaluateAll(b, grid, &report).size(), grid.size());
    EXPECT_TRUE(report.empty());
    EXPECT_EQ(ex.supervision()->stats.crashes, 1u);
    EXPECT_EQ(ex.supervision()->stats.retries, 1u);

    ex.setIsolation(&opts);
    EXPECT_EQ(ex.evaluateAll(Benchmark::Li, grid, &report).size(),
              grid.size());
    EXPECT_EQ(ex.supervision()->stats.crashes, 1u);
    ex.setIsolation(nullptr);
}

TEST(ShardRunner, WorkerCountersAreTheSweepsStats)
{
    // supervisor.worker.* is each sweep's SupervisionStats, added
    // once: the registry moves by exactly the stats of a sweep whose
    // workers crash, and of one whose launches never fork (pipe()
    // fails), which no worker outcome ever reports.
    const auto grid = referenceGrid();
    SupervisorOptions crashing = testOptions();
    crashing.faults.faults.push_back(
        fault(ShardFault::Kind::Crash, 12, /*times=*/-1));
    const std::vector<SystemConfig> few(grid.begin(), grid.begin() + 3);
    MetricsRegistry &reg = MetricsRegistry::global();
    const char *const names[] = {
        "supervisor.worker.forks", "supervisor.worker.crashes",
        "supervisor.worker.timeouts", "supervisor.worker.exits",
        "supervisor.worker.protocol_errors"};
    for (const bool pipeless : {false, true}) {
        SCOPED_TRACE(pipeless ? "pipe() fails" : "worker crashes");
        std::vector<std::uint64_t> before;
        for (const char *name : names)
            before.push_back(reg.counter(name).value());
        const SweepResult sup =
            pipeless ? runSupervisedWithoutPipes(few, testOptions())
                     : runSupervised(grid, crashing);
        const std::uint64_t stats[] = {sup.stats.attempts, sup.stats.crashes,
                                       sup.stats.timeouts, sup.stats.exits,
                                       sup.stats.protocolErrors};
        EXPECT_GT(sup.stats.attempts, 0u);
        for (std::size_t i = 0; i < before.size(); ++i) {
            EXPECT_EQ(reg.counter(names[i]).value() - before[i], stats[i])
                << names[i];
        }
    }
}

TEST(ShardRunner, ShardsArePlannedPassesOfWholeL1Groups)
{
    // The paper's design space has L1 groups of 1 to 9 points; at 4
    // points per shard every group larger than the bound is a shard
    // of its own, and no shard splits a group. Four bins run at once.
    WorkerCountGuard guard(4);
    SystemAssumptions a;
    const std::vector<SystemConfig> space = DesignSpace::enumerate(a);
    SweepResult clean = runInProcess(space);
    SupervisorOptions opts = testOptions();
    opts.pointsPerShard = 4;

    MissRateEvaluator ev(evaluatorOptions());
    Explorer ex(ev);
    FailureReport report;
    SupervisedSweep ss =
        supervisedEvaluateAll(ex, Benchmark::Gcc1, space, &report, opts);
    SweepResult sup;
    sup.points = std::move(ss.points);
    sup.failures = report.failures();
    expectIdentical(clean, sup);

    // The shards are the plan's passes, bin after bin, and each
    // holds every point of each L1 size it touches.
    const std::vector<SweepPass> passes = plannedShards(space, 4);
    ASSERT_EQ(ss.timeline.size(), passes.size());
    EXPECT_EQ(ss.stats.shards, passes.size());
    EXPECT_EQ(ss.stats.attempts, passes.size());
    for (std::size_t k = 0; k < passes.size(); ++k) {
        SCOPED_TRACE("shard " + std::to_string(k));
        const std::vector<std::size_t> &idx = passes[k].indices;
        EXPECT_EQ(ss.timeline[k].resolution, "ok");
        EXPECT_EQ(ss.timeline[k].firstIndex, idx.front());
        EXPECT_EQ(ss.timeline[k].count, idx.size());
        EXPECT_TRUE(idx.size() <= 4 || passes[k].l1Groups == 1);
        for (std::size_t i : idx) {
            for (std::size_t j = 0; j < space.size(); ++j) {
                if (space[j].l1Bytes != space[i].l1Bytes)
                    continue;
                EXPECT_TRUE(std::binary_search(idx.begin(), idx.end(), j))
                    << j << " split from " << i;
            }
        }
    }
}

TEST(ShardRunner, ConcurrentShardsMatchInProcessAtEveryWidth)
{
    // One bin per worker process, every bin driven from one poll
    // loop: the output must not depend on the width or on which bin
    // finishes first, a fault must cost exactly what it costs in one
    // bin, and the timeline must come out in plan order.
    const auto grid = referenceGrid();
    const std::uint32_t poisoned = 12;
    const SweepResult clean = runInProcess(grid);
    SweepResult quarantined = clean;
    quarantined.points.erase(quarantined.points.begin() + poisoned);
    struct Case
    {
        const char *name;
        ShardFault fault;
    };
    const Case cases[] = {
        {"clean", ShardFault{}},
        {"transient crash", fault(ShardFault::Kind::Crash, poisoned, 1)},
        {"torn stream",
         fault(ShardFault::Kind::PartialWrite, poisoned, 1)},
        {"permanent crash", fault(ShardFault::Kind::Crash, poisoned, -1)},
    };
    for (unsigned width : {1u, 2u, 3u, 4u, 8u}) {
        WorkerCountGuard guard(width);
        const std::vector<SweepPass> passes = plannedShards(grid, 16);
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(c.name) + " at width " +
                         std::to_string(width));
            SupervisorOptions opts = testOptions();
            opts.retry.maxRetries = 1;
            const bool permanent =
                c.fault.kind != ShardFault::Kind::None && c.fault.times < 0;
            if (c.fault.kind != ShardFault::Kind::None)
                opts.faults.faults.push_back(c.fault);
            const SweepResult sup = runSupervised(grid, opts);

            if (permanent) {
                ASSERT_EQ(sup.points.size(), quarantined.points.size());
                for (std::size_t i = 0; i < sup.points.size(); ++i)
                    expectIdenticalPoint(quarantined.points[i],
                                         sup.points[i], i);
                ASSERT_EQ(sup.failures.size(), 1u);
                EXPECT_EQ(sup.failures[0].subject, grid[poisoned].label());
                EXPECT_EQ(sup.failures[0].status.code(),
                          StatusCode::WorkerCrash);
            } else {
                expectIdentical(clean, sup);
            }
            EXPECT_EQ(sup.stats.quarantined, permanent ? 1u : 0u);
            if (c.fault.kind == ShardFault::Kind::None) {
                EXPECT_EQ(sup.stats.attempts, passes.size());
                EXPECT_EQ(sup.stats.shards, passes.size());
            }
            expectPlanOrder(sup.timeline, passes);
        }
    }
}

TEST(ShardRunner, HungWorkerDoesNotHoldBackOtherBins)
{
    // A worker hanging in one bin (SIGTERM ignored, so only the
    // watchdog's SIGKILL ends it) must not stall the other bins:
    // their shards finish while it hangs, and the sweep ends one
    // watchdog plus grace after it starts, plus the quick retry
    // (the slack also absorbs a loaded host).
    WorkerCountGuard guard(4);
    const auto grid = referenceGrid();
    const SweepResult clean = runInProcess(grid);
    SupervisorOptions opts = testOptions();
    opts.watchdog.timeoutSeconds = 2.0;
    opts.faults.faults.push_back(fault(ShardFault::Kind::Hang, 12, 1));

    const auto t0 = std::chrono::steady_clock::now();
    const SweepResult sup = runSupervised(grid, opts);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    expectIdentical(clean, sup);
    EXPECT_EQ(sup.stats.timeouts, 1u);
    EXPECT_EQ(sup.stats.retries, 1u);

    std::uint32_t hungBin = 0;
    std::uint32_t deliveredDuringHang = 0;
    for (const ShardTimeline &tl : sup.timeline) {
        for (const ShardAttempt &at : tl.attempts) {
            if (at.outcome == "timeout") {
                EXPECT_GE(at.durationSeconds, opts.watchdog.timeoutSeconds);
                hungBin = tl.count;
            } else if (at.startSeconds + at.durationSeconds <
                       opts.watchdog.timeoutSeconds) {
                deliveredDuringHang += at.resultsDelivered;
            }
        }
    }
    // Every point outside the hung worker's bin arrived meanwhile.
    ASSERT_GT(hungBin, 0u);
    EXPECT_EQ(deliveredDuringHang, grid.size() - hungBin);
    EXPECT_LT(wall, opts.watchdog.timeoutSeconds +
                        opts.watchdog.killGraceSeconds + 1.0);
}

TEST(ShardRunner, FailedPipeConcludesTheAttemptAtOnce)
{
    // With no file descriptor left, every launch fails in pipe().
    // Each failed launch must conclude at once and go through retry,
    // bisection and quarantine like any other failure, not leave the
    // poll loop waiting on a worker that never started.
    const auto grid = referenceGrid();
    const std::vector<SystemConfig> few(grid.begin(), grid.begin() + 3);
    const auto t0 = std::chrono::steady_clock::now();
    const SweepResult sup = runSupervisedWithoutPipes(few, testOptions());
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    EXPECT_LT(wall, 5.0);
    EXPECT_TRUE(sup.points.empty());
    ASSERT_EQ(sup.failures.size(), few.size());
    for (const SweepFailure &f : sup.failures) {
        EXPECT_EQ(f.status.code(), StatusCode::WorkerCrash);
        EXPECT_NE(f.status.message().find("pipe failed"), std::string::npos)
            << f.status.message();
    }
    EXPECT_EQ(sup.stats.quarantined, few.size());
    EXPECT_GT(sup.stats.attempts, 0u);
    EXPECT_EQ(sup.stats.protocolErrors, sup.stats.attempts);
}

TEST(ShardRunner, WorkersSimulateTheParentsTrace)
{
    // The parent remembers and stores each result under its own
    // evaluator's trace identity, so a worker must simulate exactly
    // that trace: SupervisorOptions::evaluator has no say any more.
    const auto grid = referenceGrid();
    SupervisorOptions opts = testOptions();
    opts.evaluator.traceRefs = kRefs / 2;
    expectIdentical(runInProcess(grid), runSupervised(grid, opts));
}

TEST(ShardRunner, UnloadableTraceForksNothingAndReportsLikeInProcess)
{
    // A trace that cannot load fails in the parent before any fork,
    // and the report is the in-process engine's byte for byte: the
    // one-entry preflight without a store, and with one (preflight
    // skipped) the failure recorded for every pending lane next to
    // the invalid config's own entry.
    auto grid = referenceGrid();
    SystemConfig bad;
    bad.l1Bytes = 3000; // not a power of two: fails check()
    bad.l2Bytes = 0;
    grid.insert(grid.begin() + 5, bad);
    const std::string missing = tempPath("tlc_supervisor_missing.trc");
    for (bool withStore : {false, true}) {
        SCOPED_TRACE(withStore ? "with a result store" : "no store");
        const std::string storePath =
            withStore ? tempPath("tlc_supervisor_missing.tlrs") : "";
        EvaluatorOptions evopts = evaluatorOptions(storePath);
        evopts.traceFiles[Benchmark::Gcc1] = missing;
        const SweepResult inproc = runInProcess(grid, evopts);
        const SweepResult sup = runSupervised(grid, testOptions(), evopts);
        expectIdentical(inproc, sup);
        EXPECT_TRUE(sup.points.empty());
        EXPECT_EQ(sup.failures.size(), withStore ? 2u : 1u);
        EXPECT_EQ(sup.stats.attempts, 0u);
        EXPECT_EQ(sup.stats.shards, 0u);
        if (withStore)
            std::remove(storePath.c_str());
    }
}

// ---------------------------------------------------------------
// supervisorOptionsFromArgs: out-of-range isolation flags are fatal
// instead of wrapping into a huge shard or an unreachable index.
// ---------------------------------------------------------------

namespace {

/** Parse the isolation flags the way the sweep drivers do. */
SupervisorOptions
parseIsolationFlags(std::vector<const char *> flags)
{
    flags.insert(flags.begin(), {"prog", "--isolate=process"});
    ArgParser args(static_cast<int>(flags.size()), flags.data());
    SupervisorOptions opts;
    EXPECT_TRUE(supervisorOptionsFromArgs(args, &opts));
    return opts;
}

} // namespace

TEST(ShardRunnerFlags, RangeLimitsAreAccepted)
{
    SupervisorOptions o = parseIsolationFlags(
        {"--shard-points=1", "--max-retries=0", "--inject-times=-1",
         "--inject-crash-at=0", "--inject-hang-at=4294967295"});
    EXPECT_EQ(o.pointsPerShard, 1u);
    EXPECT_EQ(o.retry.maxRetries, 0);
    ASSERT_EQ(o.faults.faults.size(), 2u);
    EXPECT_EQ(o.faults.faults[0].atIndex, 0u);
    EXPECT_EQ(o.faults.faults[1].atIndex, 4294967295u);
    EXPECT_EQ(o.faults.faults[1].times, -1);
}

TEST(ShardRunnerFlags, ShardPointsBelowOneIsFatal)
{
    EXPECT_EXIT(parseIsolationFlags({"--shard-points=-1"}),
                ::testing::ExitedWithCode(1),
                "--shard-points=-1 out of range");
    EXPECT_EXIT(parseIsolationFlags({"--shard-points=0"}),
                ::testing::ExitedWithCode(1),
                "--shard-points=0 out of range");
}

TEST(ShardRunnerFlags, NegativeMaxRetriesIsFatal)
{
    EXPECT_EXIT(parseIsolationFlags({"--max-retries=-1"}),
                ::testing::ExitedWithCode(1),
                "--max-retries=-1 out of range");
}

TEST(ShardRunnerFlags, InjectCrashAtOutsideU32IsFatal)
{
    EXPECT_EXIT(parseIsolationFlags({"--inject-crash-at=-1"}),
                ::testing::ExitedWithCode(1),
                "--inject-crash-at=-1 out of range");
}

TEST(ShardRunnerFlags, InjectHangAtOutsideU32IsFatal)
{
    EXPECT_EXIT(parseIsolationFlags({"--inject-hang-at=4294967296"}),
                ::testing::ExitedWithCode(1),
                "--inject-hang-at=4294967296 out of range");
}

TEST(ShardRunnerFlags, InjectPartialAtOutsideU32IsFatal)
{
    EXPECT_EXIT(parseIsolationFlags({"--inject-partial-at=-5"}),
                ::testing::ExitedWithCode(1),
                "--inject-partial-at=-5 out of range");
}

TEST(ShardRunnerFlags, InjectTimesBelowMinusOneIsFatal)
{
    EXPECT_EXIT(parseIsolationFlags({"--inject-times=-2"}),
                ::testing::ExitedWithCode(1),
                "--inject-times=-2 out of range");
}

// ---------------------------------------------------------------
// Result store durability: the ENOSPC class at write time.
// ---------------------------------------------------------------

TEST(ResultStoreDurability, EnospcClassSurfacesAndTailStaysIntact)
{
    const std::string path = tempPath("tlc_store_enospc.tlrs");

    // The file-size rlimit makes writes past the cap fail with
    // EFBIG — same ResourceExhausted class as a full disk, minus
    // the need for one. Run in a child so the rlimit (and the
    // ignored SIGXFSZ) cannot leak into other tests.
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        signal(SIGXFSZ, SIG_IGN); // take EFBIG, not a fatal signal
        struct rlimit rl = {4096, 4096};
        if (setrlimit(RLIMIT_FSIZE, &rl) != 0)
            _exit(10);
        ResultStore store;
        ResultStoreOptions ro;
        ro.fsyncOnCommit = true;
        if (!store.open(path, ro).ok())
            _exit(11);
        const std::string payload(512, 'p');
        for (int i = 0; i < 64; ++i) {
            Status s = store.append("key" + std::to_string(i), payload);
            if (!s.ok()) {
                // Failure must carry the resource-exhausted class
                // and leave the store usable for further queries.
                if (s.code() != StatusCode::ResourceExhausted)
                    _exit(12);
                std::string back;
                if (!store.lookup("key0", &back) || back != payload)
                    _exit(13);
                _exit(0);
            }
        }
        _exit(14); // the cap never bit: test setup is wrong
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0)
        << "child exit " << WEXITSTATUS(wstatus);

    // The write-time repair truncated the torn record, so a fresh
    // open sees only intact records and drops nothing.
    ResultStore reopened;
    ASSERT_TRUE(reopened.open(path).ok());
    EXPECT_EQ(reopened.droppedRecords(), 0u);
    EXPECT_GT(reopened.size(), 0u);
    std::string back;
    EXPECT_TRUE(reopened.lookup("key0", &back));
    std::remove(path.c_str());
}

TEST(ResultStoreDurability, FsyncOnCommitRoundTrips)
{
    const std::string path = tempPath("tlc_store_fsync.tlrs");
    {
        ResultStore store;
        ResultStoreOptions ro;
        ro.fsyncOnCommit = true;
        ASSERT_TRUE(store.open(path, ro).ok());
        ASSERT_TRUE(store.append("k", "v").ok());
        ASSERT_TRUE(store.append("k2", "v2").ok());
    }
    ResultStore reopened;
    ASSERT_TRUE(reopened.open(path).ok());
    EXPECT_EQ(reopened.size(), 2u);
    std::string v;
    EXPECT_TRUE(reopened.lookup("k2", &v));
    EXPECT_EQ(v, "v2");
    std::remove(path.c_str());
}
