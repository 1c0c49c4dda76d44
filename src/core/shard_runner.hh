/**
 * @file
 * Fault-isolated sweep execution: shard a configuration list across
 * forked worker subprocesses, survive worker crashes/hangs, and
 * quarantine the specific design points that keep killing workers.
 *
 * The in-process engine is fast but shares its fate with every
 * design point it simulates: one wild pointer in a simulation lane,
 * one pathological configuration that loops forever, and the whole
 * multi-hour sweep dies. This layer trades a fork() per shard for
 * blast-radius containment: it is the second pass runner of the one
 * sweep body, Explorer::evaluateAll (Explorer::setIsolation picks
 * it), which resolves, loads the trace and plans one bin per worker
 * as for the worker team. A shard is one planned pass of at most
 * pointsPerShard configs of whole L1 groups. Each bin runs its
 * shards one after another, each in a forked worker that simulates
 * the trace it inherited copy on write; the bins run side by side,
 * all driven by one poll() loop on the calling thread:
 *
 *   bin: next shard ──▶ worker simulates it out of process
 *    │                      │ crash / hang / torn stream
 *    ▼                      ▼
 *   ok                  retry once its backoff ends (the loop serves
 *    │                      │ the other bins meanwhile)
 *    │                      │ still failing
 *    │                      ▼
 *    │                  bisect; both halves run next in the bin
 *    │                      │ a single point still fails
 *    ▼                      ▼
 *   price               quarantine that point into the FailureReport
 *
 * Healthy points are completely unaffected: workers return bit-exact
 * HierarchyStats over a CRC-framed pipe (util/supervisor.hh), the
 * parent records them like the in-process engine, and results,
 * envelopes and failure-report ordering are byte-identical to an
 * in-process run — the differential tests in
 * tests/test_supervisor.cc enforce this.
 *
 * Crash-safe resume: the parent is the only writer of the store on
 * its evaluator, and appends each result before recording it, so
 * even a SIGKILLed *supervisor* resumes warm from every result it
 * recorded; a sweep the store answers in full forks no worker.
 *
 * Fault injection: ShardFaultPlan deterministically makes a worker
 * crash, hang, exit early, or tear its result stream when its shard
 * contains a chosen design-point index — the hooks behind the
 * differential tests, tools/check.sh's recovery step, and the
 * --inject-* flags on design_explorer/figure_runner.
 *
 * Observability: shard attempts count under the "supervisor.shard"
 * profiler phase, backoff waits under "supervisor.backoff", and each
 * sweep adds its SupervisionStats to supervisor.{sweeps,shards,
 * retries,bisections,quarantined,backoff_waits},
 * supervisor.worker.{forks,crashes,timeouts,exits,protocol_errors}
 * and supervisor.telemetry.*_frames when it ends: one count of each
 * event.
 *
 * Cross-process telemetry (docs/observability.md): before its Done
 * frame a worker streams its metrics-registry deltas, profiler phase
 * stats and trace-event slices back over the same frame pipe. The
 * parent folds counters into the global registry twice — once under
 * the worker's own "worker.<id>." namespace and once into the plain
 * name as an aggregated rollup — merges phases into the global
 * profiler, and imports trace slices under a per-attempt pid so the
 * chrome://tracing export shows one named track per worker attempt.
 * Every worker also keeps a crash flight recorder
 * (util/flight_recorder.hh): a bounded ring of recent events
 * (current design point, phase, notes) flushed as a final frame on
 * clean exit or from a signal handler on crash/SIGTERM, so
 * quarantine entries in the FailureReport say *what the worker was
 * doing* when it died, and the per-shard attempt timeline
 * (ShardTimeline) records it for the run manifest.
 */

#ifndef TLC_CORE_SHARD_RUNNER_HH
#define TLC_CORE_SHARD_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "util/args.hh"
#include "util/supervisor.hh"

namespace tlc {

/**
 * One deterministic injected fault: when a worker's shard contains
 * design-point index @p atIndex, the worker misbehaves as @p kind
 * says. @p times bounds how many workers fire the fault in one run
 * (-1 = every one): across every sweep since Explorer::setIsolation,
 * or in one supervisedEvaluateAll call. That is how tests model
 * transient vs. permanent failures: times=1 crashes the first
 * attempt and lets the retry succeed; times=-1 is a poisoned point
 * that must end up quarantined.
 */
struct ShardFault
{
    enum class Kind {
        None,
        Crash,        ///< raise SIGSEGV when reporting point atIndex
        Hang,         ///< ignore SIGTERM and pause at point atIndex
        PartialWrite, ///< report indices < atIndex, tear, then die
        ExitEarly     ///< _exit(3) on entry, without reporting
    };

    Kind kind = Kind::None;
    std::uint32_t atIndex = 0; ///< global design-point index
    int times = -1;            ///< firings before the fault disarms
};

/** All faults armed for one supervised sweep. */
struct ShardFaultPlan
{
    std::vector<ShardFault> faults;

    bool empty() const { return faults.empty(); }
};

/** How a supervised sweep should run (the store is the evaluator's). */
struct SupervisorOptions
{
    /** Plan pass bound: design points per worker subprocess before
     *  bisection; a larger L1 group is one shard of its own. */
    std::size_t pointsPerShard = 32;
    /** Per-attempt watchdog (timeout => SIGTERM => SIGKILL). */
    WatchdogSpec watchdog;
    /** Retry budget and backoff pacing per shard. */
    RetryPolicy retry;
    /** No longer read: workers simulate the parent evaluator's own
     *  trace, inherited across fork. Kept for bench/layers, which
     *  still sets it. */
    EvaluatorOptions evaluator;
    /** Deterministic fault injection (tests and recovery drills). */
    ShardFaultPlan faults;
};

/** What it took to finish one supervised sweep. */
struct SupervisionStats
{
    std::uint64_t shards = 0;      ///< shards resolved (incl. splits)
    std::uint64_t attempts = 0;    ///< worker processes launched
    std::uint64_t retries = 0;     ///< same-shard re-runs
    std::uint64_t crashes = 0;     ///< signal deaths observed
    std::uint64_t timeouts = 0;    ///< watchdog kills
    std::uint64_t exits = 0;       ///< nonzero worker exits
    std::uint64_t protocolErrors = 0; ///< torn/corrupt streams
    std::uint64_t bisections = 0;  ///< shard splits
    std::uint64_t quarantined = 0; ///< points given up on
    std::uint64_t backoffWaits = 0;
    double backoffSeconds = 0.0;   ///< total time asleep in backoff
    std::uint64_t metricFrames = 0; ///< worker metric deltas merged
    std::uint64_t phaseFrames = 0;  ///< worker phase stats merged
    std::uint64_t eventFrames = 0;  ///< worker trace-slice frames
    std::uint64_t flightFrames = 0; ///< flight-recorder frames

    /** Fold another sweep's stats in (Explorer::supervision()). */
    void accumulate(const SupervisionStats &other);
};

/**
 * One worker launch in a shard's timeline: who ran, how it ended,
 * when, and what its flight recorder last saw. "worker" here is the
 * sweep-unique serial the telemetry namespace (worker.<id>.*) and
 * the trace export's pid tracks use for the same attempt.
 */
struct ShardAttempt
{
    std::uint32_t workerId = 0;
    std::string outcome;          ///< workerOutcomeKindName()
    std::string detail;           ///< human phrase of the outcome
    double startSeconds = 0.0;    ///< offset from sweep start
    double durationSeconds = 0.0;
    std::uint32_t resultsDelivered = 0; ///< intact result frames
    double backoffSeconds = 0.0;  ///< sleep after this attempt (0 if none)
    std::string flightReason;     ///< "clean", "signal", "hang", ...
    std::string flightPoint;      ///< last design point seen working
    std::string flightPhase;      ///< last phase seen working
};

/** Every attempt it took to resolve one shard (or sub-shard). */
struct ShardTimeline
{
    std::uint32_t firstIndex = 0; ///< lowest design-point index
    std::uint32_t count = 0;      ///< points in this (sub-)shard
    std::string resolution;       ///< "ok", "bisected", "quarantined"
    std::vector<ShardAttempt> attempts;
};

/** A supervised sweep's priced points plus its war story. */
struct SupervisedSweep
{
    std::vector<DesignPoint> points;
    SupervisionStats stats;
    /** Per-shard attempt history in plan order: bin after bin, each
     *  bin's shards in the order they ran (a bisected shard appears
     *  just before its halves). */
    std::vector<ShardTimeline> timeline;
    /** Firings of each of the options' faults so far: ShardFault::times
     *  bounds them across every sweep of this tally, so once per run
     *  for Explorer::supervision(). */
    std::vector<int> faultsFired;
};

/**
 * Render supervision stats plus per-shard attempt timelines as the
 * JSON object the run manifest embeds under "supervisor"
 * (RunManifest::supervisorJson; schema documented in
 * docs/observability.md).
 */
std::string
supervisorTimelinesJson(const SupervisionStats &stats,
                        const std::vector<ShardTimeline> &timeline);

/**
 * Explorer::evaluateAll's forked-worker pass runner: run each pass of
 * @p bins (planned over @p pending's lanes) as a shard under @p opts,
 * recording into @p collector, and add what it took to
 * @p supervision. @p b's trace must be loaded: workers inherit it.
 */
void superviseBins(MissRateEvaluator &ev, Benchmark b,
                   const std::vector<SystemConfig> &configs,
                   const MissResolution &pending,
                   const std::vector<SweepBin> &bins,
                   const SupervisorOptions &opts,
                   SweepCollector &collector, SupervisedSweep &supervision);

/**
 * One sweep of Explorer::evaluateAll's body in forked workers under
 * @p opts, whatever @p ex's own setIsolation, with its stats and
 * timeline. Kept for bench/layers, which calls it; drivers use
 * Explorer::setIsolation. @p report is required.
 */
SupervisedSweep
supervisedEvaluateAll(Explorer &ex, Benchmark b,
                      const std::vector<SystemConfig> &configs,
                      FailureReport *report,
                      const SupervisorOptions &opts);

/**
 * Parse the process-isolation flags the sweep drivers share
 * (design_explorer, figure_runner; docs/robustness.md):
 *
 *   --isolate=process|none  out-of-process shard execution (none)
 *   --shard-points=N        design points per worker process (32)
 *   --shard-timeout=SECS    per-attempt watchdog; <=0 disables (60)
 *   --max-retries=N         re-runs per shard before bisection (2)
 *
 * plus the deterministic fault-injection flags behind the recovery
 * drills in tools/check.sh:
 *
 *   --inject-crash-at=IDX / --inject-hang-at=IDX /
 *   --inject-partial-at=IDX   misbehave when a worker's shard holds
 *                             design-point index IDX
 *   --inject-times=N          firings in the run before the
 *                             fault disarms (-1 = every time)
 *
 * Fills @p out either way; returns true when --isolate=process was
 * requested. An unknown --isolate value is fatal, and so is a count
 * or index out of range (--shard-points < 1, --max-retries < 0,
 * --inject-*-at outside [0, 2^32), --inject-times < -1).
 */
bool supervisorOptionsFromArgs(const ArgParser &args,
                               SupervisorOptions *out);

} // namespace tlc

#endif // TLC_CORE_SHARD_RUNNER_HH
