/**
 * @file
 * The design-space explorer: fuses miss rates, the timing model and
 * the area model into TPI-vs-area design points and best-performance
 * envelopes — the engine behind every figure in the paper.
 *
 * Sweeps are fail-soft: pass a FailureReport and a design point
 * whose configuration is invalid, or whose benchmark trace cannot be
 * loaded, is recorded and skipped while the remaining points
 * complete — one corrupt trace byte must not abort a multi-hour
 * multi-hundred-point run.
 *
 * Sweeps are benchmark-major and batched, and every sweep runs one
 * body (Explorer::evaluateAll): the memo and result store answer
 * what they can (SweepCollector), planSweep packs the rest into one
 * bin of whole shared-L1 groups per worker (the sweep's width), and
 * each pass of a bin simulates in ONE pass over the benchmark trace
 * instead of once per design point.
 * The body has two pass runners, chosen at setup
 * (Explorer::setIsolation): the parallelFor worker team
 * (util/parallel.hh), or forked workers under a supervisor
 * (core/shard_runner.hh), one live worker per bin. Results are
 * deterministic: simulation lanes are fully independent, and the
 * output vector, the envelope, and the FailureReport are ordered by
 * input index regardless of the plan, the runner or worker
 * completion order, so a batched parallel sweep produces
 * byte-identical figure data to a serial one (enforced by
 * tests/test_parallel_differential.cc, tests/test_batch_engine.cc
 * and tests/test_supervisor.cc).
 */

#ifndef TLC_CORE_EXPLORER_HH
#define TLC_CORE_EXPLORER_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "area/area_model.hh"
#include "core/evaluator.hh"
#include "core/system_config.hh"
#include "core/tpi.hh"
#include "timing/access_time.hh"
#include "util/envelope.hh"
#include "util/status.hh"

namespace tlc {

struct SupervisedSweep;   // core/shard_runner.hh
struct SupervisorOptions; // core/shard_runner.hh

/** One fully-priced design point. */
struct DesignPoint
{
    SystemConfig config;
    double areaRbe = 0;       ///< both L1s + L2
    TimingResult l1Timing;    ///< per-L1-array timing
    TimingResult l2Timing;    ///< valid only when config.hasL2()
    HierarchyStats miss;
    TpiResult tpi;

    /** Envelope-ready (area, tpi, label) projection. */
    EnvelopePoint toEnvelopePoint() const
    {
        return EnvelopePoint{areaRbe, tpi.tpi, config.label()};
    }
};

/** One skipped design point or benchmark within a sweep. */
struct SweepFailure
{
    std::string subject; ///< config label or benchmark name
    Status status;       ///< why it was skipped
};

/**
 * Accumulates the failures of one fail-soft sweep so they can be
 * summarised at the end of the run instead of killing it.
 *
 * add() may be called from several threads concurrently (an
 * application sweeping benchmarks in parallel can share one report).
 * Explorer itself never does: it records failures after the worker
 * team joins, in input-index order, so the report contents are
 * deterministic. All accessors take the same lock as add();
 * failures() returns a snapshot by value, so the result stays valid
 * and stable even while writers are active.
 */
class FailureReport
{
  public:
    void add(std::string subject, Status status);

    bool empty() const;
    std::size_t size() const;

    /** Consistent copy of the failures recorded so far. */
    std::vector<SweepFailure> failures() const;

    /** True when some failure's subject contains @p needle. */
    bool mentions(const std::string &needle) const;

    /** Aligned ASCII summary table (subject | error | detail). */
    std::string summary() const;

  private:
    mutable std::mutex mu_;
    std::vector<SweepFailure> failures_;
};

/**
 * Live progress of one evaluateAll() call: how far along the sweep
 * is, how it is going, and when it should finish.
 */
struct SweepProgress
{
    std::size_t done = 0;     ///< points finished (ok or failed)
    std::size_t total = 0;    ///< points in this sweep
    std::size_t failed = 0;   ///< fail-soft skips so far
    double elapsedSeconds = 0.0;
    /** Estimated seconds remaining (elapsed-scaled; 0 when done). */
    double etaSeconds = 0.0;
};

/**
 * A throttled stderr progress printer: one complete line per update
 * (single fwrite, so concurrent workers can't interleave it), of the
 * form "progress: <label> 12/340 (3.5%) 1 failed ...". Suitable for
 * SweepRequest::progress / Explorer::setProgressCallback.
 */
std::function<void(const SweepProgress &)>
stderrProgressPrinter(std::string label);

/**
 * A whole sweep as one value: which configurations to price, on
 * which benchmarks, and how to run. Build one, set fields, hand it
 * to Explorer::evaluateAll — no setup-time mutation of the explorer
 * is needed.
 */
struct SweepRequest
{
    /** Configurations to price (shared by every benchmark). */
    std::vector<SystemConfig> configs;
    /** Benchmarks to price them on, swept in order. */
    std::vector<Benchmark> benchmarks;
    /** Failure sink: with one, bad points/benchmarks are recorded
     *  and skipped (fail-soft); without, the first failure is
     *  fatal. */
    FailureReport *report = nullptr;
    /** Progress callback for this request (empty => the explorer's,
     *  if any). Fires per benchmark sweep, throttled to
     *  progressIntervalSeconds; the final update of each sweep
     *  (done == total) always fires. */
    std::function<void(const SweepProgress &)> progress;
    double progressIntervalSeconds = 0.25;
    /** Worker-team width for this request; 0 takes the process
     *  setting, parallelWorkerCount(). The width is passed to the
     *  sweep's plan and worker team; no process setting changes. */
    unsigned threads = 0;
};

/** Priced points of one benchmark of a SweepRequest, with that
 *  sweep's own ticks of explore.missrate_cache.hits and
 *  sweep_cache.{hits,misses,appends}. */
struct BenchmarkSweep
{
    Benchmark benchmark;
    std::vector<DesignPoint> points;
    std::uint64_t memoHits = 0;     ///< indices the memo answered
    std::uint64_t storeHits = 0;    ///< lanes the result store answered
    std::uint64_t storeMisses = 0;  ///< lanes it did not hold
    std::uint64_t storeAppends = 0; ///< simulated lanes appended to it
};

/**
 * Most configurations one trace pass of a planned sweep holds, so a
 * long explicit list keeps a bounded number of lanes alive per
 * worker. Every sweep the repository runs itself (a 45-point
 * DesignSpace::enumerate space) fits in one pass.
 */
inline constexpr std::size_t kMaxPassConfigs = 64;

/** One trace pass of a planned sweep (planSweep): whole L1 groups. */
struct SweepPass
{
    std::vector<std::size_t> indices; ///< input indices, ascending
    std::size_t l1Groups = 0;         ///< whole L1 groups it holds
    double weight = 0;                ///< planned cost, in L1 walks
};

/** One worker's share of a planned sweep, run pass after pass. */
struct SweepBin
{
    std::vector<SweepPass> passes;
    double weight = 0; ///< sum of its passes' weights
};

/**
 * Plan one benchmark sweep of @p configs across @p workers threads,
 * each trace pass bounded by @p max_pass_configs.
 * A unit is an L1 group: the configs whose L1s SimGroup::sharesL1
 * says are interchangeable, so they share one L1 walk (or fill
 * strict-inclusive lane blocks together) — a group is never split,
 * since re-walking its L1 costs more than the balance it would buy.
 * Units are packed longest first (ties: lower first index) into
 * min(workers, units) bins, each into the least-loaded bin (ties:
 * lower bin). A bin is one trace pass unless its configs outgrow
 * @p max_pass_configs: a unit that would push the bin's current pass
 * past the bound opens a new pass (a unit larger than the bound is a
 * pass of its own). Inside a parallelFor body the plan is one bin:
 * nested loops run serially. Configs that fail SystemConfig::check()
 * cost nothing to price and join the last pass of the least-loaded
 * bin. Deterministic: the same input gives the same bins.
 */
std::vector<SweepBin>
planSweep(std::span<const SystemConfig> configs, unsigned workers,
          std::size_t max_pass_configs = kMaxPassConfigs);

/**
 * Prices configurations and sweeps design spaces. Timing and area
 * are memoized per geometry; miss rates come from the shared
 * MissRateEvaluator (so several explorers can share one). The memo
 * cache is guarded by a mutex, so one Explorer can price many
 * design points concurrently (evaluateAll does exactly that).
 */
class Explorer
{
  public:
    /** Exact memo key of one cache array geometry. */
    using TimingKey =
        std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>;

    explicit Explorer(MissRateEvaluator &evaluator,
                      const AccessTimeModel &timing = AccessTimeModel{},
                      const AreaModel &area = AreaModel{});
    ~Explorer();

    /**
     * The memo key of (size, assoc, line). The full triple is the
     * key — an earlier packing into a single uint64_t could alias
     * distinct geometries (size*1024 + assoc*256 + line overflows
     * the 10 bits reserved below the size for assoc >= 4).
     */
    static TimingKey timingKey(std::uint64_t size_bytes,
                               std::uint32_t assoc,
                               std::uint32_t line_bytes)
    {
        return {size_bytes, assoc, line_bytes};
    }

    /** Cached timing of one cache array geometry (thread-safe). */
    const TimingResult &timingOf(std::uint64_t size_bytes,
                                 std::uint32_t assoc,
                                 std::uint32_t line_bytes);

    /** Number of distinct geometries memoized so far. */
    std::size_t timingCacheSize() const;

    /** Total chip area of a configuration (both L1s + L2), rbe. */
    double areaOf(const SystemConfig &config);

    /**
     * Fully price one configuration on one benchmark; a failure
     * (invalid configuration, unloadable trace) is fatal. Fail-soft
     * callers use tryEvaluate().
     */
    DesignPoint evaluate(Benchmark b, const SystemConfig &config);

    /**
     * Fully price one configuration, reporting an invalid
     * configuration or unloadable benchmark trace as a Status
     * instead of aborting.
     */
    Expected<DesignPoint> tryEvaluate(Benchmark b,
                                      const SystemConfig &config);

    /**
     * Price an explicit configuration list benchmark-major: what the
     * memo and store do not answer is planned into one bin of whole
     * L1 groups per worker (planSweep), and each pass of a bin shares
     * one pass over the benchmark trace. The bins run on the
     * parallelFor worker team (passes of at most kMaxPassConfigs
     * configs), or in forked workers after setIsolation (passes of
     * at most pointsPerShard). The output vector is ordered by input
     * index whatever the plan, and with @p report, failed points are
     * recorded there in input order and skipped (fail-soft); without
     * it, a failure — a quarantined point included — is fatal as in
     * the classic API (the lowest-index failure is the one
     * reported). A benchmark whose trace cannot be loaded is
     * reported once, not once per configuration.
     */
    std::vector<DesignPoint> evaluateAll(
        Benchmark b, const std::vector<SystemConfig> &configs,
        FailureReport *report = nullptr);

    /**
     * Run a whole SweepRequest: every benchmark of the request is
     * priced against its configuration list (one batched sweep per
     * benchmark) with the request's report, width and progress
     * callback (else the explorer's), which each sweep is handed;
     * neither the process nor the explorer is changed. Results are
     * ordered like request.benchmarks, each with its own counts.
     */
    std::vector<BenchmarkSweep> evaluateAll(const SweepRequest &request);

    /** Price every configuration of a design space. */
    std::vector<DesignPoint> sweep(Benchmark b,
                                   const SystemAssumptions &assume,
                                   bool include_single_level = true,
                                   bool include_two_level = true,
                                   FailureReport *report = nullptr);

    /** Best-performance envelope of a priced sweep. */
    static Envelope envelopeOf(const std::vector<DesignPoint> &points);

    using ProgressCallback = std::function<void(const SweepProgress &)>;

    /**
     * Install a progress callback for subsequent evaluateAll/sweep
     * calls (empty callback uninstalls). Invocations are throttled
     * to at most one per @p min_interval_seconds, except that the
     * final update (done == total) always fires. The callback may
     * run on any worker thread — keep it cheap and thread-safe
     * (stderrProgressPrinter qualifies). Setup-time API: do not call
     * while a sweep is in flight. Per-request callbacks
     * (SweepRequest::progress) take precedence for their request.
     */
    void setProgressCallback(ProgressCallback cb,
                             double min_interval_seconds = 0.25);

    /**
     * Run later sweeps' passes in forked workers under @p opts
     * (copied; core/shard_runner.hh), or with nullptr on the worker
     * team (the default). Setup-time API like setProgressCallback;
     * each call starts a fresh supervision() tally.
     */
    void setIsolation(const SupervisorOptions *opts);

    /** The supervised sweeps' summed stats and shard timelines
     *  since setIsolation (no points), or null on the worker team. */
    const SupervisedSweep *supervision() const { return supervision_.get(); }

    /**
     * Assemble a DesignPoint from already-computed miss statistics:
     * timing, area and TPI are (memoized) pure functions of the
     * configuration, so pricing the same stats twice is
     * byte-identical. SweepCollector prices every sweep with it.
     */
    DesignPoint pricePoint(const SystemConfig &config,
                           const HierarchyStats &miss);

  private:
    friend class SweepCollector;
    friend SupervisedSweep
    supervisedEvaluateAll(Explorer &ex, Benchmark b,
                          const std::vector<SystemConfig> &configs,
                          FailureReport *report,
                          const SupervisorOptions &opts);

    /** The one sweep body: the passes run on the worker team, or
     *  with @p isolate in forked workers, tallied in @p supervision.
     *  Its width is @p threads, else parallelWorkerCount(); its
     *  progress callback @p progress, else the explorer's. */
    BenchmarkSweep sweepBody(
        Benchmark b, const std::vector<SystemConfig> &configs,
        FailureReport *report, const SupervisorOptions *isolate,
        SupervisedSweep *supervision, unsigned threads = 0,
        const ProgressCallback &progress = {},
        double progress_interval_seconds = 0.0);

    MissRateEvaluator &evaluator_;
    AccessTimeModel timing_;
    AreaModel area_;
    mutable std::mutex timingMu_;
    std::map<TimingKey, TimingResult> timingCache_;
    ProgressCallback progress_;
    double progressIntervalSeconds_ = 0.25;
    std::unique_ptr<SupervisorOptions> isolate_;
    std::unique_ptr<SupervisedSweep> supervision_;
};

/**
 * The collection step of the sweep body, one per benchmark sweep:
 * resolve, then remember, price and record each simulated lane as it
 * arrives, then collect — per-index slots, the progress throttle, the
 * sweep's memo and store counts, and the rule that turns slots into
 * points plus FailureReport entries.
 * Explorer::evaluateAll drives it; its pass runners (the worker team,
 * or the supervisor of core/shard_runner.hh in forked workers) only
 * simulate lanes and record them. Constructing one counts a sweep
 * (explore.sweeps).
 */
class SweepCollector
{
  public:
    /** @p configs, @p report and @p progress (empty => none) must
     *  outlive the collector. */
    SweepCollector(Explorer &ex, Benchmark b,
                   const std::vector<SystemConfig> &configs,
                   FailureReport *report,
                   const Explorer::ProgressCallback &progress,
                   double progress_interval_seconds);

    /** Record what resolveMissStats answers; return the lanes left
     *  to simulate. Call once, first. */
    const MissResolution &resolve();

    /** Whether index @p i has been recorded. */
    bool has(std::size_t i) const { return slots_[i].has_value(); }

    /**
     * Record lane @p lane's outcome: remember ok statistics (so a
     * result is in the store before it counts as done), then price
     * and record every index the lane answers. Distinct lanes may be
     * recorded from several threads at once.
     */
    void recordLane(std::size_t lane, const Expected<HierarchyStats> &miss);

    /**
     * Fire the final (done == total) progress update, then collect
     * in input-index order. Ok points are returned, with the
     * sweep's memo and store counts. Per-point
     * failures (InvalidConfig, and a quarantined point's
     * WorkerCrash/WorkerTimeout) go to the report under the config
     * label and tick explore.points.failed. Any other status is a
     * benchmark-wide failure (an unloadable trace); repeats of it
     * collapse into one "benchmark <name>" entry. Without a report,
     * the first failure is fatal.
     */
    BenchmarkSweep finish();

  private:
    /** Price @p miss into slot @p i (once) and fire the progress
     *  callback, throttled to its interval. */
    void record(std::size_t i, const Expected<HierarchyStats> &miss);
    void fireProgress(std::size_t done_now, bool final);

    Explorer &ex_;
    Benchmark bench_;
    const std::vector<SystemConfig> &configs_;
    FailureReport *report_;
    const Explorer::ProgressCallback &progress_;
    const double progressIntervalSeconds_;
    MissResolution lanes_;
    std::vector<std::optional<Expected<DesignPoint>>> slots_;
    std::chrono::steady_clock::time_point start_;
    std::atomic<std::size_t> done_{0};
    std::atomic<std::size_t> failed_{0};
    std::atomic<std::int64_t> lastFireUs_{-1};
    std::atomic<std::uint64_t> appends_{0};
};

} // namespace tlc

#endif // TLC_CORE_EXPLORER_HH
