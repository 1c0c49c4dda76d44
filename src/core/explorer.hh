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
 * Sweeps are benchmark-major and batched: evaluateAll() plans the
 * configuration list into one bin per worker of the parallelFor team
 * (planSweep; util/parallel.hh, TLC_THREADS or --threads control the
 * width), each bin a set of whole shared-L1 groups, and simulates
 * each bin's memo-missing configurations in ONE pass over the
 * benchmark trace via MissRateEvaluator::tryMissStatsBatch (a bin
 * holding more than kMaxPassConfigs configurations makes a pass per
 * kMaxPassConfigs-sized run of groups) — instead of re-walking the
 * trace once per design point. Results are
 * deterministic: simulation lanes are fully independent, and the
 * output vector, the envelope, and the FailureReport are ordered by
 * input index regardless of the plan or worker completion order,
 * so a batched parallel sweep produces byte-identical figure data to
 * a serial one (enforced by
 * tests/test_parallel_differential.cc and tests/test_batch_engine.cc).
 */

#ifndef TLC_CORE_EXPLORER_HH
#define TLC_CORE_EXPLORER_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
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
    /** Progress callback for this request (empty => none). Fires per
     *  benchmark sweep, throttled to progressIntervalSeconds; the
     *  final update of each sweep (done == total) always fires. */
    std::function<void(const SweepProgress &)> progress;
    double progressIntervalSeconds = 0.25;
    /** Worker-team width for this request; 0 inherits the current
     *  TLC_THREADS / setParallelWorkerCount setting. The previous
     *  width is restored when the request completes. */
    unsigned threads = 0;
};

/** Priced points of one benchmark of a SweepRequest. */
struct BenchmarkSweep
{
    Benchmark benchmark;
    std::vector<DesignPoint> points;
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
 * Plan one benchmark sweep of @p configs across @p workers threads.
 * A unit is an L1 group: the configs whose L1s SimGroup::sharesL1
 * says are interchangeable, so they share one L1 walk (or fill
 * strict-inclusive lane blocks together) — a group is never split,
 * since re-walking its L1 costs more than the balance it would buy.
 * Units are packed longest first (ties: lower first index) into
 * min(workers, units) bins, each into the least-loaded bin (ties:
 * lower bin). A bin is one trace pass unless its configs outgrow
 * kMaxPassConfigs: a unit that would push the bin's current pass
 * past the bound opens a new pass (a unit larger than the bound is a
 * pass of its own). Inside a parallelFor body the plan is one bin:
 * nested loops run serially. Configs that fail SystemConfig::check()
 * cost nothing to price and join the last pass of the least-loaded
 * bin. Deterministic: the same input gives the same bins.
 */
std::vector<SweepBin> planSweep(std::span<const SystemConfig> configs,
                                unsigned workers);

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
     * Price an explicit configuration list benchmark-major: the
     * list is planned into one bin of whole L1 groups per worker
     * (planSweep), bins run across the parallelFor worker team, and
     * each bin's memo-missing configurations share one pass over the
     * benchmark trace (tryMissStatsBatch; more than kMaxPassConfigs
     * of them take several). The output vector is
     * ordered by input index whatever the plan, and with @p report,
     * failed points are recorded there in input order and skipped
     * (fail-soft); without it, a failure is fatal as in the classic
     * API (the lowest-index failure is the one reported). A
     * benchmark whose trace cannot be loaded is reported once, not
     * once per configuration.
     */
    std::vector<DesignPoint> evaluateAll(
        Benchmark b, const std::vector<SystemConfig> &configs,
        FailureReport *report = nullptr);

    /**
     * Run a whole SweepRequest: every benchmark of the request is
     * priced against its configuration list (one batched sweep per
     * benchmark), with the request's report, progress callback and
     * thread override in effect for the duration of the call.
     * Results are ordered like request.benchmarks.
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

    MissRateEvaluator &evaluator() { return evaluator_; }

    /**
     * Assemble a DesignPoint from already-computed miss statistics:
     * timing, area and TPI are (memoized) pure functions of the
     * configuration, so pricing the same stats twice is
     * byte-identical. The process-isolated sweep supervisor
     * (core/shard_runner.hh) uses this to price statistics its
     * worker subprocesses simulated out of process.
     */
    DesignPoint pricePoint(const SystemConfig &config,
                           const HierarchyStats &miss);

  private:
    friend class SweepCollector;

    MissRateEvaluator &evaluator_;
    AccessTimeModel timing_;
    AreaModel area_;
    mutable std::mutex timingMu_;
    std::map<TimingKey, TimingResult> timingCache_;
    ProgressCallback progress_;
    double progressIntervalSeconds_ = 0.25;
};

/**
 * The tail every sweep executor shares, one per benchmark sweep: the
 * per-index result slots, the progress throttle, and the rule that
 * turns slots into points plus FailureReport entries. evaluateAll
 * fills it from the worker team; the process-isolated supervisor
 * (core/shard_runner.hh) fills it from worker result frames and
 * quarantine decisions. Constructing one counts a sweep
 * (explore.sweeps).
 */
class SweepCollector
{
  public:
    /** @p configs and @p report must outlive the collector. */
    SweepCollector(Explorer &ex, Benchmark b,
                   const std::vector<SystemConfig> &configs,
                   FailureReport *report);

    /** Whether index @p i has been recorded. */
    bool has(std::size_t i) const { return slots_[i].has_value(); }

    /**
     * Fill slot @p i (once) and fire the explorer's progress
     * callback, throttled to its interval. Distinct indices may be
     * recorded from several threads at once.
     */
    void record(std::size_t i, Expected<DesignPoint> point);

    /**
     * Fire the final (done == total) progress update, then collect
     * in input-index order. Ok points are returned. Per-point
     * failures (InvalidConfig, and a quarantined point's
     * WorkerCrash/WorkerTimeout) go to the report under the config
     * label and tick explore.points.failed. Any other status is a
     * benchmark-wide failure (an unloadable trace); repeats of it
     * collapse into one "benchmark <name>" entry. Without a report,
     * the first failure is fatal.
     */
    std::vector<DesignPoint> finish();

  private:
    void fireProgress(std::size_t done_now, bool final);

    Explorer &ex_;
    Benchmark bench_;
    const std::vector<SystemConfig> &configs_;
    FailureReport *report_;
    std::vector<std::optional<Expected<DesignPoint>>> slots_;
    std::chrono::steady_clock::time_point start_;
    std::atomic<std::size_t> done_{0};
    std::atomic<std::size_t> failed_{0};
    std::atomic<std::int64_t> lastFireUs_{-1};
};

} // namespace tlc

#endif // TLC_CORE_EXPLORER_HH
