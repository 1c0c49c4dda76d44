/**
 * @file
 * Miss-rate evaluation with caching of traces and results.
 *
 * Sweeping the paper's design space touches the same (benchmark,
 * configuration) miss counts from several experiments; the evaluator
 * generates each benchmark trace once and memoizes simulation
 * results so figure drivers stay fast.
 *
 * Setup is value-based: construct with EvaluatorOptions to pick the
 * trace length, the warmup fraction, and which benchmarks are routed
 * to on-disk trace files instead of the synthetic model — there is
 * no post-construction mutation to race with a sweep. Because
 * on-disk data can be corrupt, every entry point reports failures as
 * Status values: a sweep that hits an unreadable trace or an invalid
 * configuration records the failure and keeps going (see
 * Explorer::evaluateAll) instead of exiting mid-run.
 *
 * Simulation: tryMissStatsBatch() services many configurations from
 * ONE trace pass via the batch engine (core/batch_engine.hh) —
 * memoized configs are answered from cache, the rest share a single
 * decode of the benchmark trace. tryMissStats() is a batch of one,
 * so the batch engine is the evaluator's only simulator. A batch is
 * three public stages — resolve, simulate, remember — so a sweep can
 * simulate elsewhere (worker team, forked workers) and keep the rest.
 *
 * Persistence: with EvaluatorOptions::resultStore set, a second
 * cache level sits between the memo and simulation — a persistent,
 * content-addressed SweepCache (core/sweep_cache.hh). Points
 * resolved there skip the simulation (and, when every point hits,
 * the trace load/generation too); points that do simulate are
 * appended, so interrupted or repeated sweeps pick up where the
 * store left off. Cached results are bit-exact, keeping warm sweeps
 * byte-identical to cold ones.
 *
 * Thread safety: the trace and result caches are guarded by an
 * internal mutex, and each evaluation simulates on private state
 * over the shared read-only trace, so the try* entry points may be
 * called from several sweep workers concurrently. Simulation runs
 * outside the lock; two workers racing on the same key compute
 * identical (deterministic) stats and the first insert wins.
 */

#ifndef TLC_CORE_EVALUATOR_HH
#define TLC_CORE_EVALUATOR_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/sweep_cache.hh"
#include "core/system_config.hh"
#include "trace/workload.hh"
#include "util/status.hh"

namespace tlc {

/**
 * A pool of loaded/generated benchmark traces. Every
 * MissRateEvaluator resolves its traces through one: its own by
 * default, or one shared by several evaluators. The sweep-service
 * daemon (service/sweep_service.hh) builds a FRESH evaluator per
 * request — so every request's memo misses route through the shared
 * persistent store, making cache reuse visible per request — but a
 * fresh evaluator must not re-generate multi-megabyte traces the
 * previous request already paid for. Keyed by SweepCache::traceIdentity, so
 * two evaluators with the same benchmark, length and trace-file
 * routing share one immutable buffer.
 *
 * Thread safety: the pool mutex is held across a load, so
 * concurrent requests for the same trace block until the first load
 * finishes (one load, many readers). Returned pointers stay valid
 * for the pool's lifetime.
 */
class TracePool
{
  public:
    /**
     * The trace named by @p key, loading it with @p loader on first
     * use. A failed load is not cached; the next acquire retries.
     */
    Expected<const TraceBuffer *>
    acquire(const std::string &key,
            const std::function<Expected<TraceBuffer>()> &loader);

    /** Number of distinct traces resident. */
    std::size_t size() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<TraceBuffer>> traces_;
};

/**
 * Construction-time configuration of a MissRateEvaluator. A plain
 * value: build one, adjust fields, hand it to the constructor.
 */
struct EvaluatorOptions
{
    /** References per benchmark trace
     *  (0 => Workloads::defaultTraceLength()). */
    std::uint64_t traceRefs = 0;
    /** Leading fraction of each trace excluded from statistics. */
    double warmupFraction = 0.1;
    /** Benchmarks routed to on-disk trace files (any format
     *  loadTraceFile understands) instead of the synthetic model.
     *  Loads happen lazily at first use. */
    std::map<Benchmark, std::string> traceFiles;
    /** Persistent result store shared across runs (core/
     *  sweep_cache.hh). With one, the evaluator consults the store
     *  between the in-memory memo and simulation, and appends every
     *  freshly simulated result — so repeated and resumed sweeps
     *  skip the trace walks entirely. Null (the default) disables
     *  persistence; a SweepCache that is not open() behaves the
     *  same. */
    std::shared_ptr<SweepCache> resultStore;
    /** Shared trace pool (see TracePool), so short-lived
     *  evaluators (one per served sweep request) reuse
     *  already-loaded traces. Null (the default) gives the
     *  evaluator a private pool of its own. */
    std::shared_ptr<TracePool> tracePool;
};

/**
 * resolveMissStats's answer: what check(), the memo or the store
 * answered, and the rest as lanes to simulate, one per unique memo
 * key (timing-only knobs share a key) in order of first appearance.
 * The counts are this resolution's own ticks of
 * explore.missrate_cache.hits and sweep_cache.{hits,misses}.
 */
struct MissResolution
{
    /** Per input index: its answer, or nullopt when a lane has it. */
    std::vector<std::optional<Expected<HierarchyStats>>> answered;
    std::vector<SystemConfig> lanes;
    std::vector<std::vector<std::size_t>> slots; ///< indices per lane
    std::uint64_t memoHits = 0;    ///< indices the memo answered
    std::uint64_t storeHits = 0;   ///< lanes the store answered
    std::uint64_t storeMisses = 0; ///< lanes it lacked (stale ones aside)
};

/**
 * Runs configurations against benchmark traces. Results depend only
 * on the functional cache parameters, so the memoization key ignores
 * timing-only knobs (off-chip time, dual porting).
 */
class MissRateEvaluator
{
  public:
    explicit MissRateEvaluator(EvaluatorOptions options);

    /**
     * Convenience for the common all-synthetic case.
     * @param trace_refs      references per benchmark trace
     *                        (0 => Workloads::defaultTraceLength())
     * @param warmup_fraction leading fraction excluded from stats
     */
    explicit MissRateEvaluator(std::uint64_t trace_refs = 0,
                               double warmup_fraction = 0.1);

    /**
     * The (lazily loaded/generated, cached) trace of @p b, or the
     * Status explaining why its trace file could not be read. The
     * pointer stays valid for the evaluator's lifetime.
     */
    Expected<const TraceBuffer *> tryTrace(Benchmark b);

    /**
     * Miss statistics of @p config on @p b (memoized), with invalid
     * configurations and unreadable traces reported as a Status
     * instead of aborting. A one-config tryMissStatsBatch().
     */
    Expected<HierarchyStats> tryMissStats(Benchmark b,
                                          const SystemConfig &config);

    /**
     * Miss statistics of every configuration of @p configs on @p b,
     * ordered like the input. Memoized configs are answered from
     * cache; the rest are simulated together in ONE pass over the
     * benchmark trace (deduplicated by memo key first).
     * Failures are per-slot: an invalid config fails its own slot,
     * an unloadable trace fails every non-memoized slot.
     */
    std::vector<Expected<HierarchyStats>> tryMissStatsBatch(
        Benchmark b, std::span<const SystemConfig> configs);

    /** Stage one: answer what check(), the memo and the store can
     *  (a store hit joins the memo); never loads the trace. */
    MissResolution resolveMissStats(Benchmark b,
                                    std::span<const SystemConfig> configs);

    /** Stage two: simulate valid, distinct-key @p configs in ONE
     *  trace pass, without memo or store. An unloadable trace fails
     *  every slot; an empty list loads nothing. */
    std::vector<Expected<HierarchyStats>> simulateMissStats(
        Benchmark b, std::span<const SystemConfig> configs);

    /** Stage three: insert @p stats into the memo, then append it to
     *  the result store when one is attached; true when that append
     *  succeeded. */
    bool rememberMissStats(Benchmark b, const SystemConfig &config,
                           const HierarchyStats &stats);

    std::uint64_t traceRefs() const { return traceRefs_; }
    std::uint64_t warmupRefs() const;

    /** Number of memoized (benchmark, config) results. */
    std::size_t memoSize() const;

    /** True when an open persistent result store is attached. */
    bool hasResultStore() const
    {
        return store_ && store_->enabled();
    }

  private:
    std::string key(Benchmark b, const SystemConfig &c) const;
    std::string storeKeyText(Benchmark b, const SystemConfig &c);

    /** The trace identity of @p b (SweepCache::traceIdentity) and
     *  its trace file ("" when synthetic). The identity is computed
     *  once per benchmark and cached; it never loads the trace. */
    std::pair<std::string, std::string> traceIdentity(Benchmark b);

    /** Load or synthesize the trace of @p b. */
    Expected<TraceBuffer> loadTrace(Benchmark b,
                                    const std::string &trace_file);

    std::uint64_t traceRefs_;
    double warmupFraction_;
    std::shared_ptr<SweepCache> store_;
    std::shared_ptr<TracePool> pool_; ///< never null
    mutable std::mutex mu_; ///< guards the three maps below
    std::map<Benchmark, std::string> traceFiles_;
    std::map<Benchmark, std::string> traceIds_;
    std::map<std::string, HierarchyStats> results_;
};

} // namespace tlc

#endif // TLC_CORE_EVALUATOR_HH
