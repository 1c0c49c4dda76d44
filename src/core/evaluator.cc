/**
 * @file
 * Miss-rate evaluator implementation.
 */

#include "evaluator.hh"

#include <optional>
#include <sstream>

#include "cache/single_level.hh"
#include "core/batch_engine.hh"
#include "trace/io.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/profiler.hh"

namespace tlc {

namespace {

/** Evaluator metrics, registered once and shared by all sites. */
struct EvalMetrics
{
    MetricCounter &memoHits;
    MetricCounter &memoMisses;
    MetricCounter &tracesGenerated;
    MetricCounter &syntheticRecords;

    static EvalMetrics &get()
    {
        static EvalMetrics m{
            MetricsRegistry::global().counter(
                "explore.missrate_cache.hits"),
            MetricsRegistry::global().counter(
                "explore.missrate_cache.misses"),
            MetricsRegistry::global().counter(
                "trace.synthetic.generated"),
            MetricsRegistry::global().counter(
                "trace.synthetic.records"),
        };
        return m;
    }
};

} // namespace

Expected<const TraceBuffer *>
TracePool::acquire(const std::string &key,
                   const std::function<Expected<TraceBuffer>()> &loader)
{
    // Held across the load on purpose: one load, many readers.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = traces_.find(key);
    if (it != traces_.end())
        return static_cast<const TraceBuffer *>(it->second.get());

    Expected<TraceBuffer> loaded = loader();
    if (!loaded.ok())
        return loaded.status();
    it = traces_
             .emplace(key, std::make_unique<TraceBuffer>(
                               std::move(loaded.value())))
             .first;
    return static_cast<const TraceBuffer *>(it->second.get());
}

std::size_t
TracePool::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return traces_.size();
}

MissRateEvaluator::MissRateEvaluator(EvaluatorOptions options)
    : traceRefs_(options.traceRefs ? options.traceRefs
                                   : Workloads::defaultTraceLength()),
      warmupFraction_(options.warmupFraction),
      store_(std::move(options.resultStore)),
      pool_(options.tracePool ? std::move(options.tracePool)
                              : std::make_shared<TracePool>()),
      traceFiles_(std::move(options.traceFiles))
{
    tlc_assert(warmupFraction_ >= 0.0 && warmupFraction_ < 1.0,
               "warmup fraction %f out of range", warmupFraction_);
}

MissRateEvaluator::MissRateEvaluator(std::uint64_t trace_refs,
                                     double warmup_fraction)
    : MissRateEvaluator(EvaluatorOptions{trace_refs, warmup_fraction, {}})
{
}

std::uint64_t
MissRateEvaluator::warmupRefs() const
{
    return static_cast<std::uint64_t>(
        warmupFraction_ * static_cast<double>(traceRefs_));
}

std::size_t
MissRateEvaluator::memoSize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return results_.size();
}

Expected<TraceBuffer>
MissRateEvaluator::loadTrace(Benchmark b, const std::string &trace_file)
{
    ScopedTimer timer(phase::kTraceLoad);
    if (!trace_file.empty()) {
        TraceBuffer buf;
        Status s = loadTraceFile(trace_file, buf);
        if (!s.ok()) {
            return s.withContext(std::string("benchmark '") +
                                 Workloads::info(b).name + "'");
        }
        if (buf.empty()) {
            return statusf(StatusCode::IoError,
                           "benchmark '%s': trace file '%s' holds no "
                           "records", Workloads::info(b).name,
                           trace_file.c_str());
        }
        return buf;
    }

    TraceBuffer buf = Workloads::generate(b, traceRefs_);
    EvalMetrics::get().tracesGenerated.inc();
    EvalMetrics::get().syntheticRecords.inc(buf.size());
    return buf;
}

std::pair<std::string, std::string>
MissRateEvaluator::traceIdentity(Benchmark b)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto fit = traceFiles_.find(b);
    std::string traceFile =
        fit == traceFiles_.end() ? std::string() : fit->second;
    auto it = traceIds_.find(b);
    if (it == traceIds_.end()) {
        it = traceIds_
                 .emplace(b, SweepCache::traceIdentity(b, traceRefs_,
                                                       traceFile))
                 .first;
    }
    return {it->second, std::move(traceFile)};
}

Expected<const TraceBuffer *>
MissRateEvaluator::tryTrace(Benchmark b)
{
    // The pool is keyed by trace identity, so evaluators sharing a
    // pool (one per served sweep request) never re-generate a trace
    // an earlier one already paid for. The pool's own mutex
    // serializes loads, and a half-loaded trace is never visible.
    auto [id, traceFile] = traceIdentity(b);
    return pool_->acquire(id, [&] { return loadTrace(b, traceFile); });
}

std::string
MissRateEvaluator::key(Benchmark b, const SystemConfig &c) const
{
    std::ostringstream os;
    os << static_cast<int>(b) << ":" << c.missKeyString();
    return os.str();
}

std::string
MissRateEvaluator::storeKeyText(Benchmark b, const SystemConfig &c)
{
    // The identity deliberately does NOT load the trace, so a fully
    // warm sweep never touches trace bytes.
    return SweepCache::keyText(traceIdentity(b).first, warmupRefs(), c);
}

std::unique_ptr<Hierarchy>
MissRateEvaluator::makeHierarchy(const SystemConfig &config)
{
    if (config.hasL2()) {
        return std::make_unique<TwoLevelHierarchy>(
            config.l1Params(), config.l2Params(), config.assume.policy);
    }
    return std::make_unique<SingleLevelHierarchy>(config.l1Params());
}

Expected<HierarchyStats>
MissRateEvaluator::tryMissStats(Benchmark b, const SystemConfig &config)
{
    Status cs = config.check();
    if (!cs.ok())
        return cs;

    std::string k = key(b, config);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = results_.find(k);
        if (it != results_.end()) {
            EvalMetrics::get().memoHits.inc();
            return it->second;
        }
    }
    EvalMetrics::get().memoMisses.inc();

    // Second cache level: the persistent store. A hit skips the
    // trace load and the simulation entirely.
    if (hasResultStore()) {
        std::string text = storeKeyText(b, config);
        if (std::optional<HierarchyStats> cached = store_->lookup(text)) {
            std::lock_guard<std::mutex> lock(mu_);
            return results_.emplace(k, *cached).first->second;
        }
    }

    Expected<const TraceBuffer *> t = tryTrace(b);
    if (!t.ok())
        return t.status();

    // Simulate outside the lock on a per-call hierarchy; the trace
    // buffer is read-only and its map node is never erased, so the
    // pointer stays valid while workers share it.
    std::unique_ptr<Hierarchy> h = makeHierarchy(config);
    {
        ScopedTimer timer(config.hasL2() ? phase::kSimL2
                                         : phase::kSimL1);
        h->simulate(*t.value(), warmupRefs());
    }
    recordHierarchyMetrics(h->stats());
    if (hasResultStore())
        store_->store(storeKeyText(b, config), h->stats());

    std::lock_guard<std::mutex> lock(mu_);
    return results_.emplace(k, h->stats()).first->second;
}

std::vector<Expected<HierarchyStats>>
MissRateEvaluator::tryMissStatsBatch(Benchmark b,
                                     std::span<const SystemConfig> configs)
{
    // Placeholder status for slots resolved later; every slot is
    // overwritten before the function returns.
    const Status pending =
        statusf(StatusCode::InternalError, "batch slot not resolved");

    std::vector<Expected<HierarchyStats>> out;
    out.reserve(configs.size());
    std::vector<std::size_t> missing;   ///< slot index -> configs index
    std::vector<std::size_t> missingLane; ///< slot index -> lane index
    std::vector<SystemConfig> laneConfigs; ///< one per unique memo key
    std::vector<std::string> laneKeys;
    std::map<std::string, std::size_t> laneOf;

    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            Status cs = configs[i].check();
            if (!cs.ok()) {
                out.emplace_back(std::move(cs));
                continue;
            }
            std::string k = key(b, configs[i]);
            auto it = results_.find(k);
            if (it != results_.end()) {
                EvalMetrics::get().memoHits.inc();
                out.emplace_back(it->second);
                continue;
            }
            out.emplace_back(pending);
            missing.push_back(i);
            auto [lit, inserted] =
                laneOf.emplace(std::move(k), laneConfigs.size());
            if (inserted) {
                laneConfigs.push_back(configs[i]);
                laneKeys.push_back(lit->first);
            }
            missingLane.push_back(lit->second);
        }
    }
    if (missing.empty())
        return out;
    EvalMetrics::get().memoMisses.inc(laneConfigs.size());

    // Second cache level: resolve lanes from the persistent store
    // before touching the trace. laneStats[lane] ends up holding
    // each lane's statistics however they were obtained; only the
    // lanes the store could not answer simulate, and when that set
    // is empty the trace is never loaded or generated at all.
    std::vector<std::optional<HierarchyStats>> laneStats(
        laneConfigs.size());
    std::vector<std::string> laneText(laneConfigs.size());
    std::vector<std::size_t> simLanes;
    if (hasResultStore()) {
        for (std::size_t lane = 0; lane < laneConfigs.size(); ++lane) {
            laneText[lane] = storeKeyText(b, laneConfigs[lane]);
            laneStats[lane] = store_->lookup(laneText[lane]);
            if (!laneStats[lane])
                simLanes.push_back(lane);
        }
    } else {
        for (std::size_t lane = 0; lane < laneConfigs.size(); ++lane)
            simLanes.push_back(lane);
    }

    // Timing-only knobs collapse onto one memo key, so each unique
    // key simulates exactly once — one lane — and the whole group
    // shares a single pass over the trace.
    Status traceFailure;
    if (!simLanes.empty()) {
        Expected<const TraceBuffer *> t = tryTrace(b);
        if (!t.ok()) {
            traceFailure = t.status();
        } else {
            std::vector<SystemConfig> simConfigs;
            simConfigs.reserve(simLanes.size());
            for (std::size_t lane : simLanes)
                simConfigs.push_back(laneConfigs[lane]);
            BatchEngine::Result batch = BatchEngine::simulateConfigs(
                *t.value(), warmupRefs(), simConfigs);
            for (std::size_t j = 0; j < simLanes.size(); ++j) {
                laneStats[simLanes[j]] = batch.stats[j];
                recordHierarchyMetrics(batch.stats[j]);
                if (hasResultStore())
                    store_->store(laneText[simLanes[j]],
                                  batch.stats[j]);
            }
        }
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t lane = 0; lane < laneKeys.size(); ++lane) {
            if (laneStats[lane])
                results_.emplace(laneKeys[lane], *laneStats[lane]);
        }
    }
    for (std::size_t j = 0; j < missing.size(); ++j) {
        const std::optional<HierarchyStats> &s =
            laneStats[missingLane[j]];
        out[missing[j]] = s ? Expected<HierarchyStats>(*s)
                            : Expected<HierarchyStats>(traceFailure);
    }
    return out;
}

void
MissRateEvaluator::simulate(Benchmark b, Hierarchy &h)
{
    Expected<const TraceBuffer *> t = tryTrace(b);
    tlc_assert(t.ok(), "trace unavailable: %s",
               t.status().message().c_str());
    h.simulate(*t.value(), warmupRefs());
}

} // namespace tlc
