/**
 * @file
 * Miss-rate evaluator implementation.
 */

#include "evaluator.hh"

#include <sstream>

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

/** Options for the (trace_refs, warmup_fraction) constructor; every
 *  other field keeps its default. */
EvaluatorOptions
optionsFor(std::uint64_t trace_refs, double warmup_fraction)
{
    EvaluatorOptions o;
    o.traceRefs = trace_refs;
    o.warmupFraction = warmup_fraction;
    return o;
}

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
    : MissRateEvaluator(optionsFor(trace_refs, warmup_fraction))
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

Expected<HierarchyStats>
MissRateEvaluator::tryMissStats(Benchmark b, const SystemConfig &config)
{
    return tryMissStatsBatch(b, {&config, 1})[0];
}

std::vector<Expected<HierarchyStats>>
MissRateEvaluator::tryMissStatsBatch(Benchmark b,
                                     std::span<const SystemConfig> configs)
{
    MissResolution r = resolveMissStats(b, configs);
    const auto stats = simulateMissStats(b, r.lanes);
    for (std::size_t lane = 0; lane < r.lanes.size(); ++lane) {
        if (stats[lane].ok())
            rememberMissStats(b, r.lanes[lane], stats[lane].value());
        for (std::size_t i : r.slots[lane])
            r.answered[i].emplace(stats[lane]);
    }
    std::vector<Expected<HierarchyStats>> out;
    out.reserve(configs.size());
    for (std::optional<Expected<HierarchyStats>> &a : r.answered)
        out.push_back(std::move(*a));
    return out;
}

MissResolution
MissRateEvaluator::resolveMissStats(Benchmark b,
                                    std::span<const SystemConfig> configs)
{
    MissResolution r;
    r.answered.resize(configs.size());
    std::vector<std::string> laneKeys;
    {
        std::map<std::string, std::size_t> laneOf;
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            Status cs = configs[i].check();
            if (!cs.ok()) {
                r.answered[i].emplace(std::move(cs));
                continue;
            }
            std::string k = key(b, configs[i]);
            auto it = results_.find(k);
            if (it != results_.end()) {
                EvalMetrics::get().memoHits.inc();
                ++r.memoHits;
                r.answered[i].emplace(it->second);
                continue;
            }
            auto [lit, inserted] =
                laneOf.emplace(std::move(k), laneKeys.size());
            if (inserted) {
                laneKeys.push_back(lit->first);
                r.lanes.push_back(configs[i]);
                r.slots.emplace_back();
            }
            r.slots[lit->second].push_back(i);
        }
    }
    EvalMetrics::get().memoMisses.inc(r.lanes.size());
    if (!hasResultStore())
        return r;

    // Second cache level: the store answers lanes before anything
    // touches the trace, and its hits join the memo.
    std::size_t kept = 0;
    for (std::size_t lane = 0; lane < r.lanes.size(); ++lane) {
        SweepCacheOutcome outcome{};
        if (auto s = store_->lookup(storeKeyText(b, r.lanes[lane]),
                                    &outcome)) {
            ++r.storeHits;
            {
                std::lock_guard<std::mutex> lock(mu_);
                results_.emplace(laneKeys[lane], *s);
            }
            for (std::size_t i : r.slots[lane])
                r.answered[i].emplace(*s);
            continue;
        }
        if (outcome == SweepCacheOutcome::Miss)
            ++r.storeMisses;
        if (kept != lane) { // a self-move would empty the slots
            r.lanes[kept] = std::move(r.lanes[lane]);
            r.slots[kept] = std::move(r.slots[lane]);
        }
        ++kept;
    }
    r.lanes.resize(kept);
    r.slots.resize(kept);
    return r;
}

std::vector<Expected<HierarchyStats>>
MissRateEvaluator::simulateMissStats(Benchmark b,
                                     std::span<const SystemConfig> configs)
{
    if (configs.empty())
        return {};
    Expected<const TraceBuffer *> t = tryTrace(b);
    if (!t.ok())
        return {configs.size(), Expected<HierarchyStats>(t.status())};
    BatchEngine::Result batch =
        BatchEngine::simulateConfigs(*t.value(), warmupRefs(), configs);
    for (const HierarchyStats &s : batch.stats)
        recordHierarchyMetrics(s);
    return {batch.stats.begin(), batch.stats.end()};
}

bool
MissRateEvaluator::rememberMissStats(Benchmark b, const SystemConfig &config,
                                     const HierarchyStats &stats)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        results_.emplace(key(b, config), stats);
    }
    return hasResultStore() && store_->store(storeKeyText(b, config), stats);
}

} // namespace tlc
