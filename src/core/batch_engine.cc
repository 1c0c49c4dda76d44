/**
 * @file
 * BatchEngine implementation.
 */

#include "batch_engine.hh"

#include "util/metrics.hh"
#include "util/profiler.hh"

namespace tlc {

namespace {

/** Batch-engine metrics, registered once and shared by all sites. */
struct BatchMetrics
{
    MetricCounter &groups;
    MetricCounter &lanes;
    MetricCounter &fastLanes;
    MetricCounter &genericLanes;

    static BatchMetrics &get()
    {
        static BatchMetrics m{
            MetricsRegistry::global().counter("explore.batch.groups"),
            MetricsRegistry::global().counter("explore.batch.lanes"),
            MetricsRegistry::global().counter("explore.batch.fast_lanes"),
            MetricsRegistry::global().counter(
                "explore.batch.generic_lanes"),
        };
        return m;
    }
};

} // namespace

void
BatchEngine::run(const TraceBuffer &trace, std::uint64_t warmup_refs,
                 SimGroup &group)
{
    const auto &recs = trace.records();
    std::uint64_t n = recs.size();
    std::uint64_t warm = warmup_refs < n ? warmup_refs : n;
    group.accessRange(recs.data(), static_cast<std::size_t>(warm));
    group.resetStats();
    group.accessRange(recs.data() + warm,
                      static_cast<std::size_t>(n - warm));
}

BatchEngine::Result
BatchEngine::simulateConfigs(const TraceBuffer &trace,
                             std::uint64_t warmup_refs,
                             std::span<const SystemConfig> configs)
{
    SimGroup group;
    for (const SystemConfig &c : configs) {
        if (c.hasL2()) {
            group.addTwoLevel(c.l1Params(), c.l2Params(),
                              c.assume.policy);
        } else {
            group.addSingleLevel(c.l1Params());
        }
    }

    {
        ScopedTimer timer(phase::kSimBatch);
        run(trace, warmup_refs, group);
    }

    Result r;
    r.stats.reserve(configs.size());
    for (std::size_t lane = 0; lane < group.laneCount(); ++lane)
        r.stats.push_back(group.stats(lane));
    r.flatLanes = group.flatLaneCount();

    BatchMetrics &m = BatchMetrics::get();
    m.groups.inc();
    m.lanes.inc(group.laneCount());
    m.fastLanes.inc(r.flatLanes);
    m.genericLanes.inc(r.genericLanes);
    return r;
}

} // namespace tlc
