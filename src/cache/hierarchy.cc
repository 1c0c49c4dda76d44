/**
 * @file
 * Hierarchy base implementation.
 */

#include "hierarchy.hh"

#include "util/metrics.hh"

namespace tlc {

const char *
twoLevelPolicyName(TwoLevelPolicy p)
{
    switch (p) {
      case TwoLevelPolicy::Inclusive:
        return "inclusive";
      case TwoLevelPolicy::StrictInclusive:
        return "strict-inclusive";
      case TwoLevelPolicy::Exclusive:
        return "exclusive";
    }
    return "?";
}

void
recordHierarchyMetrics(const HierarchyStats &s)
{
    // Registered once, then a handful of relaxed adds per finished
    // simulation (millions of simulated references each) — free.
    struct CacheMetrics
    {
        MetricCounter &simulations;
        MetricCounter &instrRefs;
        MetricCounter &dataRefs;
        MetricCounter &l1Hits;
        MetricCounter &l1iMisses;
        MetricCounter &l1dMisses;
        MetricCounter &l2Hits;
        MetricCounter &l2Misses;
        MetricCounter &swaps;
        MetricCounter &writebacks;
    };
    static CacheMetrics m{
        MetricsRegistry::global().counter("cache.simulations"),
        MetricsRegistry::global().counter("cache.refs.instr"),
        MetricsRegistry::global().counter("cache.refs.data"),
        MetricsRegistry::global().counter("cache.l1.hits"),
        MetricsRegistry::global().counter("cache.l1i.misses"),
        MetricsRegistry::global().counter("cache.l1d.misses"),
        MetricsRegistry::global().counter("cache.l2.hits"),
        MetricsRegistry::global().counter("cache.l2.misses"),
        MetricsRegistry::global().counter("cache.l2.exclusive_swaps"),
        MetricsRegistry::global().counter("cache.offchip.writebacks"),
    };
    m.simulations.inc();
    m.instrRefs.inc(s.instrRefs);
    m.dataRefs.inc(s.dataRefs);
    m.l1Hits.inc(s.totalRefs() - s.l1Misses());
    m.l1iMisses.inc(s.l1iMisses);
    m.l1dMisses.inc(s.l1dMisses);
    m.l2Hits.inc(s.l2Hits);
    m.l2Misses.inc(s.l2Misses);
    m.swaps.inc(s.swaps);
    m.writebacks.inc(s.offchipWritebacks);
}

HierarchyStats &
HierarchyStats::operator+=(const HierarchyStats &o)
{
    instrRefs += o.instrRefs;
    dataRefs += o.dataRefs;
    l1iMisses += o.l1iMisses;
    l1dMisses += o.l1dMisses;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    swaps += o.swaps;
    offchipWritebacks += o.offchipWritebacks;
    return *this;
}

void
Hierarchy::simulate(const TraceBuffer &trace, std::uint64_t warmup_refs)
{
    const auto &recs = trace.records();
    std::uint64_t n = recs.size();
    std::uint64_t warm = warmup_refs < n ? warmup_refs : n;
    for (std::uint64_t i = 0; i < warm; ++i)
        access(recs[i]);
    resetStats();
    for (std::uint64_t i = warm; i < n; ++i)
        access(recs[i]);
}

} // namespace tlc
