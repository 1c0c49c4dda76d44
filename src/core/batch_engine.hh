/**
 * @file
 * BatchEngine: the config-mapping half of the single-pass
 * multi-configuration simulation engine. It turns a span of
 * SystemConfigs into SimGroup lanes (cache/sim_group.hh), drives the
 * benchmark trace through the group once with the same warmup
 * semantics as Hierarchy::simulate, and hands back HierarchyStats in
 * input order.
 *
 * The point: pricing a design space re-simulates the same trace once
 * per configuration, and the trace walk dominates wall clock. One
 * BatchEngine call decodes the trace once for N configurations; the
 * stats are byte-identical to N separate Hierarchy::simulate runs
 * (differentially enforced by tests/test_batch_engine.cc). It is the
 * only simulator the evaluator calls: a single-config query is a
 * batch of one.
 *
 * Instrumentation: each call is timed under the "sim.batch" profiler
 * phase and counted in the explore.batch.* metrics (groups, lanes,
 * how many lanes ran on the flat fast path).
 */

#ifndef TLC_CORE_BATCH_ENGINE_HH
#define TLC_CORE_BATCH_ENGINE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cache/sim_group.hh"
#include "core/system_config.hh"
#include "trace/buffer.hh"

namespace tlc {

/**
 * Single-pass multi-configuration simulation driver. Stateless: both
 * entry points are class-statics, grouped here so the engine has one
 * name in profiles and docs.
 */
class BatchEngine
{
  public:
    /** Outcome of one batched simulation call. */
    struct Result
    {
        /** Per-config stats, ordered like the input span. */
        std::vector<HierarchyStats> stats;
        std::size_t flatLanes = 0; ///< lanes on the SoA fast path
        /** Lanes on a virtual Hierarchy path: always 0 since every
         *  SimGroup lane is flat; still reported (and counted as
         *  explore.batch.generic_lanes) for the readers of the
         *  lane split. */
        std::size_t genericLanes = 0;
    };

    /**
     * Drive @p trace through @p group: the first @p warmup_refs
     * records warm every lane, statistics cover the rest — exactly
     * Hierarchy::simulate's contract, applied to all lanes in one
     * trace pass.
     */
    static void run(const TraceBuffer &trace, std::uint64_t warmup_refs,
                    SimGroup &group);

    /**
     * Simulate every configuration of @p configs against @p trace in
     * one pass. Each config must already satisfy check(). Lanes use
     * the default seed, so each config's stats equal a solo
     * SingleLevelHierarchy/TwoLevelHierarchy built from its
     * l1Params()/l2Params().
     */
    static Result simulateConfigs(const TraceBuffer &trace,
                                  std::uint64_t warmup_refs,
                                  std::span<const SystemConfig> configs);
};

} // namespace tlc

#endif // TLC_CORE_BATCH_ENGINE_HH
