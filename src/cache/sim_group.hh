/**
 * @file
 * SimGroup: N independent cache hierarchies driven in lock-step over
 * one decoded trace — the cache-layer half of the single-pass
 * multi-configuration simulation engine (src/core/batch_engine.hh is
 * the config-mapping half).
 *
 * Sweeping the paper's design space the obvious way re-walks the
 * same multi-million-reference trace once per configuration, and on
 * this machine the trace walk dominates wall clock. SimGroup inverts
 * the loop: the trace is decoded once and each reference is applied
 * to every registered lane, block by block, so the trace data
 * streams through the L1 of the *host* once per block instead of
 * once per configuration.
 *
 * SimGroup itself is the grouping layer: it decides which lanes can
 * share simulated state and which structure-of-arrays flavour each
 * one runs on. The lane layouts and their vectorized kernels live in
 * cache/simd_lanes.hh (dispatched at runtime over the SIMD backends
 * compiled into the binary — scalar always, AVX2/NEON per
 * architecture, forced with TLC_SIMD or setSimdBackend()):
 *
 *  - SharedL1Group — all lanes over one L1, keyed by (size, line,
 *    ways, replacement policy; plus the seed for a Random
 *    associative L1), whose L2 side never reaches back into the L1:
 *    plain-inclusive and §8 exclusive two-level lanes (private L2s
 *    replayed from a shared miss queue, with a refill or a swap step
 *    respectively) and L1-only lanes (bit-identical, one shared
 *    stats block). An L2-capacity sweep over a fixed L1 costs one L1
 *    simulation instead of N. Direct-mapped and set-associative L1s
 *    of the same size and line land in different groups.
 *  - StrictLaneBlock — strict-inclusive lanes, which need private
 *    L1s (back-invalidation), interleaved per (set, way) so vector
 *    compares answer every lane's L1 lookup at once; one kernel
 *    serves every L1 associativity. Direct-mapped L1s share a block
 *    whatever replacement policy they name (it is unobservable).
 *
 * These two layouts cover every shape SimGroup accepts, so there is
 * one kind of lane. Solo SingleLevelHierarchy/TwoLevelHierarchy
 * remain the reference model the differentials check the lanes
 * against.
 *
 * Equivalence contract: every lane produces HierarchyStats
 * byte-identical to running the corresponding Hierarchy alone over
 * the same records — including replacement RNG draw sequences,
 * LRU/FIFO ordering and write-back accounting, on every SIMD
 * backend (tests/test_batch_engine.cc enforces this differentially
 * across every hierarchy shape and backend).
 *
 * Thread safety: none — a SimGroup is built, run and read by one
 * thread. Batched sweeps get their parallelism by giving each worker
 * its own SimGroup over the shared read-only trace.
 */

#ifndef TLC_CACHE_SIM_GROUP_HH
#define TLC_CACHE_SIM_GROUP_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/params.hh"
#include "cache/simd_lanes.hh"
#include "trace/record.hh"

namespace tlc {

/**
 * A group of independent cache hierarchies simulated in one trace
 * pass. Add every lane, then drive records through accessRange();
 * stats are read back per lane by the index add*() returned. Adding
 * a lane after records have run is a caller bug and fatal: the lane
 * would join state that is no longer cold.
 */
class SimGroup
{
  public:
    /**
     * Add a split-L1-only system (SingleLevelHierarchy semantics). It
     * joins the SharedL1Group of its L1 shape.
     * @return the new lane's index.
     */
    std::size_t addSingleLevel(const CacheParams &l1_params,
                               std::uint64_t seed = 1);

    /**
     * Add a two-level system (TwoLevelHierarchy semantics): inclusive
     * and exclusive lanes join the SharedL1Group of their L1 shape,
     * strict-inclusive lanes a StrictLaneBlock. Both levels must
     * share one line size (TwoLevelHierarchy requires it too);
     * anything else is a caller bug and fatal.
     * @return the new lane's index.
     */
    std::size_t addTwoLevel(const CacheParams &l1_params,
                            const CacheParams &l2_params,
                            TwoLevelPolicy policy, std::uint64_t seed = 1);

    std::size_t laneCount() const { return lanes_.size(); }

    /**
     * Apply @p n records to every lane. Records are processed in
     * blocks, lane-major within a block, so each lane's tag state
     * stays hot while the block is replayed against it. The lanes
     * run through the kernel set of the active SIMD backend
     * (util/simd.hh), resolved per call.
     */
    void accessRange(const TraceRecord *recs, std::size_t n);

    /** Zero every lane's statistics, keeping cache contents. */
    void resetStats();

    /** Statistics of one lane. */
    const HierarchyStats &stats(std::size_t lane) const;

  private:
    enum class LaneKind : std::uint8_t {
        SharedSingle, ///< L1-only member of a SharedL1Group
        SharedSub,    ///< plain-inclusive member of a SharedL1Group
        SharedExcl,   ///< exclusive member of a SharedL1Group
        Strict        ///< lane inside a StrictLaneBlock
    };
    struct LaneRef
    {
        LaneKind kind;
        std::uint32_t index;   ///< group/block index
        std::uint32_t sub = 0; ///< sub in group / lane in block
    };

    /**
     * Group with a matching L1 shape (and, for a Random associative
     * L1, hierarchy seed @p seed), created on first use.
     */
    lanes::SharedL1Group &sharedGroupFor(const CacheParams &l1_params,
                                         std::uint64_t seed);

    /**
     * Strict block with a matching L1 shape and a free lane slot,
     * created on first use or when every match is full.
     */
    std::uint32_t strictBlockFor(const CacheParams &l1_params);

    std::vector<LaneRef> lanes_;
    std::vector<lanes::SharedL1Group> sharedGroups_;
    std::vector<lanes::StrictLaneBlock> strictBlocks_;
    /** Set once records have been driven; guards the add-first
     *  precondition (see the class comment). */
    bool accessed_ = false;
};

} // namespace tlc

#endif // TLC_CACHE_SIM_GROUP_HH
