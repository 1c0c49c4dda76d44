/**
 * @file
 * Cache-hierarchy interface and statistics.
 */

#ifndef TLC_CACHE_HIERARCHY_HH
#define TLC_CACHE_HIERARCHY_HH

#include <cstdint>

#include "trace/buffer.hh"
#include "trace/record.hh"
#include "util/stats.hh"

namespace tlc {

/**
 * Reference and miss counts accumulated by a hierarchy.
 *
 * For a single-level system every L1 miss goes off-chip, so
 * l2Misses counts off-chip accesses and l2Hits is zero; this makes
 * the TPI model a single formula for both system shapes.
 */
struct HierarchyStats
{
    std::uint64_t instrRefs = 0;
    std::uint64_t dataRefs = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Hits = 0;   ///< L1 misses satisfied on-chip
    std::uint64_t l2Misses = 0; ///< L1 misses that went off-chip
    std::uint64_t swaps = 0;    ///< exclusive-policy same-set swaps
    /** Dirty lines leaving the on-chip hierarchy (write-back
     *  traffic; writes are timed as reads per §2.2, but the traffic
     *  itself matters for the write-policy ablation). */
    std::uint64_t offchipWritebacks = 0;

    std::uint64_t totalRefs() const { return instrRefs + dataRefs; }
    std::uint64_t l1Misses() const { return l1iMisses + l1dMisses; }

    /** L1 misses per reference (the paper's "miss rate"). */
    double l1MissRate() const
    {
        return safeRatio(static_cast<double>(l1Misses()),
                         static_cast<double>(totalRefs()));
    }
    /** L2 misses per L2 access (local miss rate). */
    double l2LocalMissRate() const
    {
        return safeRatio(static_cast<double>(l2Misses),
                         static_cast<double>(l2Hits + l2Misses));
    }
    /** Off-chip accesses per reference (global miss rate). */
    double globalMissRate() const
    {
        return safeRatio(static_cast<double>(l2Misses),
                         static_cast<double>(totalRefs()));
    }

    HierarchyStats &operator+=(const HierarchyStats &o);
};

/**
 * Fold one finished simulation's counts into the global metrics
 * registry (cache.l1i.misses, cache.l2.hits, ...), so a run can be
 * audited post-hoc: how many references were actually simulated and
 * what the hierarchy did with them. Called once per simulation by
 * the evaluator — never from the per-reference hot loop, keeping
 * instrumentation out of simulate() entirely.
 */
void recordHierarchyMetrics(const HierarchyStats &s);

/** Content-management policy between the two levels. */
enum class TwoLevelPolicy {
    /**
     * Baseline: L2 allocates on its own misses; the same line may
     * live in both levels; no back-invalidation ("mostly
     * inclusive", the paper's standard two-level caching).
     */
    Inclusive,
    /**
     * Baseline plus strict inclusion: when L2 evicts a line it is
     * also removed from the L1s (Baer–Wang inclusion, useful for
     * multiprocessors; provided for the ablation study).
     */
    StrictInclusive,
    /**
     * Two-level exclusive caching (the paper's contribution): on an
     * L1 miss/L2 hit the L1 victim is written into L2, taking the
     * promoted line's slot when both map to the same L2 set (a
     * swap); on an L2 miss the off-chip refill bypasses L2 and the
     * L1 victim is sent to L2.
     */
    Exclusive
};

/** Human-readable policy name. */
const char *twoLevelPolicyName(TwoLevelPolicy p);

/** Where a reference was satisfied (for timing-aware clients). */
enum class AccessOutcome {
    L1Hit,   ///< satisfied by the first level
    L2Hit,   ///< L1 miss satisfied on-chip
    OffChip  ///< went off-chip
};

/**
 * Abstract cache hierarchy driven record-by-record.
 */
class Hierarchy
{
  public:
    virtual ~Hierarchy() = default;

    /**
     * Process one reference, updating caches and statistics, and
     * report where it was satisfied (the hook for timing-aware
     * clients such as the pipeline simulator).
     */
    virtual AccessOutcome accessClassified(const TraceRecord &rec) = 0;

    /** Process one reference (outcome discarded). */
    void access(const TraceRecord &rec) { (void)accessClassified(rec); }

    /**
     * Remove a line (by line address) from every array of this
     * hierarchy — the hook a third-level cache uses to maintain
     * inclusion of the on-chip contents (paper §8, Baer–Wang [1]).
     * @return how many arrays held the line.
     */
    virtual unsigned invalidateLineAll(std::uint64_t line_addr) = 0;

    /** Zero the statistics, keeping cache contents (for warmup). */
    virtual void resetStats() { stats_ = HierarchyStats{}; }

    const HierarchyStats &stats() const { return stats_; }

    /**
     * Drive a whole trace through the hierarchy: the first
     * @p warmup_refs records warm the caches, statistics cover the
     * rest.
     */
    void simulate(const TraceBuffer &trace, std::uint64_t warmup_refs = 0);

  protected:
    HierarchyStats stats_;
};

} // namespace tlc

#endif // TLC_CACHE_HIERARCHY_HH
