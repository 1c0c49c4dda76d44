/**
 * @file
 * Two-level hierarchy: split direct-mapped-style L1 caches backed by
 * a mixed (unified) L2, with the baseline replacement scheme or the
 * paper's two-level exclusive caching (Section 8).
 */

#ifndef TLC_CACHE_TWO_LEVEL_HH
#define TLC_CACHE_TWO_LEVEL_HH

#include "cache/cache.hh"
#include "cache/hierarchy.hh"

namespace tlc {

/**
 * Split L1 (instruction + data, same geometry) with a mixed L2.
 */
class TwoLevelHierarchy : public Hierarchy
{
  public:
    /**
     * @param l1_params geometry of EACH of the I and D caches
     * @param l2_params geometry of the mixed L2
     * @param policy    content-management policy
     * @param seed      replacement RNG seed
     */
    TwoLevelHierarchy(const CacheParams &l1_params,
                      const CacheParams &l2_params, TwoLevelPolicy policy,
                      std::uint64_t seed = 1);

    AccessOutcome accessClassified(const TraceRecord &rec) override;
    unsigned invalidateLineAll(std::uint64_t line_addr) override;

    const Cache &icache() const { return icache_; }
    const Cache &dcache() const { return dcache_; }
    const Cache &l2cache() const { return l2_; }
    TwoLevelPolicy policy() const { return policy_; }

  private:
    AccessOutcome accessInclusive(Cache &l1, std::uint64_t addr,
                                  bool is_store);
    AccessOutcome accessExclusive(Cache &l1, std::uint64_t addr,
                                  bool is_store);

    Cache icache_;
    Cache dcache_;
    Cache l2_;
    TwoLevelPolicy policy_;
};

} // namespace tlc

#endif // TLC_CACHE_TWO_LEVEL_HH
