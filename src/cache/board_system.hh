/**
 * @file
 * Board-level (third-level) cache system.
 *
 * The paper's two off-chip service times model systems *with* a
 * board-level cache (50 ns) and *without* one (200 ns, §7), and §8
 * closes by noting that even under on-chip exclusive caching,
 * "inclusion between the sum of their contents and a third level of
 * off-chip caching can still be maintained for ease of constructing
 * multiprocessor systems [Baer-Wang]". This module builds that
 * third level: any on-chip hierarchy backed by a large off-chip
 * cache, with optional enforcement of inclusion via back-
 * invalidation of on-chip lines when the board cache evicts.
 */

#ifndef TLC_CACHE_BOARD_SYSTEM_HH
#define TLC_CACHE_BOARD_SYSTEM_HH

#include <memory>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"

namespace tlc {

/** Counters specific to the board level. */
struct BoardStats
{
    std::uint64_t l3Hits = 0;
    std::uint64_t l3Misses = 0;          ///< main-memory accesses
    std::uint64_t backInvalidations = 0; ///< on-chip lines removed
    std::uint64_t linesInvalidated = 0;  ///< arrays hit by those
};

/**
 * On-chip hierarchy + off-chip board cache. The board cache sees
 * exactly the on-chip hierarchy's off-chip accesses; with inclusion
 * enabled, every board-cache eviction removes the line from every
 * on-chip array, so the board cache's tags always cover the chip —
 * the property a snooping multiprocessor needs.
 */
class BoardLevelSystem : public Hierarchy
{
  public:
    /**
     * @param onchip        the on-chip hierarchy (owned)
     * @param board_params  board cache geometry (line size must
     *                      match the on-chip caches)
     * @param maintain_inclusion back-invalidate on board evictions
     * @param seed          replacement RNG seed
     */
    BoardLevelSystem(std::unique_ptr<Hierarchy> onchip,
                     const CacheParams &board_params,
                     bool maintain_inclusion = true,
                     std::uint64_t seed = 99);

    AccessOutcome accessClassified(const TraceRecord &rec) override;
    unsigned invalidateLineAll(std::uint64_t line_addr) override;
    void resetStats() override;

    const Hierarchy &onchip() const { return *onchip_; }
    const BoardStats &boardStats() const { return boardStats_; }

    /**
     * Verify the inclusion property right now: every line resident
     * in the given on-chip array is also in the board cache.
     * @return true when inclusion holds for @p onchip_array.
     */
    bool inclusionHolds(const Cache &onchip_array) const;

  private:
    std::unique_ptr<Hierarchy> onchip_;
    Cache board_;
    bool maintainInclusion_;
    BoardStats boardStats_;
};

} // namespace tlc

#endif // TLC_CACHE_BOARD_SYSTEM_HH
