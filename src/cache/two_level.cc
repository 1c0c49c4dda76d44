/**
 * @file
 * Two-level hierarchy implementation.
 */

#include "two_level.hh"

#include "util/logging.hh"

namespace tlc {

TwoLevelHierarchy::TwoLevelHierarchy(const CacheParams &l1_params,
                                     const CacheParams &l2_params,
                                     TwoLevelPolicy policy,
                                     std::uint64_t seed)
    : icache_(l1_params, seed), dcache_(l1_params, seed + 1),
      l2_(l2_params, seed + 2), policy_(policy)
{
    if (l2_params.lineBytes != l1_params.lineBytes)
        fatal("L1 and L2 line sizes must match (%u vs %u)",
              l1_params.lineBytes, l2_params.lineBytes);
}

AccessOutcome
TwoLevelHierarchy::accessClassified(const TraceRecord &rec)
{
    bool is_instr = rec.type == RefType::Instr;
    bool is_store = rec.type == RefType::Store;
    Cache &l1 = is_instr ? icache_ : dcache_;

    if (is_instr)
        ++stats_.instrRefs;
    else
        ++stats_.dataRefs;

    if (l1.lookupAndTouch(rec.addr, is_store))
        return AccessOutcome::L1Hit;

    if (is_instr)
        ++stats_.l1iMisses;
    else
        ++stats_.l1dMisses;

    if (policy_ == TwoLevelPolicy::Exclusive)
        return accessExclusive(l1, rec.addr, is_store);
    return accessInclusive(l1, rec.addr, is_store);
}

AccessOutcome
TwoLevelHierarchy::accessInclusive(Cache &l1, std::uint64_t addr,
                                   bool is_store)
{
    // Refill L1; the victim's data is written back into L2 if its
    // line is still there (address mapping unchanged, paper Fig.
    // 21-b discussion).
    Cache::Victim l1_victim = l1.fill(addr, is_store);
    if (l1_victim.valid && l1_victim.dirty) {
        std::uint64_t victim_byte_addr = l1_victim.lineAddr
            << l1.lineShift();
        if (l2_.contains(victim_byte_addr))
            l2_.setDirty(victim_byte_addr);
        else
            ++stats_.offchipWritebacks; // write-back bypasses L2
    }

    if (l2_.lookupAndTouch(addr)) {
        ++stats_.l2Hits;
        return AccessOutcome::L2Hit;
    }
    ++stats_.l2Misses;
    Cache::Victim l2_victim = l2_.fill(addr);
    if (l2_victim.valid && l2_victim.dirty)
        ++stats_.offchipWritebacks;
    if (policy_ == TwoLevelPolicy::StrictInclusive && l2_victim.valid) {
        // Maintain inclusion: a line leaving L2 may not stay in L1.
        icache_.invalidateLine(l2_victim.lineAddr);
        dcache_.invalidateLine(l2_victim.lineAddr);
    }
    return AccessOutcome::OffChip;
}

AccessOutcome
TwoLevelHierarchy::accessExclusive(Cache &l1, std::uint64_t addr,
                                   bool is_store)
{
    // Probe L2 first so we know whether the promoted line is there;
    // the line is NOT removed from L2 on a hit — it is displaced
    // only if the L1 victim lands on it (the swap).
    bool l2_hit = l2_.lookupAndTouch(addr);
    if (l2_hit)
        ++stats_.l2Hits;
    else
        ++stats_.l2Misses; // refill comes straight from off-chip

    Cache::Victim l1_victim = l1.fill(addr, is_store);
    if (l1_victim.valid) {
        bool swapped = false;
        Cache::Victim l2_victim = l2_.insertLinePreferring(
            l1_victim.lineAddr, l1_victim.dirty, l2_.lineAddrOf(addr),
            l2_hit, &swapped);
        if (swapped)
            ++stats_.swaps;
        if (l2_victim.valid && l2_victim.dirty)
            ++stats_.offchipWritebacks;
    }
    return l2_hit ? AccessOutcome::L2Hit : AccessOutcome::OffChip;
}

unsigned
TwoLevelHierarchy::invalidateLineAll(std::uint64_t line_addr)
{
    unsigned n = 0;
    n += icache_.invalidateLine(line_addr);
    n += dcache_.invalidateLine(line_addr);
    n += l2_.invalidateLine(line_addr);
    return n;
}

} // namespace tlc
