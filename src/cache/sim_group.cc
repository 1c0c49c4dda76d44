/**
 * @file
 * SimGroup implementation: lane grouping over the data-oriented lane
 * layouts in cache/simd_lanes.hh and the blocked lane-major trace
 * loop.
 */

#include "sim_group.hh"

#include "util/logging.hh"
#include "util/simd.hh"

namespace tlc {

namespace {

/**
 * Records per block of the lane-major loop. Large enough to amortize
 * the per-lane dispatch, small enough that a block plus one lane's
 * hot sets stay cache-resident while the block replays — and for
 * SharedL1Groups, that one block's L1 miss queue fits comfortably in
 * the host L2 while it is replayed per member.
 */
constexpr std::size_t kBlockRecords = 4096;

/**
 * Do two L1s behave identically? Size, line and ways always count;
 * the replacement policy only when there is a choice of way (a
 * direct-mapped L1's policy and RNG are unobservable).
 */
bool
sameL1Shape(const CacheParams &a, const CacheParams &b)
{
    return a.sizeBytes == b.sizeBytes && a.lineBytes == b.lineBytes &&
           a.ways() == b.ways() && (a.ways() == 1 || a.repl == b.repl);
}

} // namespace

lanes::SharedL1Group &
SimGroup::sharedGroupFor(const CacheParams &l1_params, std::uint64_t seed)
{
    // Random replacement in an associative L1 draws from the lane's
    // seed, so only lanes with equal seeds may share that L1.
    bool seeded = l1_params.ways() > 1 && l1_params.repl == ReplPolicy::Random;
    for (lanes::SharedL1Group &g : sharedGroups_) {
        if (sameL1Shape(g.l1Params, l1_params) &&
            (!seeded || g.l1Seed == seed))
            return g;
    }
    sharedGroups_.emplace_back(l1_params, seed);
    return sharedGroups_.back();
}

std::uint32_t
SimGroup::strictBlockFor(const CacheParams &l1_params)
{
    for (std::uint32_t b = 0; b < strictBlocks_.size(); ++b) {
        const lanes::StrictLaneBlock &blk = strictBlocks_[b];
        if (sameL1Shape(blk.l1Params, l1_params) &&
            blk.width() < lanes::StrictLaneBlock::kMaxBlockLanes)
            return b;
    }
    strictBlocks_.emplace_back(l1_params);
    return static_cast<std::uint32_t>(strictBlocks_.size() - 1);
}

std::size_t
SimGroup::addSingleLevel(const CacheParams &l1_params, std::uint64_t seed)
{
    tlc_assert(!accessed_, "SimGroup lane added after records ran");
    // Same-shape L1s evolve identically, so every such lane shares
    // one group's L1 walk and stats block.
    lanes::SharedL1Group &g = sharedGroupFor(l1_params, seed);
    ++g.singleMembers;
    std::uint32_t group =
        static_cast<std::uint32_t>(&g - sharedGroups_.data());
    lanes_.push_back({LaneKind::SharedSingle, group});
    return lanes_.size() - 1;
}

std::size_t
SimGroup::addTwoLevel(const CacheParams &l1_params,
                      const CacheParams &l2_params, TwoLevelPolicy policy,
                      std::uint64_t seed)
{
    tlc_assert(!accessed_, "SimGroup lane added after records ran");
    // The lanes replay L1 misses as line numbers (lanes::L1Miss).
    tlc_assert(l1_params.lineBytes == l2_params.lineBytes,
               "SimGroup lane with L1 line %u != L2 line %u",
               l1_params.lineBytes, l2_params.lineBytes);
    if (policy != TwoLevelPolicy::StrictInclusive) {
        // Non-strict inclusion and §8 exclusion: the L2 never writes
        // back into L1 state (the L1 only fills on a miss), so lanes
        // sharing an L1 shape share one simulated L1 and fan out
        // over the recorded miss stream.
        lanes::SharedL1Group &g = sharedGroupFor(l1_params, seed);
        bool excl = policy == TwoLevelPolicy::Exclusive;
        std::vector<lanes::SharedL1Group::Sub> &subs =
            excl ? g.exclSubs : g.subs;
        subs.emplace_back(l2_params, seed + 2);
        std::uint32_t group =
            static_cast<std::uint32_t>(&g - sharedGroups_.data());
        lanes_.push_back({excl ? LaneKind::SharedExcl : LaneKind::SharedSub,
                          group,
                          static_cast<std::uint32_t>(subs.size() - 1)});
    } else {
        // Strict inclusion back-invalidates L1 lines, so each lane
        // keeps a private L1 — interleaved with its same-shape peers
        // for the vectorized probe.
        std::uint32_t block = strictBlockFor(l1_params);
        std::uint32_t lane = strictBlocks_[block].addLane(l2_params, seed);
        lanes_.push_back({LaneKind::Strict, block, lane});
    }
    return lanes_.size() - 1;
}

void
SimGroup::accessRange(const TraceRecord *recs, std::size_t n)
{
    accessed_ = accessed_ || n > 0;
    const lanes::LaneKernels &k =
        lanes::laneKernelsFor(activeSimdBackend());
    for (std::size_t ofs = 0; ofs < n; ofs += kBlockRecords) {
        std::size_t len = n - ofs;
        if (len > kBlockRecords)
            len = kBlockRecords;
        const TraceRecord *block = recs + ofs;
        if (!sharedGroups_.empty())
            k.runShared(sharedGroups_.data(), sharedGroups_.size(),
                        block, len);
        for (lanes::StrictLaneBlock &blk : strictBlocks_)
            k.runStrict(blk, block, len);
    }
}

void
SimGroup::resetStats()
{
    for (lanes::SharedL1Group &group : sharedGroups_) {
        group.singleStats = HierarchyStats{};
        for (lanes::SharedL1Group::Sub &s : group.subs)
            s.stats = HierarchyStats{};
        for (lanes::SharedL1Group::Sub &s : group.exclSubs)
            s.stats = HierarchyStats{};
    }
    for (lanes::StrictLaneBlock &blk : strictBlocks_) {
        for (HierarchyStats &s : blk.stats)
            s = HierarchyStats{};
    }
}

const HierarchyStats &
SimGroup::stats(std::size_t lane) const
{
    tlc_assert(lane < lanes_.size(), "lane %zu out of range", lane);
    const LaneRef &ref = lanes_[lane];
    switch (ref.kind) {
      case LaneKind::SharedSingle:
        return sharedGroups_[ref.index].singleStats;
      case LaneKind::SharedSub:
        return sharedGroups_[ref.index].subs[ref.sub].stats;
      case LaneKind::SharedExcl:
        return sharedGroups_[ref.index].exclSubs[ref.sub].stats;
      case LaneKind::Strict:
        return strictBlocks_[ref.index].stats[ref.sub];
    }
    panic("unreachable lane kind");
}

} // namespace tlc
