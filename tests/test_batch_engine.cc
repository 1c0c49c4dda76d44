/**
 * @file
 * Differential tests for the single-pass multi-configuration engine:
 * every SimGroup lane flavour (L1-only, two-level inclusive,
 * strict-inclusive and exclusive, over direct-mapped and associative
 * L1s) must produce HierarchyStats byte-identical to running the
 * corresponding Hierarchy alone over the same records — including
 * replacement RNG draws, LRU/FIFO stamp ordering and write-back
 * accounting — across warmup boundaries. The SimdBackendDifferential
 * cases re-prove the lane equivalences under EVERY SIMD backend this
 * host can run (forced via setSimdBackend), so scalar and vector
 * kernels are pinned to the same counters the solo hierarchies
 * produce. On top sit the evaluator-level equivalences:
 * tryMissStatsBatch and tryMissStats (a batch of one) vs a solo
 * Hierarchy built from the config, the SweepRequest entry point vs
 * per-benchmark evaluateAll, and the FailureReport snapshot
 * contract.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/single_level.hh"
#include "cache/two_level.hh"
#include "core/batch_engine.hh"
#include "core/explorer.hh"
#include "core/sweep_cache.hh"
#include "util/parallel.hh"
#include "util/random.hh"
#include "util/simd.hh"
#include "util/trace_event.hh"
#include "util/units.hh"

using namespace tlc;

namespace {

/// Long enough that warmup, L2 activity, random replacement and
/// write-backs all engage; short enough to keep the suite quick.
constexpr std::uint64_t kRefs = 20000;
constexpr std::uint64_t kWarmup = 2000;

const TraceBuffer &
sharedTrace()
{
    static TraceBuffer t = Workloads::generate(Benchmark::Gcc1, kRefs);
    return t;
}

/** Bitwise equality of every statistics field. */
void
expectSameStats(const HierarchyStats &a, const HierarchyStats &b)
{
    EXPECT_EQ(a.instrRefs, b.instrRefs);
    EXPECT_EQ(a.dataRefs, b.dataRefs);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.offchipWritebacks, b.offchipWritebacks);
}

/** Reference result: one Hierarchy simulated alone over @p trace. */
template <typename H, typename... Args>
HierarchyStats
soloOn(const TraceBuffer &trace, std::uint64_t warmup, Args &&...args)
{
    H h(std::forward<Args>(args)...);
    h.simulate(trace, warmup);
    return h.stats();
}

/** Reference result: one Hierarchy simulated alone. */
template <typename H, typename... Args>
HierarchyStats
solo(std::uint64_t warmup, Args &&...args)
{
    return soloOn<H>(sharedTrace(), warmup, std::forward<Args>(args)...);
}

/** Reference result: the solo Hierarchy @p c describes, alone over
 *  @p trace — SingleLevelHierarchy or TwoLevelHierarchy built from
 *  l1Params()/l2Params() with the default seed. */
HierarchyStats
soloConfig(const TraceBuffer &trace, std::uint64_t warmup,
           const SystemConfig &c)
{
    if (c.hasL2()) {
        return soloOn<TwoLevelHierarchy>(trace, warmup, c.l1Params(),
                                         c.l2Params(), c.assume.policy);
    }
    return soloOn<SingleLevelHierarchy>(trace, warmup, c.l1Params());
}

/**
 * A trace that walks an exclusive hierarchy through each branch of
 * the §8 swap on purpose, then a pseudo-random tail over a footprint
 * small enough that every branch recurs many times. Sized for
 * 16-byte lines and a 64-byte direct-mapped L1 (four slots per side,
 * line L in slot L % 4) over L2s of at most eight sets, so lines
 * that are multiples of 8 share L1 slot 0 and L2 set 0.
 */
TraceBuffer
exclusiveCornerTrace()
{
    TraceBuffer t;
    auto ref = [&t](std::uint32_t line, RefType type) {
        t.append(line * 16, type);
    };
    // Cold victims: the first fill of an L1 slot evicts nothing.
    ref(0, RefType::Store);
    // 0 (dirty) leaves L1 and is inserted into L2 set 0.
    ref(8, RefType::Load);
    // Same-set swap: 0 hits in L2 and victim 8 takes its way,
    // writing the dirty L2 copy of 0 back off-chip.
    ref(0, RefType::Load);
    // One line in both split L1s: 16 fills the cold I slot, then the
    // D slot (dirty), evicting the clean 0 into L2.
    ref(16, RefType::Instr);
    ref(16, RefType::Store);
    // The I copy of 16 is evicted into L2; then the dirty D copy
    // finds it already resident and only sets its dirty bit.
    ref(32, RefType::Instr);
    ref(48, RefType::Load);
    // Dirty L2 eviction: ten more set-0 lines pushed through L1D slot
    // 0 overflow every L2's set 0 (8 ways at most), so a direct-mapped
    // or LRU/FIFO L2 evicts the dirty 16 by policy — by stamp beyond
    // kLruFsmMaxWays.
    for (std::uint32_t k = 0; k < 10; ++k)
        ref(64 + 8 * k, RefType::Load);
    Pcg32 rng(7, 1);
    for (int i = 0; i < 4000; ++i) {
        std::uint32_t line = rng.nextBounded(48);
        std::uint32_t kind = rng.nextBounded(4);
        ref(line, kind == 0   ? RefType::Instr
                  : kind == 1 ? RefType::Store
                              : RefType::Load);
    }
    return t;
}

/** Every SIMD backend this host can actually run (scalar always). */
std::vector<SimdBackend>
runnableBackends()
{
    std::vector<SimdBackend> v;
    for (SimdBackend b :
         {SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Neon})
        if (simdBackendSupported(b))
            v.push_back(b);
    return v;
}

/** RAII: force a backend for one scope, restore detection after. */
struct BackendGuard
{
    explicit BackendGuard(SimdBackend b) { setSimdBackend(b); }
    ~BackendGuard() { clearSimdBackendOverride(); }
};

} // namespace

TEST(SimGroupDeathTest, LaneAddedAfterRecordsAborts)
{
    // Every lane joins before the first record: a flat lane added
    // later would share a warm L1 or re-stride live tag state.
    CacheParams l1;
    l1.sizeBytes = 4_KiB;
    CacheParams l2;
    l2.sizeBytes = 32_KiB;
    SimGroup group;
    group.addSingleLevel(l1);
    group.accessRange(sharedTrace().records().data(), 16);
    EXPECT_DEATH(group.addSingleLevel(l1), "lane added after records");
    EXPECT_DEATH(group.addTwoLevel(l1, l2, TwoLevelPolicy::Inclusive),
                 "lane added after records");
}

TEST(SimGroupDeathTest, MismatchedLineSizesAbort)
{
    // The lanes replay L1 misses as line numbers, so both levels must
    // share one line size — as TwoLevelHierarchy itself requires.
    CacheParams l1;
    l1.sizeBytes = 4_KiB;
    l1.lineBytes = 16;
    CacheParams l2;
    l2.sizeBytes = 32_KiB;
    l2.lineBytes = 32;
    for (TwoLevelPolicy policy :
         {TwoLevelPolicy::Inclusive, TwoLevelPolicy::StrictInclusive,
          TwoLevelPolicy::Exclusive}) {
        SimGroup group;
        EXPECT_DEATH(group.addTwoLevel(l1, l2, policy),
                     "L1 line 16 != L2 line 32");
    }
}

TEST(SimGroupDifferential, DmSingleLevelMatchesHierarchy)
{
    SimGroup group;
    std::vector<CacheParams> shapes;
    for (std::uint64_t size : {1_KiB, 4_KiB, 32_KiB})
        for (std::uint32_t line : {16u, 32u}) {
            CacheParams p;
            p.sizeBytes = size;
            p.lineBytes = line;
            shapes.push_back(p);
        }
    for (const CacheParams &p : shapes)
        group.addSingleLevel(p);
    BatchEngine::run(sharedTrace(), kWarmup, group);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectSameStats(group.stats(i),
                        solo<SingleLevelHierarchy>(kWarmup, shapes[i]));
    }
}

TEST(SimGroupDifferential, AssociativeL1RunsFlatAndMatches)
{
    CacheParams p;
    p.sizeBytes = 8_KiB;
    p.assoc = 4;
    p.repl = ReplPolicy::LRU;
    SimGroup group;
    std::size_t lane = group.addSingleLevel(p);
    EXPECT_EQ(group.laneCount(), 1u);
    BatchEngine::run(sharedTrace(), kWarmup, group);
    expectSameStats(group.stats(lane),
                    solo<SingleLevelHierarchy>(kWarmup, p));
}

TEST(SimGroupDifferential, AssociativeL1PoliciesAndSeedsMatch)
{
    // Beyond SystemConfig's LRU L1s: FIFO and Random associative L1s
    // under every lane flavour, each lane with one of two hierarchy
    // seeds. A Random L1 draws from its seed, so lanes with different
    // seeds must not share it; each lane must match its own solo run.
    CacheParams l2;
    l2.sizeBytes = 16_KiB;
    l2.assoc = 4;
    const TwoLevelPolicy policies[] = {TwoLevelPolicy::Inclusive,
                                       TwoLevelPolicy::StrictInclusive,
                                       TwoLevelPolicy::Exclusive};
    for (ReplPolicy repl :
         {ReplPolicy::Random, ReplPolicy::LRU, ReplPolicy::FIFO}) {
        for (std::uint32_t ways : {2u, 8u}) {
            CacheParams l1;
            l1.sizeBytes = 2_KiB;
            l1.assoc = ways;
            l1.repl = repl;
            SCOPED_TRACE(l1.toString());
            std::vector<HierarchyStats> refs;
            for (std::uint64_t seed : {1u, 7u}) {
                refs.push_back(solo<SingleLevelHierarchy>(kWarmup, l1, seed));
                for (TwoLevelPolicy policy : policies)
                    refs.push_back(solo<TwoLevelHierarchy>(kWarmup, l1, l2,
                                                           policy, seed));
            }
            if (repl == ReplPolicy::Random) {
                // Otherwise a wrongly shared L1 could go unnoticed.
                EXPECT_NE(refs[0].l1Misses(), refs[4].l1Misses());
            }
            SimGroup group;
            std::vector<std::size_t> lanes;
            for (std::uint64_t seed : {1u, 7u}) {
                lanes.push_back(group.addSingleLevel(l1, seed));
                for (TwoLevelPolicy policy : policies)
                    lanes.push_back(
                        group.addTwoLevel(l1, l2, policy, seed));
            }
            BatchEngine::run(sharedTrace(), kWarmup, group);
            for (std::size_t i = 0; i < lanes.size(); ++i) {
                SCOPED_TRACE("lane " + std::to_string(i));
                expectSameStats(group.stats(lanes[i]), refs[i]);
            }
        }
    }
}

TEST(SimGroupDifferential, L1sDifferingInWaysOrPolicyDoNotShare)
{
    // Same size and line, different ways or replacement policy:
    // distinct L1s, so distinct groups and blocks. Their solo results
    // differ, so a lane that joined another L1's walk would show up
    // as a mismatch.
    CacheParams dm;
    dm.sizeBytes = 4_KiB;
    CacheParams two = dm;
    two.assoc = 2;
    two.repl = ReplPolicy::LRU;
    CacheParams fifo = two;
    fifo.repl = ReplPolicy::FIFO;
    CacheParams l2;
    l2.sizeBytes = 32_KiB;
    l2.assoc = 4;
    struct Lane
    {
        CacheParams l1;
        bool twoLevel;
        TwoLevelPolicy policy;
    };
    std::vector<Lane> lanes;
    for (TwoLevelPolicy policy :
         {TwoLevelPolicy::Inclusive, TwoLevelPolicy::StrictInclusive,
          TwoLevelPolicy::Exclusive}) {
        for (const CacheParams &l1 : {dm, two, fifo})
            lanes.push_back({l1, true, policy});
    }
    for (const CacheParams &l1 : {fifo, two, dm})
        lanes.push_back({l1, false, TwoLevelPolicy::Inclusive});
    std::vector<HierarchyStats> refs;
    for (const Lane &l : lanes)
        refs.push_back(l.twoLevel ? solo<TwoLevelHierarchy>(
                                        kWarmup, l.l1, l2, l.policy)
                                  : solo<SingleLevelHierarchy>(kWarmup, l.l1));
    EXPECT_NE(refs[0].l1Misses(), refs[1].l1Misses());
    EXPECT_NE(refs[1].l1Misses(), refs[2].l1Misses());

    for (SimdBackend backend : runnableBackends()) {
        SCOPED_TRACE(simdBackendName(backend));
        BackendGuard guard(backend);
        SimGroup group;
        for (const Lane &l : lanes) {
            if (l.twoLevel)
                group.addTwoLevel(l.l1, l2, l.policy);
            else
                group.addSingleLevel(l.l1);
        }
        EXPECT_EQ(group.laneCount(), lanes.size());
        BatchEngine::run(sharedTrace(), kWarmup, group);
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            expectSameStats(group.stats(i), refs[i]);
        }
    }
}

TEST(SimGroupDifferential, FlatTwoLevelMatchesHierarchy)
{
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    struct Shape
    {
        std::uint32_t l2Assoc;
        ReplPolicy repl;
        TwoLevelPolicy policy;
    };
    std::vector<Shape> shapes;
    for (std::uint32_t assoc : {1u, 4u})
        for (ReplPolicy repl :
             {ReplPolicy::Random, ReplPolicy::LRU, ReplPolicy::FIFO})
            for (TwoLevelPolicy policy : {TwoLevelPolicy::Inclusive,
                                          TwoLevelPolicy::StrictInclusive,
                                          TwoLevelPolicy::Exclusive})
                shapes.push_back({assoc, repl, policy});

    SimGroup group;
    std::vector<CacheParams> l2s;
    for (const Shape &s : shapes) {
        CacheParams l2;
        l2.sizeBytes = 16_KiB;
        l2.assoc = s.l2Assoc;
        l2.repl = s.repl;
        l2s.push_back(l2);
        group.addTwoLevel(l1, l2, s.policy);
    }
    BatchEngine::run(sharedTrace(), kWarmup, group);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectSameStats(group.stats(i),
                        solo<TwoLevelHierarchy>(kWarmup, l1, l2s[i],
                                                shapes[i].policy));
    }
}

TEST(SimGroupDifferential, ExclusiveRunsOnSharedL1AndMatches)
{
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    CacheParams l2;
    l2.sizeBytes = 8_KiB;
    l2.assoc = 4;
    SimGroup group;
    std::size_t lane =
        group.addTwoLevel(l1, l2, TwoLevelPolicy::Exclusive);
    BatchEngine::run(sharedTrace(), kWarmup, group);
    expectSameStats(group.stats(lane),
                    solo<TwoLevelHierarchy>(kWarmup, l1, l2,
                                            TwoLevelPolicy::Exclusive));
}

TEST(SimGroupDifferential, ExclusiveSwapCornerCases)
{
    // Tiny caches over exclusiveCornerTrace(): every exclusive L2
    // shape must match its solo run under every backend, swaps
    // included. The 8-way L2 is beyond kLruFsmMaxWays, so its LRU
    // and FIFO lanes take the stamp fallback instead of the FSM.
    const TraceBuffer trace = exclusiveCornerTrace();
    CacheParams l1;
    l1.sizeBytes = 64;
    l1.lineBytes = 16;
    std::vector<CacheParams> l2s;
    for (auto [size, assoc] : {std::pair<std::uint64_t, std::uint32_t>{
                                   128, 1},
                               {128, 2},
                               {256, 4},
                               {256, 8}})
        for (ReplPolicy repl :
             {ReplPolicy::Random, ReplPolicy::LRU, ReplPolicy::FIFO}) {
            CacheParams l2;
            l2.sizeBytes = size;
            l2.lineBytes = 16;
            l2.assoc = assoc;
            l2.repl = repl;
            l2s.push_back(l2);
        }
    std::vector<HierarchyStats> refs;
    for (const CacheParams &l2 : l2s) {
        refs.push_back(soloOn<TwoLevelHierarchy>(
            trace, 0, l1, l2, TwoLevelPolicy::Exclusive));
        // The trace reaches the swap and the dirty-eviction branches.
        EXPECT_GT(refs.back().swaps, 0u) << l2.toString();
        EXPECT_GT(refs.back().offchipWritebacks, 0u) << l2.toString();
    }

    for (SimdBackend backend : runnableBackends()) {
        SCOPED_TRACE(simdBackendName(backend));
        BackendGuard guard(backend);
        SimGroup group;
        for (const CacheParams &l2 : l2s)
            group.addTwoLevel(l1, l2, TwoLevelPolicy::Exclusive);
        EXPECT_EQ(group.laneCount(), l2s.size());
        BatchEngine::run(trace, 0, group);
        for (std::size_t i = 0; i < l2s.size(); ++i) {
            SCOPED_TRACE(l2s[i].toString());
            expectSameStats(group.stats(i), refs[i]);
        }
    }
}

TEST(SimGroupDifferential, MixedPoliciesShareOneL1InAnyLaneOrder)
{
    // L1-only, inclusive and exclusive lanes over one L1 geometry
    // all join one SharedL1Group: one L1 walk, one miss queue, two
    // replay steps. Neither the mix nor the order the lanes were
    // added in may move any lane's counters.
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    CacheParams dm;
    dm.sizeBytes = 16_KiB;
    CacheParams assoc;
    assoc.sizeBytes = 16_KiB;
    assoc.assoc = 4;
    assoc.repl = ReplPolicy::LRU;
    struct Lane
    {
        bool twoLevel;
        CacheParams l2;
        TwoLevelPolicy policy;
    };
    const std::vector<Lane> lanes = {
        {false, {}, TwoLevelPolicy::Inclusive},
        {true, dm, TwoLevelPolicy::Exclusive},
        {true, dm, TwoLevelPolicy::Inclusive},
        {true, assoc, TwoLevelPolicy::Inclusive},
        {true, assoc, TwoLevelPolicy::Exclusive},
    };
    std::vector<HierarchyStats> refs;
    for (const Lane &l : lanes)
        refs.push_back(l.twoLevel ? solo<TwoLevelHierarchy>(
                                        kWarmup, l1, l.l2, l.policy)
                                  : solo<SingleLevelHierarchy>(kWarmup, l1));

    for (bool reversed : {false, true}) {
        SCOPED_TRACE(reversed ? "reversed" : "forward");
        for (SimdBackend backend : runnableBackends()) {
            SCOPED_TRACE(simdBackendName(backend));
            BackendGuard guard(backend);
            SimGroup group;
            std::vector<std::size_t> index(lanes.size());
            for (std::size_t k = 0; k < lanes.size(); ++k) {
                std::size_t i = reversed ? lanes.size() - 1 - k : k;
                const Lane &l = lanes[i];
                index[i] = l.twoLevel
                               ? group.addTwoLevel(l1, l.l2, l.policy)
                               : group.addSingleLevel(l1);
            }
            EXPECT_EQ(group.laneCount(), lanes.size());
            BatchEngine::run(sharedTrace(), kWarmup, group);
            for (std::size_t i = 0; i < lanes.size(); ++i) {
                SCOPED_TRACE("lane " + std::to_string(i));
                expectSameStats(group.stats(index[i]), refs[i]);
            }
        }
    }
}

TEST(SimGroupDifferential, MixedLaneGroupMatchesAtEveryWarmup)
{
    // Warmup boundaries: none, mid-trace, the whole trace, and past
    // the end (Hierarchy::simulate clamps — so must BatchEngine).
    for (std::uint64_t warmup :
         {std::uint64_t(0), kRefs / 2, kRefs, kRefs + 5000}) {
        SCOPED_TRACE("warmup " + std::to_string(warmup));
        CacheParams l1;
        l1.sizeBytes = 2_KiB;
        CacheParams l2;
        l2.sizeBytes = 16_KiB;
        l2.assoc = 4;
        SimGroup group;
        group.addSingleLevel(l1);
        group.addTwoLevel(l1, l2, TwoLevelPolicy::Inclusive);
        BatchEngine::run(sharedTrace(), warmup, group);
        expectSameStats(group.stats(0),
                        solo<SingleLevelHierarchy>(warmup, l1));
        expectSameStats(group.stats(1),
                        solo<TwoLevelHierarchy>(warmup, l1, l2,
                                                TwoLevelPolicy::Inclusive));
    }
}

TEST(SimGroupDifferential, ResultsIndependentOfLaneOrder)
{
    // A lane's counters must not depend on what else rides in the
    // group (full lane independence — the property that makes batch
    // partitioning invisible to results).
    CacheParams small;
    small.sizeBytes = 1_KiB;
    CacheParams big;
    big.sizeBytes = 64_KiB;
    SimGroup ab, ba;
    ab.addSingleLevel(small);
    ab.addSingleLevel(big);
    ba.addSingleLevel(big);
    ba.addSingleLevel(small);
    BatchEngine::run(sharedTrace(), kWarmup, ab);
    BatchEngine::run(sharedTrace(), kWarmup, ba);
    expectSameStats(ab.stats(0), ba.stats(1));
    expectSameStats(ab.stats(1), ba.stats(0));
}

TEST(SimdBackendDifferential, EveryBackendMatchesSoloAcrossFlavours)
{
    // The canonical lane-flavour zoo, solo-simulated once; then the
    // same group is rebuilt and run under every backend this host
    // can execute. Any vector-kernel divergence from the scalar
    // reference semantics shows up as a counter mismatch here.
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    struct Shape
    {
        std::uint32_t l2Assoc;
        ReplPolicy repl;
        TwoLevelPolicy policy;
    };
    std::vector<Shape> shapes;
    for (std::uint32_t assoc : {1u, 4u})
        for (ReplPolicy repl :
             {ReplPolicy::Random, ReplPolicy::LRU, ReplPolicy::FIFO})
            for (TwoLevelPolicy policy : {TwoLevelPolicy::Inclusive,
                                          TwoLevelPolicy::StrictInclusive,
                                          TwoLevelPolicy::Exclusive})
                shapes.push_back({assoc, repl, policy});

    std::vector<CacheParams> l2s;
    std::vector<HierarchyStats> refs;
    for (const Shape &s : shapes) {
        CacheParams l2;
        l2.sizeBytes = 16_KiB;
        l2.assoc = s.l2Assoc;
        l2.repl = s.repl;
        l2s.push_back(l2);
        refs.push_back(
            solo<TwoLevelHierarchy>(kWarmup, l1, l2, s.policy));
    }
    HierarchyStats single_ref = solo<SingleLevelHierarchy>(kWarmup, l1);

    for (SimdBackend backend : runnableBackends()) {
        SCOPED_TRACE(simdBackendName(backend));
        BackendGuard guard(backend);
        SimGroup group;
        std::size_t single = group.addSingleLevel(l1);
        std::vector<std::size_t> lanes;
        for (std::size_t i = 0; i < shapes.size(); ++i)
            lanes.push_back(
                group.addTwoLevel(l1, l2s[i], shapes[i].policy));
        BatchEngine::run(sharedTrace(), kWarmup, group);
        expectSameStats(group.stats(single), single_ref);
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            expectSameStats(group.stats(lanes[i]), refs[i]);
        }
    }
}

TEST(SimdBackendDifferential, StrictLaneCountsSpanVectorWidths)
{
    // Strict-inclusive blocks answer all lanes' L1 probes with one
    // vector sweep over an interleaved row, so the lane count is the
    // vector trip count: 1 and 7 exercise sub-width tails, 8 and 9
    // the exact-width and width-plus-one boundaries, 32 several full
    // vectors per row, 64 a full block (an all-ones lane mask). Each
    // lane gets a distinct L2 so a lane-index mixup cannot cancel
    // out. The lanes' direct-mapped L1s name different replacement
    // policies, lane 0's LRU: a direct-mapped L1 has no choice of
    // way, so they all share one block, and every lane must still
    // match its own solo run whatever lane 0 names.
    auto l1For = [](std::size_t i) {
        CacheParams l1;
        l1.sizeBytes = 1_KiB;
        l1.repl = (i % 3 == 0)   ? ReplPolicy::LRU
                  : (i % 3 == 1) ? ReplPolicy::Random
                                 : ReplPolicy::FIFO;
        return l1;
    };
    auto l2For = [](std::size_t i) {
        CacheParams l2;
        l2.sizeBytes = 8_KiB << (i % 4);
        l2.assoc = (i % 2) ? 4 : 1;
        l2.repl = (i % 3 == 0)   ? ReplPolicy::Random
                  : (i % 3 == 1) ? ReplPolicy::LRU
                                 : ReplPolicy::FIFO;
        return l2;
    };

    for (std::size_t count : {std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{9},
                              std::size_t{32}, std::size_t{64}}) {
        SCOPED_TRACE("lanes " + std::to_string(count));
        std::vector<HierarchyStats> refs;
        for (std::size_t i = 0; i < count; ++i)
            refs.push_back(solo<TwoLevelHierarchy>(
                kWarmup, l1For(i), l2For(i),
                TwoLevelPolicy::StrictInclusive));
        for (SimdBackend backend : runnableBackends()) {
            SCOPED_TRACE(simdBackendName(backend));
            BackendGuard guard(backend);
            SimGroup group;
            for (std::size_t i = 0; i < count; ++i)
                group.addTwoLevel(l1For(i), l2For(i),
                                  TwoLevelPolicy::StrictInclusive);
            EXPECT_EQ(group.laneCount(), count);
            BatchEngine::run(sharedTrace(), kWarmup, group);
            for (std::size_t i = 0; i < count; ++i) {
                SCOPED_TRACE("lane " + std::to_string(i));
                expectSameStats(group.stats(i), refs[i]);
            }
        }
    }
}

TEST(SimdBackendDifferential, AssociativeL1LanesMatchSoloOnEveryBackend)
{
    // Associative LRU L1s — 2 and 4 ways (FSM recency), 8 ways (the
    // stamp fallback beyond kLruFsmMaxWays) and fully associative —
    // under every lane flavour: L1-only, and inclusive, strict and
    // exclusive over DM and 4-way L2s with every L2 replacement
    // policy. All lanes of one L1 share its walk and miss queue (or
    // its strict block), so both replays and the per-way strict
    // probe run against solo Hierarchies on every backend.
    std::vector<CacheParams> l1s;
    for (auto [size, assoc] :
         {std::pair<std::uint64_t, std::uint32_t>{2_KiB, 2},
          {2_KiB, 4},
          {2_KiB, 8},
          {1_KiB, 0}}) {
        CacheParams l1;
        l1.sizeBytes = size;
        l1.assoc = assoc;
        l1.repl = ReplPolicy::LRU;
        l1s.push_back(l1);
    }
    struct Lane
    {
        bool twoLevel;
        CacheParams l2;
        TwoLevelPolicy policy;
    };
    std::vector<Lane> lanes = {{false, {}, TwoLevelPolicy::Inclusive}};
    for (std::uint32_t assoc : {1u, 4u})
        for (ReplPolicy repl :
             {ReplPolicy::Random, ReplPolicy::LRU, ReplPolicy::FIFO})
            for (TwoLevelPolicy policy : {TwoLevelPolicy::Inclusive,
                                          TwoLevelPolicy::StrictInclusive,
                                          TwoLevelPolicy::Exclusive}) {
                CacheParams l2;
                l2.sizeBytes = 8_KiB;
                l2.assoc = assoc;
                l2.repl = repl;
                lanes.push_back({true, l2, policy});
            }

    for (const CacheParams &l1 : l1s) {
        SCOPED_TRACE(l1.toString());
        std::vector<HierarchyStats> refs;
        for (const Lane &l : lanes)
            refs.push_back(l.twoLevel
                               ? solo<TwoLevelHierarchy>(kWarmup, l1, l.l2,
                                                         l.policy)
                               : solo<SingleLevelHierarchy>(kWarmup, l1));
        for (SimdBackend backend : runnableBackends()) {
            SCOPED_TRACE(simdBackendName(backend));
            BackendGuard guard(backend);
            SimGroup group;
            for (const Lane &l : lanes) {
                if (l.twoLevel)
                    group.addTwoLevel(l1, l.l2, l.policy);
                else
                    group.addSingleLevel(l1);
            }
            EXPECT_EQ(group.laneCount(), lanes.size());
            BatchEngine::run(sharedTrace(), kWarmup, group);
            for (std::size_t i = 0; i < lanes.size(); ++i) {
                SCOPED_TRACE("lane " + std::to_string(i));
                expectSameStats(group.stats(i), refs[i]);
            }
        }
    }
}

TEST(SimdBackendDifferential, StrictTwoWayBlocksSpanVectorWidths)
{
    // A strict block over a 2-way L1 probes one interleaved row per
    // way, so the lane count is again the vector trip count: 1, 3 and
    // 5 leave sub-width tails, 4 and 8 are whole vectors, 64 fills
    // the 64-bit miss mask. Each lane gets a distinct L2 (small enough
    // that L2 evictions back-invalidate L1 lines often).
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    l1.assoc = 2;
    l1.repl = ReplPolicy::LRU;
    auto l2For = [](std::size_t i) {
        CacheParams l2;
        l2.sizeBytes = 4_KiB << (i % 3);
        l2.assoc = (i % 2) ? 4 : 1;
        l2.repl = (i % 3 == 0)   ? ReplPolicy::Random
                  : (i % 3 == 1) ? ReplPolicy::LRU
                                 : ReplPolicy::FIFO;
        return l2;
    };
    std::vector<HierarchyStats> refs;
    for (std::size_t i = 0; i < 64; ++i)
        refs.push_back(solo<TwoLevelHierarchy>(
            kWarmup, l1, l2For(i), TwoLevelPolicy::StrictInclusive));

    for (std::size_t count : {std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{5},
                              std::size_t{8}, std::size_t{64}}) {
        SCOPED_TRACE("lanes " + std::to_string(count));
        for (SimdBackend backend : runnableBackends()) {
            SCOPED_TRACE(simdBackendName(backend));
            BackendGuard guard(backend);
            SimGroup group;
            for (std::size_t i = 0; i < count; ++i)
                group.addTwoLevel(l1, l2For(i),
                                  TwoLevelPolicy::StrictInclusive);
            EXPECT_EQ(group.laneCount(), count);
            BatchEngine::run(sharedTrace(), kWarmup, group);
            for (std::size_t i = 0; i < count; ++i) {
                SCOPED_TRACE("lane " + std::to_string(i));
                expectSameStats(group.stats(i), refs[i]);
            }
        }
    }
}

TEST(SimdBackendDifferential, WarmupEdgesMatchUnderEveryBackend)
{
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    CacheParams l2;
    l2.sizeBytes = 16_KiB;
    l2.assoc = 4;
    for (std::uint64_t warmup :
         {std::uint64_t(0), kRefs / 2, kRefs, kRefs + 5000}) {
        SCOPED_TRACE("warmup " + std::to_string(warmup));
        HierarchyStats single_ref =
            solo<SingleLevelHierarchy>(warmup, l1);
        HierarchyStats incl_ref = solo<TwoLevelHierarchy>(
            warmup, l1, l2, TwoLevelPolicy::Inclusive);
        HierarchyStats strict_ref = solo<TwoLevelHierarchy>(
            warmup, l1, l2, TwoLevelPolicy::StrictInclusive);
        HierarchyStats excl_ref = solo<TwoLevelHierarchy>(
            warmup, l1, l2, TwoLevelPolicy::Exclusive);
        for (SimdBackend backend : runnableBackends()) {
            SCOPED_TRACE(simdBackendName(backend));
            BackendGuard guard(backend);
            SimGroup group;
            group.addSingleLevel(l1);
            group.addTwoLevel(l1, l2, TwoLevelPolicy::Inclusive);
            group.addTwoLevel(l1, l2, TwoLevelPolicy::StrictInclusive);
            group.addTwoLevel(l1, l2, TwoLevelPolicy::Exclusive);
            BatchEngine::run(sharedTrace(), warmup, group);
            expectSameStats(group.stats(0), single_ref);
            expectSameStats(group.stats(1), incl_ref);
            expectSameStats(group.stats(2), strict_ref);
            expectSameStats(group.stats(3), excl_ref);
        }
    }
}

TEST(SimdBackendDifferential, VectorBackendsMatchScalarByteForByte)
{
    // Scalar is the reference kernel; every vector backend must
    // reproduce its counters exactly on an identical group. (Solo
    // equivalence above implies this, but the direct comparison
    // localizes a failure to the pair of kernels that disagree.)
    std::vector<SimdBackend> backends = runnableBackends();
    ASSERT_EQ(backends.front(), SimdBackend::Scalar);

    CacheParams l1;
    l1.sizeBytes = 4_KiB;
    auto runAll = [&](SimdBackend backend) {
        BackendGuard guard(backend);
        SimGroup group;
        group.addSingleLevel(l1);
        for (std::uint64_t l2_size : {8_KiB, 32_KiB, 128_KiB}) {
            CacheParams l2;
            l2.sizeBytes = l2_size;
            l2.assoc = 4;
            group.addTwoLevel(l1, l2, TwoLevelPolicy::Inclusive);
            group.addTwoLevel(l1, l2, TwoLevelPolicy::StrictInclusive);
            group.addTwoLevel(l1, l2, TwoLevelPolicy::Exclusive);
        }
        BatchEngine::run(sharedTrace(), kWarmup, group);
        std::vector<HierarchyStats> all;
        for (std::size_t i = 0; i < group.laneCount(); ++i)
            all.push_back(group.stats(i));
        return all;
    };

    std::vector<HierarchyStats> scalar = runAll(SimdBackend::Scalar);
    for (std::size_t b = 1; b < backends.size(); ++b) {
        SCOPED_TRACE(simdBackendName(backends[b]));
        std::vector<HierarchyStats> vec = runAll(backends[b]);
        ASSERT_EQ(vec.size(), scalar.size());
        for (std::size_t i = 0; i < scalar.size(); ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            expectSameStats(vec[i], scalar[i]);
        }
    }
}

TEST(BatchEngine, SimulateConfigsReportsLaneSplit)
{
    std::vector<SystemConfig> configs(3);
    configs[0].l1Bytes = 4_KiB;
    configs[0].l2Bytes = 0;
    configs[1].l1Bytes = 4_KiB;
    configs[1].l2Bytes = 32_KiB;
    configs[2].l1Bytes = 4_KiB;
    configs[2].l2Bytes = 32_KiB;
    configs[2].assume.l1Assoc = 2; // associative L1s are flat too
    BatchEngine::Result r =
        BatchEngine::simulateConfigs(sharedTrace(), kWarmup, configs);
    ASSERT_EQ(r.stats.size(), 3u);
    EXPECT_EQ(r.flatLanes, 3u);
    EXPECT_EQ(r.genericLanes, 0u);
    for (const HierarchyStats &s : r.stats)
        EXPECT_EQ(s.totalRefs(), kRefs - kWarmup);
}

TEST(EvaluatorBatch, BatchMatchesPointwiseMissStats)
{
    SystemAssumptions a;
    std::vector<SystemConfig> configs = DesignSpace::enumerate(a);
    ASSERT_GT(configs.size(), 40u);

    MissRateEvaluator batched(kRefs);
    auto results =
        batched.tryMissStatsBatch(Benchmark::Espresso, configs);
    ASSERT_EQ(results.size(), configs.size());
    const TraceBuffer &trace =
        *batched.tryTrace(Benchmark::Espresso).value();
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + configs[i].label());
        ASSERT_TRUE(results[i].ok());
        expectSameStats(results[i].value(),
                        soloConfig(trace, batched.warmupRefs(),
                                   configs[i]));
    }
}

TEST(EvaluatorBatch, PointShapesMatchSoloHierarchy)
{
    // Every shape of the interactive single-point space — line
    // {16,32,64} x L1 ways {1,2} x (L1-only, or L2 ways {1,2,4,8} x
    // {inclusive, strict, exclusive} x {Random, LRU, FIFO}) — with a
    // seeded benchmark and sizes, priced by tryMissStats (a batch of
    // one) and by a solo Hierarchy, under every runnable backend.
    Pcg32 rng(16, 3);
    const std::vector<Benchmark> &benches = Workloads::all();
    std::vector<std::pair<Benchmark, SystemConfig>> points;
    for (std::uint32_t line : {16u, 32u, 64u}) {
        for (std::uint32_t l1Ways : {1u, 2u}) {
            std::vector<SystemAssumptions> shapes;
            SystemAssumptions a;
            a.lineBytes = line;
            a.l1Assoc = l1Ways;
            shapes.push_back(a);
            for (std::uint32_t l2Ways : {1u, 2u, 4u, 8u})
                for (TwoLevelPolicy pol :
                     {TwoLevelPolicy::Inclusive,
                      TwoLevelPolicy::StrictInclusive,
                      TwoLevelPolicy::Exclusive})
                    for (ReplPolicy repl : {ReplPolicy::Random,
                                            ReplPolicy::LRU,
                                            ReplPolicy::FIFO}) {
                        a.l2Assoc = l2Ways;
                        a.policy = pol;
                        a.l2Repl = repl;
                        shapes.push_back(a);
                    }
            for (std::size_t i = 0; i < shapes.size(); ++i) {
                SystemConfig c;
                c.assume = shapes[i];
                c.l1Bytes = 1_KiB << rng.nextBounded(7); // 1K..64K
                c.l2Bytes = i == 0 ? 0
                                   : c.l1Bytes
                                         << (1 + rng.nextBounded(4));
                ASSERT_TRUE(c.check().ok()) << c.missKeyString();
                points.emplace_back(
                    benches[rng.nextBounded(
                        static_cast<std::uint32_t>(benches.size()))],
                    c);
            }
        }
    }
    ASSERT_EQ(points.size(), 3u * 2u * 37u);

    for (SimdBackend backend : runnableBackends()) {
        SCOPED_TRACE(simdBackendName(backend));
        BackendGuard guard(backend);
        MissRateEvaluator ev(kRefs); // fresh memo per backend
        for (const auto &[bench, c] : points) {
            SCOPED_TRACE(std::string(Workloads::info(bench).name) + " " +
                         c.missKeyString());
            Expected<HierarchyStats> got = ev.tryMissStats(bench, c);
            ASSERT_TRUE(got.ok()) << got.status().message();
            expectSameStats(got.value(),
                            soloConfig(*ev.tryTrace(bench).value(),
                                       ev.warmupRefs(), c));
        }
    }
}

TEST(EvaluatorBatch, InvalidConfigsFailSoftInTheirSlots)
{
    std::vector<SystemConfig> configs(3);
    configs[0].l1Bytes = 4_KiB;
    configs[1].l1Bytes = 3000; // not a power of two
    configs[2].l1Bytes = 8_KiB;
    MissRateEvaluator ev(kRefs);
    auto results = ev.tryMissStatsBatch(Benchmark::Li, configs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    ASSERT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].status().code(), StatusCode::InvalidConfig);
    EXPECT_TRUE(results[2].ok());
}

TEST(EvaluatorBatch, DuplicatesAndMemoHitsShareOneSimulation)
{
    SystemConfig c;
    c.l1Bytes = 4_KiB;
    c.l2Bytes = 32_KiB;
    SystemConfig timing_twin = c; // same memo key, different timing
    timing_twin.assume.offchipNs = 200;
    SystemConfig other;
    other.l1Bytes = 8_KiB;

    MissRateEvaluator ev(kRefs);
    HierarchyStats first = ev.tryMissStats(Benchmark::Gcc1, c).value();
    EXPECT_EQ(ev.memoSize(), 1u);

    std::vector<SystemConfig> configs = {c, timing_twin, other, c};
    auto results = ev.tryMissStatsBatch(Benchmark::Gcc1, configs);
    ASSERT_EQ(results.size(), 4u);
    // Only `other` was new.
    EXPECT_EQ(ev.memoSize(), 2u);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok());
    expectSameStats(results[0].value(), first);
    expectSameStats(results[1].value(), first);
    expectSameStats(results[3].value(), first);
}

TEST(EvaluatorBatch, MissingTraceFileFailsEverySlot)
{
    EvaluatorOptions opts;
    opts.traceRefs = kRefs;
    opts.traceFiles[Benchmark::Doduc] = "/nonexistent/doduc.trc";
    MissRateEvaluator ev(std::move(opts));
    std::vector<SystemConfig> configs(2);
    configs[0].l1Bytes = 4_KiB;
    configs[1].l1Bytes = 8_KiB;
    auto results = ev.tryMissStatsBatch(Benchmark::Doduc, configs);
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::IoError);
    }
}

TEST(EvaluatorBatch, AllLanesFailingLeavesBatchWellFormed)
{
    // Every slot invalid: the batch must fail soft per slot without
    // simulating anything, polluting the memo, or wedging the
    // evaluator for later, healthy batches.
    std::vector<SystemConfig> bad(3);
    bad[0].l1Bytes = 3000;  // not a power of two
    bad[1].l1Bytes = 4_KiB;
    bad[1].l2Bytes = 3000; // not a power of two
    bad[2].l1Bytes = 0;

    MissRateEvaluator ev(kRefs);
    auto results = ev.tryMissStatsBatch(Benchmark::Li, bad);
    ASSERT_EQ(results.size(), bad.size());
    for (const auto &r : results) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidConfig);
    }
    EXPECT_EQ(ev.memoSize(), 0u);

    SystemConfig good;
    good.l1Bytes = 4_KiB;
    auto after = ev.tryMissStatsBatch(Benchmark::Li, {&good, 1});
    ASSERT_EQ(after.size(), 1u);
    EXPECT_TRUE(after[0].ok());
}

TEST(SweepCacheKey, KeyTextIsPinnedSoExistingStoresStayWarm)
{
    // Every store on disk was written under this spelling; a change
    // to any byte of it turns all of them cold.
    SystemConfig c;
    c.l1Bytes = 4_KiB;
    c.l2Bytes = 32_KiB;
    std::string id = SweepCache::traceIdentity(Benchmark::Li, kRefs, "");
    std::string text = SweepCache::keyText(id, kWarmup, c);
    EXPECT_EQ(text, "schema=1|trace=synthetic:li:refs=20000:variant=0|"
                    "warmup=2000|l1=4096;l2=32768;line=16;l1assoc=1;"
                    "l2assoc=4;policy=inclusive;l2repl=random");
    EXPECT_EQ(SweepCache::hashKey(text), "tlc1-e6373e21f8e5e68a");
}

TEST(SweepRequestApi, MatchesPerBenchmarkEvaluateAll)
{
    SystemAssumptions a;
    SweepRequest req;
    req.configs = DesignSpace::enumerate(a, true, false);
    req.benchmarks = {Benchmark::Espresso, Benchmark::Li};

    MissRateEvaluator ev_req(kRefs);
    Explorer ex_req(ev_req);
    auto sweeps = ex_req.evaluateAll(req);
    ASSERT_EQ(sweeps.size(), 2u);

    MissRateEvaluator ev_ref(kRefs);
    Explorer ex_ref(ev_ref);
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        EXPECT_EQ(sweeps[s].benchmark, req.benchmarks[s]);
        auto ref =
            ex_ref.evaluateAll(req.benchmarks[s], req.configs, nullptr);
        ASSERT_EQ(sweeps[s].points.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE(ref[i].config.label());
            expectSameStats(sweeps[s].points[i].miss, ref[i].miss);
            EXPECT_EQ(sweeps[s].points[i].tpi.tpi, ref[i].tpi.tpi);
            EXPECT_EQ(sweeps[s].points[i].areaRbe, ref[i].areaRbe);
        }
    }
}

TEST(SweepRequestApi, ThreadOverrideIsScopedToTheCall)
{
    setParallelWorkerCount(3);
    SweepRequest req;
    SystemConfig c;
    c.l1Bytes = 4_KiB;
    req.configs = {c};
    req.benchmarks = {Benchmark::Li};
    req.threads = 2;
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    auto sweeps = ex.evaluateAll(req);
    ASSERT_EQ(sweeps.size(), 1u);
    EXPECT_EQ(sweeps[0].points.size(), 1u);
    // The request's width must not leak past the call.
    EXPECT_EQ(parallelWorkerCount(), 3u);
    setParallelWorkerCount(0);
}

TEST(SweepRequestApi, WidthIsPassedToTheSweepNotInstalled)
{
    // Four L1 groups for a two-wide request, under a process setting
    // of three: the plan has the request's two bins, and the progress
    // callback, running inside the sweep, still reads three.
    setParallelWorkerCount(3);
    SweepRequest req;
    for (std::uint64_t l1 : {4_KiB, 8_KiB, 16_KiB, 32_KiB}) {
        SystemConfig c;
        c.l1Bytes = l1;
        c.l2Bytes = 128_KiB;
        req.configs.push_back(c);
    }
    req.benchmarks = {Benchmark::Li};
    req.threads = 2;
    std::atomic<int> calls{0};
    std::atomic<int> otherWidth{0};
    req.progress = [&](const SweepProgress &) {
        ++calls;
        if (parallelWorkerCount() != 3)
            ++otherWidth;
    };
    req.progressIntervalSeconds = 0.0;
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    TraceEventRecorder rec;
    TraceEventRecorder::setActive(&rec);
    auto sweeps = ex.evaluateAll(req);
    TraceEventRecorder::setActive(nullptr);
    setParallelWorkerCount(0);

    ASSERT_EQ(sweeps.size(), 1u);
    EXPECT_EQ(sweeps[0].points.size(), req.configs.size());
    std::set<std::string> bins; // one "li batch <bin>" slice per pass
    for (const TraceEvent &e : rec.snapshot()) {
        if (e.category == "sim-batch")
            bins.insert(e.name);
    }
    EXPECT_EQ(bins.size(), 2u);
    EXPECT_GE(calls.load(), 1); // the final update always fires
    EXPECT_EQ(otherWidth.load(), 0);
}

TEST(SweepRequestApi, ReportCollectsFailuresAcrossBenchmarks)
{
    SweepRequest req;
    SystemConfig good;
    good.l1Bytes = 4_KiB;
    SystemConfig bad;
    bad.l1Bytes = 3000;
    req.configs = {good, bad};
    req.benchmarks = {Benchmark::Li, Benchmark::Espresso};
    FailureReport report;
    req.report = &report;
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    auto sweeps = ex.evaluateAll(req);
    ASSERT_EQ(sweeps.size(), 2u);
    EXPECT_EQ(sweeps[0].points.size(), 1u);
    EXPECT_EQ(sweeps[1].points.size(), 1u);
    EXPECT_EQ(report.size(), 2u); // the bad config, once per bench
}

TEST(FailureReportApi, FailuresReturnsStableSnapshot)
{
    FailureReport report;
    report.add("first", statusf(StatusCode::InternalError, "one"));
    std::vector<SweepFailure> snap = report.failures();
    ASSERT_EQ(snap.size(), 1u);
    report.add("second", statusf(StatusCode::InternalError, "two"));
    // The snapshot is a value copy: later writers cannot grow or
    // invalidate it.
    EXPECT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].subject, "first");
    EXPECT_EQ(report.failures().size(), 2u);
}
