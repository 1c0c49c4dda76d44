/**
 * @file
 * Backend-neutral half of the data-oriented lane layer: state
 * construction, the LRU/FIFO FSM table builder, and the runtime
 * kernel dispatch.
 */

#include "simd_lanes.hh"

#include <algorithm>
#include <array>

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace tlc {
namespace lanes {

// Kernel tables exported by the per-backend TUs. The scalar set is
// always present; the vector sets exist exactly when the matching
// TLC_SIMD_HAVE_* macro is defined for the whole build (CMake sets it
// globally, so this TU and the kernel TU always agree).
namespace scalar_kernels {
extern const LaneKernels kKernels;
}
#if defined(TLC_SIMD_HAVE_AVX2)
namespace avx2_kernels {
extern const LaneKernels kKernels;
}
#endif
#if defined(TLC_SIMD_HAVE_NEON)
namespace neon_kernels {
extern const LaneKernels kKernels;
}
#endif

// ---------------------------------------------------------------------
// LruFsm
// ---------------------------------------------------------------------

namespace {

/**
 * Build the recency-permutation FSM for one associativity. States are
 * the lexicographic ranks of all permutations of [0, ways); the
 * permutation lists ways most-recent-first.
 */
LruFsm
buildLruFsm(std::uint32_t ways)
{
    LruFsm fsm;
    fsm.ways = ways;
    fsm.states = 1;
    for (std::uint32_t w = 2; w <= ways; ++w)
        fsm.states *= w;

    // Enumerate permutations in lexicographic order; rank == state id.
    std::array<std::uint8_t, kLruFsmMaxWays> perm{};
    for (std::uint32_t w = 0; w < ways; ++w)
        perm[w] = static_cast<std::uint8_t>(w);

    std::vector<std::array<std::uint8_t, kLruFsmMaxWays>> perms;
    perms.reserve(fsm.states);
    do {
        perms.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.begin() + ways));
    tlc_assert(perms.size() == fsm.states, "permutation count mismatch");

    auto rankOf = [&](const std::array<std::uint8_t, kLruFsmMaxWays> &p) {
        for (std::uint32_t s = 0; s < fsm.states; ++s) {
            if (std::equal(p.begin(), p.begin() + ways, perms[s].begin()))
                return s;
        }
        panic("permutation not found");
    };

    fsm.next.resize(static_cast<std::size_t>(fsm.states) * ways);
    fsm.victim.resize(fsm.states);
    for (std::uint32_t s = 0; s < fsm.states; ++s) {
        fsm.victim[s] = perms[s][ways - 1];
        for (std::uint32_t way = 0; way < ways; ++way) {
            // Move `way` to the MRU front, preserving the rest.
            std::array<std::uint8_t, kLruFsmMaxWays> moved{};
            moved[0] = static_cast<std::uint8_t>(way);
            std::uint32_t out = 1;
            for (std::uint32_t i = 0; i < ways; ++i) {
                if (perms[s][i] != way)
                    moved[out++] = perms[s][i];
            }
            fsm.next[static_cast<std::size_t>(s) * ways + way] =
                static_cast<FsmState>(rankOf(moved));
        }
    }
    return fsm;
}

} // namespace

const LruFsm *
lruFsmForWays(std::uint32_t ways)
{
    if (ways < 2 || ways > kLruFsmMaxWays)
        return nullptr;
    static const LruFsm tables[] = {
        buildLruFsm(2),
        buildLruFsm(3),
        buildLruFsm(4),
    };
    static_assert(kLruFsmMaxWays == 4,
                  "table array above covers ways 2..kLruFsmMaxWays");
    return &tables[ways - 2];
}

// ---------------------------------------------------------------------
// ReplState / FlatCache
// ---------------------------------------------------------------------

ReplState::ReplState(const CacheParams &p)
{
    p.validate();
    ways = p.ways();
    repl = p.repl;
    if (ways == 1)
        keeps = Keeps::Nothing;
    else if (repl == ReplPolicy::Random)
        keeps = Keeps::Rng;
    else if (const LruFsm *fsm = lruFsmForWays(ways)) {
        keeps = Keeps::Fsm;
        fsmNext = fsm->next.data();
        fsmVictim = fsm->victim.data();
    } else {
        keeps = Keeps::Stamps;
    }
}

void
ReplState::resize(std::size_t sets, std::size_t words)
{
    // Fresh state: state 0 is the identity permutation, stamp 0 is
    // older than any stamp a step writes.
    if (keeps == Keeps::Fsm)
        fsmState.assign(sets, FsmState{});
    else if (keeps == Keeps::Stamps)
        stamps.assign(words, 0);
}

FlatCache::FlatCache(const CacheParams &p, std::uint64_t seed)
    : ReplState(p),
      rng(seed, 0xcac4e) // Cache's stream id, for identical draws
{
    lineShift = log2i(p.lineBytes);
    std::uint64_t sets = p.numSets();
    setMask = static_cast<std::uint32_t>(sets - 1);
    entries.resize(sets * ways);
    resize(sets, sets * ways);
}

// ---------------------------------------------------------------------
// SharedL1Group / StrictLaneBlock
// ---------------------------------------------------------------------

SharedL1Group::SharedL1Group(const CacheParams &p, std::uint64_t seed)
    : l1Params(p), l1Seed(seed)
{
    p.validate();
    std::uint64_t sets = p.numSets();
    lineShift = log2i(p.lineBytes);
    setMask = static_cast<std::uint32_t>(sets - 1);
    if (p.ways() == 1) {
        l1Entries.resize(sets * 2); // zero entries carry no kValid bit
    } else {
        l1Sides.reserve(2);
        l1Sides.emplace_back(p, seed);
        l1Sides.emplace_back(p, seed + 1);
    }
}

StrictLaneBlock::StrictLaneBlock(const CacheParams &p)
    : l1Params(p), l1Repl(p)
{
    lineShift = log2i(p.lineBytes);
    setMask = static_cast<std::uint32_t>(p.numSets() - 1);
}

std::uint32_t
StrictLaneBlock::addLane(const CacheParams &l2_params, std::uint64_t seed)
{
    tlc_assert(width() < kMaxBlockLanes, "StrictLaneBlock is full");
    l2s.emplace_back(l2_params, seed + 2);
    stats.emplace_back();
    // Re-stride the interleaved arrays for the new width. Everything
    // is still zero (lanes are only added before the first record),
    // so resizing is the whole job.
    std::uint64_t slots = l1Params.numSets() * 2;
    l1Entries.assign(slots * l1Repl.ways * width(), 0);
    l1Repl.resize(slots * width(), l1Entries.size());
    if (l1Repl.keeps == ReplState::Keeps::Rng) {
        l1Rngs.emplace_back(seed, 0xcac4e); // Cache's stream id
        l1Rngs.emplace_back(seed + 1, 0xcac4e);
    }
    return width() - 1;
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

const LaneKernels &
laneKernelsFor(SimdBackend backend)
{
    switch (backend) {
      case SimdBackend::Scalar:
        return scalar_kernels::kKernels;
      case SimdBackend::Avx2:
#if defined(TLC_SIMD_HAVE_AVX2)
        return avx2_kernels::kKernels;
#else
        break;
#endif
      case SimdBackend::Neon:
#if defined(TLC_SIMD_HAVE_NEON)
        return neon_kernels::kKernels;
#else
        break;
#endif
    }
    panic("laneKernelsFor: backend '%s' not compiled into this binary",
          simdBackendName(backend));
}

} // namespace lanes
} // namespace tlc
