/**
 * @file
 * Data-oriented lane state for the single-pass batch engine, plus the
 * per-backend kernel dispatch that runs it.
 *
 * SimGroup (cache/sim_group.hh) owns the lane *grouping* decisions;
 * this header owns the lane *layout* and the hot loops. The state is
 * arranged structure-of-arrays so the kernels can vectorize:
 *
 *  - SharedL1Group: every lane sharing one L1 — same size, line,
 *    ways and replacement policy — whose L2 side never reaches back
 *    into the L1: plain-inclusive and exclusive two-level lanes AND
 *    L1-only lanes walk the trace through ONE simulated L1. L1-only
 *    members are bit-identical to each other (the shared L1 is their
 *    whole state), so they share a single stats block. Two-level
 *    members differ only below the L1 — neither policy lets the L2
 *    reach back into L1 state — so the kernel records each L1 miss
 *    once (line, victim line, victim valid/dirty flags) in a miss
 *    queue and replays the queue per member L2, sub-major: each L2's
 *    tag state stays hot across a whole block of misses instead of
 *    being re-fetched per record, and the replay loop is where the
 *    vectorized L2 tag compare runs. Inclusive and exclusive members
 *    differ only in that replay step (refill vs the §8 swap).
 *    Replaying in record order per sub keeps every member's
 *    operation (and RNG draw) sequence identical to a solo run —
 *    subs are independent, so inter-sub order is unobservable. A
 *    direct-mapped L1 keeps its split tag words interleaved in one
 *    array and is walked by a fused multi-group loop; an associative
 *    L1 is a pair of FlatCaches (I and D) stepped through the same
 *    helpers as the member L2s.
 *
 *  - StrictLaneBlock: strict-inclusive lanes back-invalidate their L1
 *    on L2 eviction, so each needs a *private* L1 — but lanes with the
 *    same L1 shape still probe the same (set, I/D) slot for every
 *    record. The block interleaves up to kMaxBlockLanes lanes' L1 tag
 *    words per (slot, way) row (entries[(slot * ways + way) * width +
 *    lane]), and vector compares over a slot's rows answer "which
 *    lanes missed?" as a bitmask; only the missing lanes fall into
 *    the scalar per-lane L2 path. An associative L1 keeps its recency
 *    state per (slot, lane).
 *
 *  - FlatCache: the packed tag state of one member L2 or one side of
 *    a shared associative L1, with precomputed LRU/FIFO FSM
 *    transition tables (permutation-coded recency state, one table
 *    lookup per touch or fill instead of a stamp array scan) for
 *    2..kLruFsmMaxWays ways.
 *
 * The kernels themselves are compiled once per SIMD backend in
 * dedicated translation units (simd_lanes_{scalar,avx2,neon}.cc, each
 * including simd_lanes_body.inc inside its own namespace) so a binary
 * carries all of them and laneKernelsFor() dispatches at runtime on
 * util/simd.hh's activeSimdBackend(). The spec is Cache and
 * TwoLevelHierarchy: every lane's HierarchyStats must be
 * byte-identical to a solo Hierarchy run, including RNG victim draw
 * sequences, on every backend (tests/test_batch_engine.cc enforces
 * this differentially for every backend the host supports).
 */

#ifndef TLC_CACHE_SIMD_LANES_HH
#define TLC_CACHE_SIMD_LANES_HH

#include <cstdint>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define TLC_TAG_ALLOC_HAVE_MMAP 1
#endif

#include "cache/hierarchy.hh"
#include "cache/params.hh"
#include "trace/record.hh"
#include "util/random.hh"
#include "util/simd.hh"

namespace tlc {
namespace lanes {

/** Packed tag-word flag bits: entry = (line << 2) | flags. */
constexpr std::uint64_t kValid = 1;
constexpr std::uint64_t kDirty = 2;

/**
 * Allocator for packed tag arrays, tuned two ways:
 *
 *  - Alignment: a 4-way set's row is 32 bytes, so a merely
 *    16-byte-aligned allocation would make half the rows straddle
 *    two host cache lines and cost the probe loop a second load.
 *    Every path here returns at least 64-byte-aligned memory.
 *
 *  - Lazy zeroing: every fresh allocation arrives already zero (all
 *    tag words invalid), and the default-construct hook is a no-op,
 *    so sizing a big L2's tag array (megabytes for the large design
 *    points) does not touch its pages up front — large arrays come
 *    straight from anonymous mmap and fault in zero-filled only for
 *    the sets the trace actually reaches. Sizing whole sweep grids
 *    was measurably memset-bound before this.
 *
 * The zero-on-arrival contract holds only for FRESH allocations;
 * growing a vector inside existing capacity would expose stale
 * bytes. The tag-array owners below only ever size their vectors
 * once from empty (StrictLaneBlock's re-stride uses assign(), an
 * explicit value-fill), which is exactly the pattern this supports.
 */
template <typename T>
struct TagAllocator
{
    using value_type = T;
    static constexpr std::size_t kAlign = 64;
    /** Allocations at least this big come from anonymous mmap. */
    static constexpr std::size_t kMmapBytes = std::size_t{1} << 20;
    /** mmap allocations are 2 MiB-aligned and MADV_HUGEPAGE'd: a
     *  random-probed multi-megabyte tag array on 4 KiB pages is
     *  TLB-miss-bound, and faulting it in page by page costs more
     *  than the memset this allocator avoids. */
    static constexpr std::size_t kHugeBytes = std::size_t{2} << 20;

    TagAllocator() = default;
    template <typename U>
    TagAllocator(const TagAllocator<U> &) // NOLINT(runtime/explicit)
    {
    }

    T *allocate(std::size_t n)
    {
        std::size_t bytes = n * sizeof(T);
#if defined(TLC_TAG_ALLOC_HAVE_MMAP)
        if (bytes >= kMmapBytes) {
            // Over-map by one huge page, then trim to a 2 MiB-aligned
            // block of the rounded length — deallocate() recomputes
            // the same rounded length from n.
            std::size_t len = roundToHuge(bytes);
            void *raw =
                ::mmap(nullptr, len + kHugeBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (raw == MAP_FAILED)
                throw std::bad_alloc();
            std::uintptr_t base = reinterpret_cast<std::uintptr_t>(raw);
            std::uintptr_t aligned =
                (base + kHugeBytes - 1) & ~(kHugeBytes - 1);
            if (aligned != base)
                ::munmap(raw, aligned - base);
            std::uintptr_t end = base + len + kHugeBytes;
            if (end != aligned + len)
                ::munmap(reinterpret_cast<void *>(aligned + len),
                         end - (aligned + len));
#if defined(MADV_HUGEPAGE)
            ::madvise(reinterpret_cast<void *>(aligned), len,
                      MADV_HUGEPAGE);
#endif
            return reinterpret_cast<T *>(aligned);
        }
#endif
        void *p = ::operator new(bytes, std::align_val_t{kAlign});
        std::memset(p, 0, bytes);
        return static_cast<T *>(p);
    }
    void deallocate(T *p, std::size_t n)
    {
        std::size_t bytes = n * sizeof(T);
#if defined(TLC_TAG_ALLOC_HAVE_MMAP)
        if (bytes >= kMmapBytes) {
            ::munmap(p, roundToHuge(bytes));
            return;
        }
#endif
        ::operator delete(p, bytes, std::align_val_t{kAlign});
    }

    static constexpr std::size_t roundToHuge(std::size_t bytes)
    {
        return (bytes + kHugeBytes - 1) & ~(kHugeBytes - 1);
    }

    /** Default construction is a no-op: fresh memory is already
     *  zero, and touching it would defeat the lazy mmap path. */
    template <typename U>
    void construct(U *) noexcept
    {
    }
    template <typename U, typename... Args>
    void construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    bool operator==(const TagAllocator &) const { return true; }
};

/** Cache-line-aligned storage for packed tag words. */
using TagVector = std::vector<std::uint64_t, TagAllocator<std::uint64_t>>;

/** Widest set-associativity covered by the LRU/FIFO FSM tables. */
constexpr std::uint32_t kLruFsmMaxWays = 4;

/**
 * One set's recency permutation, an LruFsm state id. An enum rather
 * than a plain byte: a store through a character type may alias any
 * object, so each recency step would force the kernels to reload
 * every tag pointer and geometry field they hold.
 */
enum class FsmState : std::uint8_t {};

/**
 * Precomputed recency-permutation FSM for one associativity, in the
 * style of cavatools' lru_fsm_Nway tables. A state encodes the ways
 * of one set ordered most-recent-first; next[state * ways + way]
 * moves @p way to the front, victim[state] is the back of the
 * ordering. LRU transitions on every touch and fill; FIFO transitions
 * on fill only — the same tables serve both, callers choose when to
 * step. Equivalent to the stamp-array argmin it replaces: the victim
 * is only ever consulted once every way holds a valid line, by which
 * point every way has been filled at least once, so the permutation
 * is fully determined by the same touch/fill history the stamps
 * recorded (stamps are unique and monotone, making argmin exactly
 * the least-recently-moved way).
 */
struct LruFsm
{
    std::uint32_t ways = 0;
    std::uint32_t states = 0;          ///< ways!
    std::vector<FsmState> next;        ///< [state * ways + way]
    std::vector<std::uint8_t> victim;  ///< [state]
};

/**
 * The FSM table for @p ways, built once per process; nullptr when
 * @p ways is 1 (no replacement state to track) or beyond
 * kLruFsmMaxWays (stamp arrays remain the fallback).
 */
const LruFsm *lruFsmForWays(std::uint32_t ways);

/**
 * Flat tag state of one Cache — a member L2, or the I or D side of a
 * shared associative L1: the kernels in
 * simd_lanes_body.inc keep Cache's victim-selection order (invalid
 * scan, then policy), Pcg32 stream and LRU/FIFO ordering over it, so
 * the stats match a real Cache draw for draw. Entries pack
 * (line << 2) | flags, [set][way] row-major. Replacement state is, in
 * preference order: nothing under Random (unobservable), the FSM
 * state byte per set when the associativity has a table, else the
 * stamp array.
 *
 * State only: the probe loops live in the per-backend kernel TUs so
 * each backend's vector width applies (header-inline vector code
 * would ODR-merge across TUs compiled for different ISAs — see
 * util/simd.hh).
 */
struct FlatCache
{
    std::uint32_t lineShift = 0;
    std::uint32_t ways = 1;
    std::uint32_t setMask = 0;
    ReplPolicy repl = ReplPolicy::Random;
    const LruFsm *fsm = nullptr;        ///< non-null: fsmState in use
    TagVector entries;                  ///< (line << 2) | flags
    std::vector<std::uint64_t> stamps;  ///< LRU/FIFO fallback ordering
    std::vector<FsmState> fsmState;     ///< per-set recency permutation
    std::uint64_t tick = 0;
    Pcg32 rng;

    FlatCache(const CacheParams &p, std::uint64_t seed);
};

/**
 * One L1 miss recorded by a SharedL1Group walk, replayed against each
 * member L2 in record order.
 */
struct L1Miss
{
    /** Line numbers, not byte addresses: flat grouping guarantees L1
     *  and every member L2 share one line size (sim_group.cc), so
     *  the walk shifts once and the replay never shifts at all. */
    std::uint32_t line = 0;       ///< the missing reference's line
    std::uint32_t victimLine = 0; ///< evicted L1 line
    /** The evicted L1 tag word's kValid|kDirty bits. Inclusive
     *  replay acts on dirty victims only; exclusive replay inserts
     *  every valid one into the L2. */
    std::uint32_t victimFlags = 0;
};

/**
 * All lanes sharing one L1 whose L2 side (if any) never reaches back
 * into the L1: plain-inclusive two-level lanes as subs, exclusive
 * two-level lanes as exclSubs, L1-only lanes as a shared member
 * count. A direct-mapped L1's tag state is split-interleaved
 * ([set*2] = I, [set*2+1] = D) in l1Entries; an associative L1 is
 * the two FlatCaches in l1Sides, seeded as the solo hierarchies seed
 * their I and D caches.
 */
struct SharedL1Group
{
    /** Grouping key: sizeBytes, lineBytes, ways() and — when
     *  associative — repl, plus l1Seed under Random replacement
     *  (the only L1 whose seed is observable). */
    CacheParams l1Params;
    std::uint64_t l1Seed = 0;
    std::uint32_t lineShift = 0;
    std::uint32_t setMask = 0;
    TagVector l1Entries;            ///< direct-mapped: [set*2 + I/D]
    std::vector<FlatCache> l1Sides; ///< associative: {I, D}

    /** One two-level member: a private L2 + stats. */
    struct Sub
    {
        FlatCache l2;
        HierarchyStats stats;

        Sub(const CacheParams &l2_params, std::uint64_t seed)
            : l2(l2_params, seed)
        {
        }
    };
    std::vector<Sub> subs;
    /**
     * Exclusive (§8) members. The solo model's L1 only ever fills
     * on a miss, exactly as under inclusion, so these see the same
     * miss stream as subs; only their replay step differs — the L1
     * victim is inserted into the L2, displacing the promoted line
     * when both share a set (the swap).
     */
    std::vector<Sub> exclSubs;

    /**
     * L1-only members. One shared L1 is their whole state, so they
     * are bit-identical and one stats block serves all of them
     * (l2Misses counts the off-chip fetches, as SingleLevelHierarchy
     * reports them).
     */
    std::size_t singleMembers = 0;
    HierarchyStats singleStats;

    /** Per-block L1 miss queue, reused across blocks. */
    std::vector<L1Miss> missQueue;

    /** @p seed is the hierarchy seed: I side seed, D side seed + 1. */
    SharedL1Group(const CacheParams &p, std::uint64_t seed);

    bool associative() const { return !l1Sides.empty(); }
};

/**
 * Up to kMaxBlockLanes strict-inclusive lanes sharing one L1 shape
 * (size, line, ways, replacement policy), their private L1 tag words
 * interleaved in one row per (set, I/D) slot and way:
 * l1Entries[(slot * ways + way) * width() + lane]. Vector compares
 * over a slot's rows yield the miss bitmask for all lanes at once;
 * L2 state and stats stay per lane. An associative L1 keeps its recency state per
 * (slot, lane) the way FlatCache keeps it per set: an FSM state byte
 * when the associativity has a table, else stamps laid out like the
 * tag words; under Random each lane's I and D sides draw from their
 * own Pcg32, seeded as the solo hierarchy seeds them.
 */
struct StrictLaneBlock
{
    /** Row width cap — miss masks are single 64-bit words. */
    static constexpr std::uint32_t kMaxBlockLanes = 64;

    CacheParams l1Params; ///< grouping key (sizeBytes, lineBytes, ways, repl)
    std::uint32_t lineShift = 0;
    std::uint32_t setMask = 0;
    std::uint32_t l1Ways = 1;
    const LruFsm *l1Fsm = nullptr; ///< non-null: l1FsmState in use
    TagVector l1Entries;           ///< [(slot * ways + way) * width() + lane]
    std::vector<FsmState> l1FsmState;     ///< [slot * width() + lane]
    std::vector<std::uint64_t> l1Stamps;  ///< laid out as l1Entries
    std::uint64_t l1Tick = 0;
    std::vector<Pcg32> l1Rngs;            ///< [lane * 2 + I/D]
    std::vector<FlatCache> l2s;           ///< per lane
    std::vector<HierarchyStats> stats;    ///< per lane

    explicit StrictLaneBlock(const CacheParams &p);

    std::uint32_t width() const
    {
        return static_cast<std::uint32_t>(l2s.size());
    }

    /**
     * Append a lane with hierarchy seed @p seed (L1 sides seed and
     * seed + 1, L2 seed + 2, as TwoLevelHierarchy seeds its caches).
     * Must happen before any records are driven: the interleaved
     * layout is re-strided on growth, which is only equivalent while
     * every tag word and recency state is still zero (SimGroup
     * asserts it).
     */
    std::uint32_t addLane(const CacheParams &l2_params,
                          std::uint64_t seed);
};

/**
 * The kernel entry points one backend TU exports. runShared applies
 * @p n records to an ARRAY of groups — the record stream is decoded
 * once per fused bundle of groups instead of once per group, then
 * each group's miss queue is replayed in turn — and runStrict applies
 * them to one interleaved block; both accumulate stats exactly as the
 * solo hierarchies would.
 */
struct LaneKernels
{
    SimdBackend backend;
    void (*runShared)(SharedL1Group *, std::size_t, const TraceRecord *,
                      std::size_t);
    void (*runStrict)(StrictLaneBlock &, const TraceRecord *, std::size_t);
};

/**
 * The kernel table for @p backend. Asks for a backend that is not
 * compiled into this binary are a caller bug (activeSimdBackend()
 * never returns one) and fatal.
 */
const LaneKernels &laneKernelsFor(SimdBackend backend);

} // namespace lanes
} // namespace tlc

#endif // TLC_CACHE_SIMD_LANES_HH
