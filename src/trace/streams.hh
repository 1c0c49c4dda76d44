/**
 * @file
 * Concrete reference-stream generators.
 *
 * These are the building blocks from which the seven SPEC89 workload
 * models are composed. Each captures one canonical access pattern:
 *
 *  - SequentialStream: unit-stride sweeps over large arrays
 *    (tomcatv's grids, eqntott's bit vectors);
 *  - StackDistStream: LRU-stack-distance-driven references over a
 *    heap region (gcc's and li's dynamic data);
 *  - ZipfStream: skewed random references over a table region
 *    (symbol tables, hash tables);
 *  - PointerChaseStream: a fixed random-permutation walk (linked
 *    structures with no spatial locality);
 *  - LoopCodeStream: instruction fetch with functions, basic blocks,
 *    and loops (every benchmark's code).
 */

#ifndef TLC_TRACE_STREAMS_HH
#define TLC_TRACE_STREAMS_HH

#include <cstdint>
#include <vector>

#include "trace/stream.hh"
#include "util/random.hh"

namespace tlc {

/**
 * Unit-stride (or fixed-stride) sweep over one or more equal-sized
 * arrays, switching arrays after each full pass, optionally
 * revisiting the previous few elements (row reuse, as in stencil
 * codes). Capacity-bound: misses in any cache smaller than the
 * total footprint.
 */
class SequentialStream : public RefStream
{
  public:
    /**
     * @param base        byte address of the first array
     * @param array_bytes size of each array
     * @param num_arrays  arrays visited round-robin each "iteration"
     * @param stride      bytes between consecutive elements
     * @param reuse_prob  probability of re-referencing a recent
     *                    element instead of advancing
     * @param reuse_window how far back (elements) reuse may reach
     * @param seed        RNG seed
     */
    SequentialStream(std::uint32_t base, std::uint32_t array_bytes,
                     unsigned num_arrays, unsigned stride,
                     double reuse_prob, unsigned reuse_window,
                     std::uint64_t seed);

    std::uint32_t next() override;

  private:
    std::uint32_t base_;
    std::uint32_t arrayBytes_;
    unsigned numArrays_;
    unsigned stride_;
    double reuseProb_;
    unsigned reuseWindow_;
    unsigned curArray_ = 0;
    std::uint32_t offset_ = 0;
    Pcg32 rng_;
};

/**
 * LRU-stack-distance generator. Maintains an explicit LRU stack of
 * line-granular addresses within a region; each reference draws a
 * stack depth from a two-component mixture (geometric near-top plus
 * Zipf heavy tail), or touches a brand-new line with probability
 * newProb. This gives a directly-controllable miss-rate-vs-capacity
 * curve while still producing concrete conflicting addresses.
 */
class StackDistStream : public RefStream
{
  public:
    /**
     * @param base         region base address
     * @param region_bytes region size (stack never grows past this)
     * @param granularity  bytes per distinct object (>= 4)
     * @param new_prob     probability of touching a fresh object
     * @param geom_p       geometric( p ) component parameter
     * @param geom_weight  weight of the geometric component
     * @param zipf_s       Zipf exponent of the tail component
     * @param seed         RNG seed
     */
    StackDistStream(std::uint32_t base, std::uint32_t region_bytes,
                    unsigned granularity, double new_prob, double geom_p,
                    double geom_weight, double zipf_s, std::uint64_t seed);

    std::uint32_t next() override;

    /** Number of distinct objects touched so far. */
    std::size_t stackSize() const { return stack_.size(); }

  private:
    std::uint32_t base_;
    std::uint32_t maxObjects_;
    unsigned granularity_;
    double newProb_;
    double geomP_;
    double geomWeight_;
    ZipfDist depthZipf_; ///< tail component over the current depth
    std::uint32_t nextFresh_ = 0;
    std::vector<std::uint32_t> stack_; ///< object ids, MRU first
    Pcg32 rng_;
};

/**
 * Zipf-skewed independent references over a region: object k is
 * touched with probability proportional to 1/(k+1)^s, with object
 * ranks scattered over the region by a fixed pseudo-random
 * permutation so hot objects are not spatially adjacent.
 */
class ZipfStream : public RefStream
{
  public:
    ZipfStream(std::uint32_t base, std::uint32_t region_bytes,
               unsigned granularity, double s, std::uint64_t seed);

    std::uint32_t next() override;

  private:
    std::uint32_t base_;
    unsigned granularity_;
    std::uint32_t numObjects_;
    ZipfDist rankZipf_;
    std::uint32_t scatterMul_; ///< odd multiplier scattering ranks
    Pcg32 rng_;
};

/**
 * Pointer chase: a walk of a fixed random permutation cycle over the
 * region's lines. No spatial locality, reuse distance equal to the
 * region size — the worst case for any cache smaller than the region.
 */
class PointerChaseStream : public RefStream
{
  public:
    PointerChaseStream(std::uint32_t base, std::uint32_t region_bytes,
                       unsigned granularity, std::uint64_t seed);

    std::uint32_t next() override;

  private:
    std::uint32_t base_;
    unsigned granularity_;
    std::vector<std::uint32_t> nextIdx_; ///< permutation cycle
    std::uint32_t cur_ = 0;
};

/** Parameters of a LoopCodeStream. */
struct LoopCodeParams
{
    std::uint32_t base = 0x00400000;   ///< code segment base
    std::uint32_t codeBytes = 64 * 1024; ///< static code footprint
    unsigned numFuncs = 64;            ///< functions in the footprint
    double zipfS = 1.0;                ///< function popularity skew
    double loopStartProb = 0.02;       ///< per-instr chance a loop begins
    unsigned avgLoopBody = 16;         ///< mean loop body, instructions
    unsigned avgLoopIters = 8;         ///< mean loop trip count
    double callProb = 0.005;           ///< per-instr chance of a call
};

/**
 * Instruction-fetch stream: sequential execution through functions
 * with geometric loops and Zipf-popular function calls. The set of
 * frequently-executed functions forms the instruction working set.
 */
class LoopCodeStream : public RefStream
{
  public:
    LoopCodeStream(const LoopCodeParams &params, std::uint64_t seed);

    std::uint32_t next() override;

  private:
    void switchFunction();

    LoopCodeParams p_;
    ZipfDist funcZipf_;         ///< function popularity
    std::uint32_t funcInstrs_;  ///< instructions per function
    std::uint32_t curFunc_ = 0;
    std::uint32_t pc_ = 0;      ///< instruction index within function
    // Active innermost loop (no nesting; nesting adds little for
    // I-cache behaviour at these footprints).
    bool inLoop_ = false;
    std::uint32_t loopStart_ = 0;
    std::uint32_t loopEnd_ = 0;
    std::uint32_t itersLeft_ = 0;
    Pcg32 rng_;
};

} // namespace tlc

#endif // TLC_TRACE_STREAMS_HH
