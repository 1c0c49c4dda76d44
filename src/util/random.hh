/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the library (trace generators,
 * pseudo-random cache replacement) draws from Pcg32 streams with
 * fixed seeds so that every experiment is bit-reproducible.
 */

#ifndef TLC_UTIL_RANDOM_HH
#define TLC_UTIL_RANDOM_HH

#include <cstdint>

namespace tlc {

/**
 * PCG32 generator (O'Neill, pcg-random.org; XSH-RR variant).
 *
 * Small, fast, statistically strong, and supports independent
 * streams via the stream-selector constructor argument.
 */
class Pcg32
{
  public:
    /** Construct with a seed and an optional independent stream id. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Next uniform 32-bit value. */
    std::uint32_t next();

    /** Uniform integer in [0, bound) with no modulo bias. */
    std::uint32_t nextBounded(std::uint32_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Geometric(p) sample: number of failures before first success. */
    std::uint32_t nextGeometric(double p);

    /** Exponential sample with the given mean. */
    double nextExponential(double mean);

    /**
     * One Zipf(s) sample over [0, n): ZipfDist(s)(*this, n). A caller
     * that draws repeatedly keeps its own ZipfDist instead.
     */
    std::uint32_t nextZipf(std::uint32_t n, double s);

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

/**
 * Zipf-like distribution over [0, n): rank r is drawn with
 * probability proportional to 1 / (r + 1)^s. Uses rejection-inversion
 * (Hormann & Derflinger 1996), so setup is O(1).
 *
 * The bounds h(0.5) and h(n + 0.5) depend only on (n, s). A ZipfDist
 * keeps them between draws and recomputes h(n + 0.5) only when n
 * changes, so a stream that owns one pays the pow() calls of a draw
 * and not of its setup. Draws are a pure function of the generator's
 * values: the same Pcg32 sequence gives the same ranks whichever
 * ZipfDist or n history produced it.
 */
class ZipfDist
{
  public:
    explicit ZipfDist(double s);

    /** Next rank in [0, n) from @p rng. @p n must be positive. */
    std::uint32_t operator()(Pcg32 &rng, std::uint32_t n);

  private:
    double h(double x) const;
    double hInv(double y) const;

    double s_;
    double hx0_;              ///< h(0.5) - 1
    std::uint32_t n_ = 0;     ///< n that hn_ belongs to
    double hn_ = 0.0;         ///< h(n_ + 0.5)
};

} // namespace tlc

#endif // TLC_UTIL_RANDOM_HH
