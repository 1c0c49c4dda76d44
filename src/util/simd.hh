/**
 * @file
 * Portable SIMD backend control and wrapper intrinsics.
 *
 * The batch engine's hot lanes (cache/simd_lanes.hh) vectorize their
 * tag compares. Correctness there is ISA-dependent, so the backend is
 * a first-class runtime concept rather than a compile-time fact:
 *
 *  - Every binary always carries the scalar kernels, plus the AVX2
 *    kernels on x86-64 (compiled in a dedicated -mavx2 TU) and the
 *    NEON kernels on aarch64. simdBackendCompiled() reports what this
 *    binary carries.
 *  - At runtime, detectSimdBackend() picks the best backend the CPU
 *    actually supports (cpuid on x86; NEON is architectural on
 *    aarch64). simdBackendSupported() exposes the per-backend answer.
 *  - The TLC_SIMD environment variable (scalar | avx2 | neon |
 *    native) overrides detection — this is what the CI dispatch
 *    matrix forces so the scalar-vs-vector byte-identity suite can
 *    pin each backend. An unknown or unsupported value is a fatal
 *    user error: a forced backend that silently fell back would make
 *    the differential prove nothing.
 *  - setSimdBackend() is the programmatic equivalent (tests iterate
 *    every supported backend in one process).
 *
 * The wrapper intrinsics themselves live at the bottom of this
 * header in per-ISA inline namespaces: a TU compiled with -mavx2
 * sees the AVX2 implementation, an aarch64 TU the NEON one, anything
 * else the scalar one, and a TU may force the scalar variant by
 * defining TLC_SIMD_FORCE_SCALAR before including this header. The
 * inline-namespace spelling keeps the three variants distinct
 * symbols, so a binary carrying several of them never ODR-merges a
 * vector body into a scalar call site (which would break forced-
 * scalar runs and SIGILL on older CPUs).
 */

#ifndef TLC_UTIL_SIMD_HH
#define TLC_UTIL_SIMD_HH

#include <cstdint>
#include <string>

#include "util/status.hh"

#if !defined(TLC_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#include <immintrin.h>
#elif !defined(TLC_SIMD_FORCE_SCALAR) && defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace tlc {

/** Vector instruction set a lane kernel was compiled against. */
enum class SimdBackend : std::uint8_t {
    Scalar, ///< plain C++ (always available, the reference semantics)
    Avx2,   ///< x86-64 AVX2, 4 x u64 per 256-bit vector
    Neon    ///< aarch64 NEON, 2 x u64 per 128-bit vector
};

/** Stable lower-case name ("scalar", "avx2", "neon"). */
const char *simdBackendName(SimdBackend b);

/** Was this backend's kernel set compiled into the binary? */
bool simdBackendCompiled(SimdBackend b);

/** Compiled in AND supported by the CPU we are running on? */
bool simdBackendSupported(SimdBackend b);

/**
 * Best supported backend for this process, ignoring any override —
 * the pure cpuid-dispatch decision (unit-tested in tests/test_simd.cc).
 */
SimdBackend detectSimdBackend();

/**
 * Parse a TLC_SIMD spelling: "scalar", "avx2", "neon" name a backend,
 * "native" means detectSimdBackend(). Unknown spellings return
 * InvalidConfig (callers decide whether that is fatal).
 */
Expected<SimdBackend> parseSimdBackend(const std::string &text);

/**
 * Resolve an override string against a detection result — the pure
 * decision function behind activeSimdBackend(), separated out so the
 * env/cpuid interplay is unit-testable: nullptr/empty means "use
 * @p detected"; a named backend must be supported or the result is
 * InvalidConfig; "native" resolves to @p detected.
 */
Expected<SimdBackend> resolveSimdBackend(const char *override_text,
                                         SimdBackend detected);

/**
 * The backend the lane kernels dispatch to right now: an explicit
 * setSimdBackend() if one was made, else TLC_SIMD if set (fatal on
 * unknown or unsupported values), else detectSimdBackend(). The
 * env/detect resolution is computed once and cached.
 */
SimdBackend activeSimdBackend();

/**
 * Force the active backend for this process (tests, tools). Fatal if
 * the backend is not supported here — a forced backend that silently
 * degraded would invalidate any differential run on top of it.
 */
void setSimdBackend(SimdBackend b);

/** Drop any setSimdBackend() override, back to env/detection. */
void clearSimdBackendOverride();

// ---------------------------------------------------------------------
// Wrapper intrinsics: u64-element tag-compare primitives.
// ---------------------------------------------------------------------
//
// Exactly one of the inline namespaces below is compiled per TU,
// selected by the TU's own ISA flags. All variants implement the
// same contracts:
//
//   simdWidth              elements per vector step (1 / 2 / 4)
//   eqMask(p, n, want, ignore)
//     bit i set iff (p[i] & ~ignore) == want, for i in [0, n)
//   zeroMask(p, n, bit)
//     bit i set iff (p[i] & bit) == 0, for i in [0, n)
//   probeRow(row, n, want, dirtyBit, orOnHit)
//     the strict-block probe, for every associativity: for each i,
//     hit iff (row[i] & ~dirtyBit) == want; hits get
//     row[i] |= orOnHit (a store's dirty bit), misses keep their
//     value for the caller's refill to read; returns the miss bitmask
//     over [0, n). The words may be one way row (bit = lane) or a
//     slot's way rows back to back (bit = way * lanes + lane).
//
// n is at most 64 (bitmask results); lane blocks enforce that cap.

#if !defined(TLC_SIMD_FORCE_SCALAR) && defined(__AVX2__)

inline namespace simd_avx2_ops {

constexpr std::uint32_t simdWidth = 4;
constexpr SimdBackend simdOpsBackend = SimdBackend::Avx2;

inline std::uint64_t
eqMask(const std::uint64_t *p, std::uint32_t n, std::uint64_t want,
       std::uint64_t ignore)
{
    const __m256i vwant = _mm256_set1_epi64x(
        static_cast<long long>(want));
    const __m256i vkeep = _mm256_set1_epi64x(
        static_cast<long long>(~ignore));
    std::uint64_t mask = 0;
    std::uint32_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i e = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + i));
        __m256i eq = _mm256_cmpeq_epi64(_mm256_and_si256(e, vkeep),
                                        vwant);
        mask |= static_cast<std::uint64_t>(
                    _mm256_movemask_pd(_mm256_castsi256_pd(eq)))
                << i;
    }
    for (; i < n; ++i)
        mask |= static_cast<std::uint64_t>((p[i] & ~ignore) == want) << i;
    return mask;
}

inline std::uint64_t
zeroMask(const std::uint64_t *p, std::uint32_t n, std::uint64_t bit)
{
    const __m256i vbit = _mm256_set1_epi64x(static_cast<long long>(bit));
    const __m256i vzero = _mm256_setzero_si256();
    std::uint64_t mask = 0;
    std::uint32_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i e = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + i));
        __m256i z = _mm256_cmpeq_epi64(_mm256_and_si256(e, vbit), vzero);
        mask |= static_cast<std::uint64_t>(
                    _mm256_movemask_pd(_mm256_castsi256_pd(z)))
                << i;
    }
    for (; i < n; ++i)
        mask |= static_cast<std::uint64_t>((p[i] & bit) == 0) << i;
    return mask;
}

inline std::uint64_t
probeRow(std::uint64_t *row, std::uint32_t n, std::uint64_t want,
         std::uint64_t dirtyBit, std::uint64_t orOnHit)
{
    const __m256i vwant = _mm256_set1_epi64x(
        static_cast<long long>(want));
    const __m256i vkeep = _mm256_set1_epi64x(
        static_cast<long long>(~dirtyBit));
    const __m256i vor = _mm256_set1_epi64x(
        static_cast<long long>(orOnHit));
    std::uint64_t miss = 0;
    std::uint32_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i e = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + i));
        __m256i hit = _mm256_cmpeq_epi64(_mm256_and_si256(e, vkeep),
                                         vwant);
        if (orOnHit) {
            // hits pick up the dirty bit, misses stay untouched for
            // the caller's scalar refill to read.
            __m256i updated = _mm256_or_si256(
                e, _mm256_and_si256(hit, vor));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(row + i),
                                updated);
        }
        std::uint64_t hitBits = static_cast<std::uint64_t>(
            _mm256_movemask_pd(_mm256_castsi256_pd(hit)));
        miss |= (~hitBits & 0xf) << i;
    }
    for (; i < n; ++i) {
        // Branchless, as in the scalar variant (which way of a set
        // hits predicts poorly), and like the vector step it stores
        // only when there is a bit to set.
        std::uint64_t e = row[i];
        bool hit = (e & ~dirtyBit) == want;
        if (orOnHit)
            row[i] = hit ? (e | orOnHit) : e;
        miss |= static_cast<std::uint64_t>(!hit) << i;
    }
    return miss;
}

} // inline namespace simd_avx2_ops

#elif !defined(TLC_SIMD_FORCE_SCALAR) && defined(__aarch64__)

inline namespace simd_neon_ops {

constexpr std::uint32_t simdWidth = 2;
constexpr SimdBackend simdOpsBackend = SimdBackend::Neon;

inline std::uint64_t
eqMask(const std::uint64_t *p, std::uint32_t n, std::uint64_t want,
       std::uint64_t ignore)
{
    const uint64x2_t vwant = vdupq_n_u64(want);
    const uint64x2_t vkeep = vdupq_n_u64(~ignore);
    std::uint64_t mask = 0;
    std::uint32_t i = 0;
    for (; i + 2 <= n; i += 2) {
        uint64x2_t e = vld1q_u64(p + i);
        uint64x2_t eq = vceqq_u64(vandq_u64(e, vkeep), vwant);
        mask |= (vgetq_lane_u64(eq, 0) & 1) << i;
        mask |= (vgetq_lane_u64(eq, 1) & 1) << (i + 1);
    }
    for (; i < n; ++i)
        mask |= static_cast<std::uint64_t>((p[i] & ~ignore) == want) << i;
    return mask;
}

inline std::uint64_t
zeroMask(const std::uint64_t *p, std::uint32_t n, std::uint64_t bit)
{
    const uint64x2_t vbit = vdupq_n_u64(bit);
    const uint64x2_t vzero = vdupq_n_u64(0);
    std::uint64_t mask = 0;
    std::uint32_t i = 0;
    for (; i + 2 <= n; i += 2) {
        uint64x2_t e = vld1q_u64(p + i);
        uint64x2_t z = vceqq_u64(vandq_u64(e, vbit), vzero);
        mask |= (vgetq_lane_u64(z, 0) & 1) << i;
        mask |= (vgetq_lane_u64(z, 1) & 1) << (i + 1);
    }
    for (; i < n; ++i)
        mask |= static_cast<std::uint64_t>((p[i] & bit) == 0) << i;
    return mask;
}

inline std::uint64_t
probeRow(std::uint64_t *row, std::uint32_t n, std::uint64_t want,
         std::uint64_t dirtyBit, std::uint64_t orOnHit)
{
    const uint64x2_t vwant = vdupq_n_u64(want);
    const uint64x2_t vkeep = vdupq_n_u64(~dirtyBit);
    const uint64x2_t vor = vdupq_n_u64(orOnHit);
    std::uint64_t miss = 0;
    std::uint32_t i = 0;
    for (; i + 2 <= n; i += 2) {
        uint64x2_t e = vld1q_u64(row + i);
        uint64x2_t hit = vceqq_u64(vandq_u64(e, vkeep), vwant);
        if (orOnHit)
            vst1q_u64(row + i, vorrq_u64(e, vandq_u64(hit, vor)));
        miss |= (~vgetq_lane_u64(hit, 0) & 1) << i;
        miss |= (~vgetq_lane_u64(hit, 1) & 1) << (i + 1);
    }
    for (; i < n; ++i) {
        // Branchless, as in the scalar variant (which way of a set
        // hits predicts poorly), and like the vector step it stores
        // only when there is a bit to set.
        std::uint64_t e = row[i];
        bool hit = (e & ~dirtyBit) == want;
        if (orOnHit)
            row[i] = hit ? (e | orOnHit) : e;
        miss |= static_cast<std::uint64_t>(!hit) << i;
    }
    return miss;
}

} // inline namespace simd_neon_ops

#else

inline namespace simd_scalar_ops {

constexpr std::uint32_t simdWidth = 1;
constexpr SimdBackend simdOpsBackend = SimdBackend::Scalar;

inline std::uint64_t
eqMask(const std::uint64_t *p, std::uint32_t n, std::uint64_t want,
       std::uint64_t ignore)
{
    std::uint64_t mask = 0;
    for (std::uint32_t i = 0; i < n; ++i)
        mask |= static_cast<std::uint64_t>((p[i] & ~ignore) == want) << i;
    return mask;
}

inline std::uint64_t
zeroMask(const std::uint64_t *p, std::uint32_t n, std::uint64_t bit)
{
    std::uint64_t mask = 0;
    for (std::uint32_t i = 0; i < n; ++i)
        mask |= static_cast<std::uint64_t>((p[i] & bit) == 0) << i;
    return mask;
}

inline std::uint64_t
probeRow(std::uint64_t *row, std::uint32_t n, std::uint64_t want,
         std::uint64_t dirtyBit, std::uint64_t orOnHit)
{
    std::uint64_t miss = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint64_t e = row[i];
        // Branchless: hits pick up orOnHit, misses are rewritten with
        // their own value (a no-op the compiler turns into a cmov'd
        // store or masked blend).
        bool hit = (e & ~dirtyBit) == want;
        row[i] = hit ? (e | orOnHit) : e;
        miss |= static_cast<std::uint64_t>(!hit) << i;
    }
    return miss;
}

} // inline namespace simd_scalar_ops

#endif

} // namespace tlc

#endif // TLC_UTIL_SIMD_HH
