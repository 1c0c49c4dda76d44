/**
 * @file
 * PCG32 implementation and derived distributions.
 */

#include "random.hh"

#include <cmath>

#include "logging.hh"

namespace tlc {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1u) | 1u)
{
    next();
    state_ += seed;
    next();
}

std::uint32_t
Pcg32::next()
{
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    std::uint32_t xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
}

std::uint32_t
Pcg32::nextBounded(std::uint32_t bound)
{
    if (bound == 0)
        return 0;
    // Lemire-style rejection to avoid modulo bias.
    std::uint32_t threshold = (-bound) % bound;
    for (;;) {
        std::uint32_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Pcg32::nextDouble()
{
    // 32 random bits -> [0, 1) with 2^-32 resolution.
    return next() * (1.0 / 4294967296.0);
}

std::uint32_t
Pcg32::nextGeometric(double p)
{
    tlc_assert(p > 0.0 && p <= 1.0, "geometric p=%f out of range", p);
    if (p >= 1.0)
        return 0;
    double u = nextDouble();
    // Guard against log(0).
    if (u <= 0.0)
        u = 1e-12;
    return static_cast<std::uint32_t>(std::log(u) / std::log(1.0 - p));
}

double
Pcg32::nextExponential(double mean)
{
    double u = nextDouble();
    if (u <= 0.0)
        u = 1e-12;
    return -mean * std::log(u);
}

std::uint32_t
Pcg32::nextZipf(std::uint32_t n, double s)
{
    return ZipfDist(s)(*this, n);
}

ZipfDist::ZipfDist(double s) : s_(s), hx0_(h(0.5) - 1.0) {}

double
ZipfDist::h(double x) const
{
    if (s_ == 1.0)
        return std::log(x);
    return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double
ZipfDist::hInv(double y) const
{
    if (s_ == 1.0)
        return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s_), 1.0 / (1.0 - s_));
}

std::uint32_t
ZipfDist::operator()(Pcg32 &rng, std::uint32_t n)
{
    tlc_assert(n > 0, "zipf over empty range");
    if (n == 1)
        return 0;
    if (n != n_) {
        n_ = n;
        hn_ = h(n + 0.5);
    }
    // Rejection-inversion sampling, specialised to support {1..n}
    // and shifted to {0..n-1}.
    for (;;) {
        double u = hx0_ + rng.nextDouble() * (hn_ - hx0_);
        double x = hInv(u);
        std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n)
            k = n;
        double hk = h(k - 0.5);
        // k^-s > 0, so u >= hk already satisfies the first clause
        // of the acceptance test below; testing it first skips two
        // pow() calls on most draws and accepts the same ranks.
        if (u >= hk)
            return static_cast<std::uint32_t>(k - 1);
        if (u >= hk - std::pow(static_cast<double>(k), -s_) &&
            u < h(k + 0.5))
            return static_cast<std::uint32_t>(k - 1);
    }
}

} // namespace tlc
