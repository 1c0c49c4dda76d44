/**
 * @file
 * Unit and property tests for the Pcg32 generator and ZipfDist.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/random.hh"

using namespace tlc;

TEST(Pcg32, DeterministicForSameSeed)
{
    Pcg32 a(42, 7), b(42, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(42), b(43);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Pcg32, DifferentStreamsDiffer)
{
    Pcg32 a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Pcg32, BoundedStaysInBounds)
{
    Pcg32 rng(1);
    for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u, 1u << 30}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Pcg32, BoundedZeroIsZero)
{
    Pcg32 rng(1);
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Pcg32, DoubleInUnitInterval)
{
    Pcg32 rng(3);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Pcg32, DoubleMeanIsHalf)
{
    Pcg32 rng(4);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Pcg32, BoundedIsRoughlyUniform)
{
    Pcg32 rng(5);
    const std::uint32_t bound = 10;
    std::vector<int> hist(bound, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++hist[rng.nextBounded(bound)];
    for (auto h : hist) {
        EXPECT_GT(h, n / bound * 0.9);
        EXPECT_LT(h, n / bound * 1.1);
    }
}

TEST(Pcg32, GeometricMeanMatches)
{
    Pcg32 rng(6);
    const double p = 0.2;
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextGeometric(p);
    // Mean of failures-before-success geometric is (1-p)/p = 4.
    EXPECT_NEAR(sum / n, (1 - p) / p, 0.15);
}

TEST(Pcg32, ExponentialMeanMatches)
{
    Pcg32 rng(7);
    const double mean = 5.0;
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(mean);
    EXPECT_NEAR(sum / n, mean, 0.2);
}

TEST(Pcg32, ZipfStaysInRange)
{
    Pcg32 rng(8);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextZipf(100, 1.0), 100u);
}

TEST(Pcg32, ZipfSingleElement)
{
    Pcg32 rng(9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.nextZipf(1, 1.2), 0u);
}

TEST(Pcg32, ZipfIsSkewedTowardLowRanks)
{
    Pcg32 rng(10);
    const int n = 100000;
    int rank0 = 0, upper_half = 0;
    for (int i = 0; i < n; ++i) {
        std::uint32_t r = rng.nextZipf(1000, 1.2);
        rank0 += (r == 0);
        upper_half += (r >= 500);
    }
    // Rank 0 must dominate any individual high rank, and the whole
    // upper half should receive a small share.
    EXPECT_GT(rank0, n / 20);
    EXPECT_LT(upper_half, n / 10);
}

// Property: skew increases with s.
TEST(Pcg32, ZipfSkewGrowsWithS)
{
    auto top10_share = [](double s) {
        Pcg32 rng(11);
        const int n = 50000;
        int top = 0;
        for (int i = 0; i < n; ++i)
            top += (rng.nextZipf(1000, s) < 10);
        return static_cast<double>(top) / n;
    };
    double s08 = top10_share(0.8);
    double s12 = top10_share(1.2);
    double s16 = top10_share(1.6);
    EXPECT_LT(s08, s12);
    EXPECT_LT(s12, s16);
}

namespace {

/**
 * The Zipf sampler as first written: every bound recomputed on
 * every draw and the two-clause acceptance test first. ZipfDist must
 * return exactly these ranks from the same generator state.
 */
std::uint32_t
referenceZipf(Pcg32 &rng, std::uint32_t n, double s)
{
    if (n == 1)
        return 0;
    auto h = [s](double x) {
        if (s == 1.0)
            return std::log(x);
        return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
    };
    auto hInv = [s](double y) {
        if (s == 1.0)
            return std::exp(y);
        return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
    };
    const double hx0 = h(0.5) - 1.0;
    const double hn = h(n + 0.5);
    for (;;) {
        double u = hx0 + rng.nextDouble() * (hn - hx0);
        double x = hInv(u);
        std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n)
            k = n;
        double hk = h(k - 0.5);
        if (u >= hk - std::pow(static_cast<double>(k), -s) &&
            u < h(k + 0.5))
            return static_cast<std::uint32_t>(k - 1);
        if (u >= hk)
            return static_cast<std::uint32_t>(k - 1);
    }
}

const double kZipfExponents[] = {0.55, 0.95, 1.0, 1.3};

} // namespace

TEST(ZipfDist, MatchesReferenceAtFixedN)
{
    for (double s : kZipfExponents) {
        Pcg32 a(12, 3), b(12, 3);
        ZipfDist dist(s);
        for (int i = 0; i < 20000; ++i) {
            ASSERT_EQ(dist(a, 1000), referenceZipf(b, 1000, s))
                << "s " << s << " draw " << i;
        }
        EXPECT_EQ(a.next(), b.next()) << "s " << s;
    }
}

// StackDistStream's pattern: one ZipfDist while n grows one object
// at a time, so the cached h(n + 0.5) is replaced at every step.
TEST(ZipfDist, MatchesReferenceAsNGrows)
{
    for (double s : kZipfExponents) {
        Pcg32 a(13, 4), b(13, 4);
        ZipfDist dist(s);
        for (std::uint32_t n = 2; n <= 4096; ++n) {
            for (int rep = 0; rep < 3; ++rep) {
                ASSERT_EQ(dist(a, n), referenceZipf(b, n, s))
                    << "s " << s << " n " << n;
            }
        }
        EXPECT_EQ(a.next(), b.next()) << "s " << s;
    }
}

TEST(ZipfDist, SingleElementDrawsNothing)
{
    for (double s : kZipfExponents) {
        Pcg32 a(14), b(14);
        ZipfDist dist(s);
        for (int i = 0; i < 10; ++i)
            EXPECT_EQ(dist(a, 1), 0u);
        // Back to a larger n after n = 1: the cached bound is redone.
        EXPECT_EQ(dist(a, 50), referenceZipf(b, 50, s));
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(ZipfDist, NextZipfIsAOneDrawDist)
{
    Pcg32 a(15), b(15);
    for (std::uint32_t n : {2u, 7u, 1000u, 7u}) {
        for (double s : kZipfExponents)
            EXPECT_EQ(a.nextZipf(n, s), referenceZipf(b, n, s));
    }
}
