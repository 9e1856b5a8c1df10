/** @file Foundation tests: bitfields, RNG distributions, stats, tables. */

#include <gtest/gtest.h>

#include "common/bitfield.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace cdvm
{
namespace
{

TEST(Bitfield, BitsAndInsert)
{
    EXPECT_EQ(bits(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeef, 31, 28), 0xdu);
    EXPECT_EQ(bits(0x1, 0), 1u);
    EXPECT_EQ(insertBits(0, 7, 4, 0xf), 0xf0u);
    EXPECT_EQ(insertBits(0xffff, 7, 4, 0), 0xff0fu);
    // Round trip.
    for (unsigned lo = 0; lo < 24; lo += 3) {
        u64 v = insertBits(0x123456789abcdef0ULL, lo + 7, lo, 0xa5);
        EXPECT_EQ(bits(v, lo + 7, lo), 0xa5u);
    }
}

TEST(Bitfield, SignExtension)
{
    EXPECT_EQ(sext(0xff, 8), -1);
    EXPECT_EQ(sext(0x7f, 8), 127);
    EXPECT_EQ(sext(0x8000, 16), -32768);
    EXPECT_EQ(sext(0xffffffff, 32), -1);
    EXPECT_EQ(sext(0x1ff, 8), -1); // upper garbage ignored
    EXPECT_TRUE(fitsSigned(-128, 8));
    EXPECT_FALSE(fitsSigned(128, 8));
    EXPECT_TRUE(fitsSigned(127, 8));
    EXPECT_TRUE(fitsUnsigned(255, 8));
    EXPECT_FALSE(fitsUnsigned(256, 8));
}

TEST(Bitfield, Alignment)
{
    EXPECT_EQ(alignDown(0x1234, 0x100), 0x1200u);
    EXPECT_EQ(alignUp(0x1234, 0x100), 0x1300u);
    EXPECT_EQ(alignUp(0x1200, 0x100), 0x1200u);
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
}

TEST(Random, Deterministic)
{
    Pcg32 a(42, 1), b(42, 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Pcg32 c(43, 1);
    bool differs = false;
    Pcg32 a2(42, 1);
    for (int i = 0; i < 10; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Random, UniformBounds)
{
    Pcg32 rng(7);
    for (int i = 0; i < 10000; ++i) {
        u32 v = rng.below(17);
        EXPECT_LT(v, 17u);
        double d = rng.uniform();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        i64 r = rng.range(-5, 5);
        EXPECT_GE(r, -5);
        EXPECT_LE(r, 5);
    }
}

TEST(Random, LogNormalMoments)
{
    Pcg32 rng(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.logNormal(0.0, 1.0);
    double mean = sum / n;
    // E[lognormal(0,1)] = e^0.5 ~ 1.6487.
    EXPECT_NEAR(mean, 1.6487, 0.05);
}

TEST(Random, GeometricMean)
{
    Pcg32 rng(13);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(0.25));
    // mean of failures-before-success = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Random, DiscreteSamplerProportions)
{
    std::vector<double> w{1.0, 2.0, 7.0};
    DiscreteSampler s(w);
    Pcg32 rng(3);
    std::array<int, 3> count{};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++count[s.sample(rng)];
    EXPECT_NEAR(count[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(count[1] / static_cast<double>(n), 0.2, 0.01);
    EXPECT_NEAR(count[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(Random, ZipfHeadHeavy)
{
    ZipfSampler z(1000, 1.0);
    Pcg32 rng(5);
    u64 head = 0, total = 100000;
    for (u64 i = 0; i < total; ++i) {
        if (z.sample(rng) <= 10)
            ++head;
    }
    // For zipf(1.0) over 1000 ranks, top-10 mass ~ H(10)/H(1000) ~ 39%.
    EXPECT_NEAR(static_cast<double>(head) / total, 0.39, 0.04);
}

TEST(Stats, LogHistogramBuckets)
{
    LogHistogram h(10.0, 8);
    EXPECT_EQ(h.bucketOf(0), 0u);
    EXPECT_EQ(h.bucketOf(9), 0u);
    EXPECT_EQ(h.bucketOf(10), 1u);
    EXPECT_EQ(h.bucketOf(99), 1u);
    EXPECT_EQ(h.bucketOf(100), 2u);
    EXPECT_EQ(h.bucketOf(1'000'000), 6u);
    h.add(5);
    h.add(50, 2.0);
    h.add(500);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 4.0);
    EXPECT_DOUBLE_EQ(h.bucketWeight(1), 2.0);
    EXPECT_DOUBLE_EQ(h.weightAtOrAbove(100), 1.0);
    EXPECT_DOUBLE_EQ(h.weightAtOrAbove(10), 3.0);
}

TEST(Stats, RunningStat)
{
    RunningStat r;
    r.add(3.0);
    r.add(1.0);
    r.add(5.0);
    EXPECT_EQ(r.count(), 3u);
    EXPECT_DOUBLE_EQ(r.mean(), 3.0);
    EXPECT_DOUBLE_EQ(r.min(), 1.0);
    EXPECT_DOUBLE_EQ(r.max(), 5.0);
}

TEST(Table, RenderAndFormat)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    std::string s = t.render();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);

    EXPECT_EQ(fmtCount(1234567ULL), "1,234,567");
    EXPECT_EQ(fmtCount(12ULL), "12");
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");

    Series a{"x", {1, 2}, {3, 4}};
    std::string r = renderSeries({a}, "t", "v");
    EXPECT_NE(r.find("series x:"), std::string::npos);
    EXPECT_NE(r.find("  2 4"), std::string::npos);
}

} // namespace
} // namespace cdvm
