/** @file RNG determinism and distribution-quality tests. */
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/stats.h"

namespace autofl {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == b())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkedStreamsAreIndependent)
{
    Rng root(7);
    Rng c1 = root.fork(1);
    Rng c2 = root.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (c1() == c2())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    RunningStat st;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        st.add(u);
    }
    EXPECT_NEAR(st.mean(), 0.5, 0.02);
    EXPECT_NEAR(st.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRange)
{
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

class RandintTest : public ::testing::TestWithParam<std::pair<int64_t, int64_t>>
{
};

TEST_P(RandintTest, StaysInBoundsAndHitsAll)
{
    const auto [lo, hi] = GetParam();
    Rng rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 5000; ++i) {
        const int64_t v = rng.randint(lo, hi);
        ASSERT_GE(v, lo);
        ASSERT_LE(v, hi);
        seen.insert(v);
    }
    if (hi - lo < 20) {
        EXPECT_EQ(static_cast<int64_t>(seen.size()), hi - lo + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Ranges, RandintTest,
                         ::testing::Values(std::pair<int64_t, int64_t>{0, 0},
                                           std::pair<int64_t, int64_t>{0, 1},
                                           std::pair<int64_t, int64_t>{-5, 5},
                                           std::pair<int64_t, int64_t>{0, 199},
                                           std::pair<int64_t, int64_t>{10, 13}));

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    RunningStat st;
    for (int i = 0; i < 30000; ++i)
        st.add(rng.normal());
    EXPECT_NEAR(st.mean(), 0.0, 0.03);
    EXPECT_NEAR(st.stddev(), 1.0, 0.03);
}

TEST(Rng, NormalShifted)
{
    Rng rng(12);
    RunningStat st;
    for (int i = 0; i < 20000; ++i)
        st.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(st.mean(), 10.0, 0.1);
    EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GammaMeanMatchesShape)
{
    // Gamma(k, 1) has mean k and variance k.
    for (double shape : {0.1, 0.5, 1.0, 3.0}) {
        Rng rng(static_cast<uint64_t>(shape * 1000) + 17);
        RunningStat st;
        for (int i = 0; i < 20000; ++i)
            st.add(rng.gamma(shape));
        EXPECT_NEAR(st.mean(), shape, 0.1 * std::max(1.0, shape))
            << "shape " << shape;
    }
}

TEST(Rng, DirichletSumsToOne)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        auto p = rng.dirichlet(0.1, 10);
        double sum = 0.0;
        for (double v : p) {
            ASSERT_GE(v, 0.0);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(Rng, DirichletLowConcentrationIsPeaked)
{
    // alpha = 0.1 (the paper's value) should concentrate most mass on
    // one or two classes; alpha = 100 should be near-uniform.
    Rng rng(21);
    RunningStat peaked, flat;
    for (int i = 0; i < 200; ++i) {
        auto a = rng.dirichlet(0.1, 10);
        peaked.add(*std::max_element(a.begin(), a.end()));
        auto b = rng.dirichlet(100.0, 10);
        flat.add(*std::max_element(b.begin(), b.end()));
    }
    EXPECT_GT(peaked.mean(), 0.6);
    EXPECT_LT(flat.mean(), 0.2);
}

TEST(Rng, CategoricalFollowsWeights)
{
    Rng rng(23);
    std::vector<double> w = {1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 30000; ++i)
        ++counts[static_cast<size_t>(rng.categorical(w))];
    EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
    EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
    EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v(50);
    for (int i = 0; i < 50; ++i)
        v[static_cast<size_t>(i)] = i;
    auto sorted = v;
    rng.shuffle(v);
    EXPECT_FALSE(std::is_sorted(v.begin(), v.end()));
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(ClientSeed, DeterministicInJobIdentity)
{
    EXPECT_EQ(client_seed(1, 5, 3), client_seed(1, 5, 3));
    Rng a = client_rng(1, 5, 3);
    Rng b = client_rng(1, 5, 3);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a(), b());
}

TEST(ClientSeed, EveryIdentityComponentMatters)
{
    const uint64_t base = client_seed(1, 5, 3);
    EXPECT_NE(base, client_seed(2, 5, 3));  // global seed
    EXPECT_NE(base, client_seed(1, 6, 3));  // device
    EXPECT_NE(base, client_seed(1, 5, 4));  // round
}

TEST(ClientSeed, NoCollisionsAcrossDevicesAndRounds)
{
    // A fleet's worth of (device, round) jobs under one global seed
    // must get distinct streams.
    std::set<uint64_t> seen;
    for (int dev = 0; dev < 200; ++dev)
        for (uint64_t round = 0; round < 60; ++round)
            seen.insert(client_seed(42, dev, round));
    EXPECT_EQ(seen.size(), 200u * 60u);
}

} // namespace
} // namespace autofl
