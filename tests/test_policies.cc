/** @file Selection policy tests: baselines, templates, oracle. */
#include <set>

#include <gtest/gtest.h>

#include "nn/models.h"
#include "policies/oracle.h"
#include "policies/policy.h"

namespace autofl {
namespace {

GlobalObservation
obs()
{
    GlobalObservation g;
    g.profile = model_profile(Workload::CnnMnist);
    g.params = {16, 5, 20};
    return g;
}

std::vector<LocalObservation>
locals_for(const Fleet &fleet)
{
    std::vector<LocalObservation> out(static_cast<size_t>(fleet.size()));
    for (auto &l : out) {
        l.state.bandwidth_mbps = 80.0;
        l.data_classes = 10;
        l.total_classes = 10;
    }
    return out;
}

int
count_tier(const Fleet &fleet, const std::vector<ParticipantPlan> &plans,
           Tier t)
{
    int n = 0;
    for (const auto &p : plans)
        if (fleet.device(p.device_id).tier() == t)
            ++n;
    return n;
}

TEST(Table4, TemplatesMatchPaper)
{
    const auto &clusters = table4_clusters();
    ASSERT_EQ(clusters.size(), 8u);
    EXPECT_TRUE(clusters[0].random);
    EXPECT_EQ(clusters[1].high, 20);   // C1 = Performance
    EXPECT_EQ(clusters[7].low, 20);    // C7 = Power
    EXPECT_EQ(clusters[3].high, 10);   // C3 = 10/5/5
    EXPECT_EQ(clusters[3].mid, 5);
    EXPECT_EQ(clusters[3].low, 5);
    for (const auto &c : clusters) {
        if (!c.random) {
            EXPECT_EQ(c.high + c.mid + c.low, 20) << c.label;
        }
    }
}

TEST(RandomPolicy, SelectsKDistinctDevices)
{
    Fleet fleet(FleetMix{}, VarianceScenario::None, 31);
    auto policy = make_random_policy(fleet, 1);
    EXPECT_EQ(policy->name(), "FedAvg-Random");
    auto plans = policy->select(obs(), locals_for(fleet), 20);
    EXPECT_EQ(plans.size(), 20u);
    std::set<int> ids;
    for (const auto &p : plans)
        ids.insert(p.device_id);
    EXPECT_EQ(ids.size(), 20u);
}

TEST(RandomPolicy, CoversFleetOverManyRounds)
{
    Fleet fleet(FleetMix{}, VarianceScenario::None, 32);
    auto policy = make_random_policy(fleet, 2);
    std::set<int> seen;
    for (int r = 0; r < 60; ++r)
        for (const auto &p : policy->select(obs(), locals_for(fleet), 20))
            seen.insert(p.device_id);
    EXPECT_GT(seen.size(), 190u);
}

TEST(PerformancePolicy, SelectsOnlyHighEnd)
{
    Fleet fleet(FleetMix{}, VarianceScenario::None, 33);
    auto policy = make_performance_policy(fleet, 3);
    auto plans = policy->select(obs(), locals_for(fleet), 20);
    EXPECT_EQ(count_tier(fleet, plans, Tier::High), 20);
}

TEST(PowerPolicy, SelectsOnlyLowEnd)
{
    Fleet fleet(FleetMix{}, VarianceScenario::None, 34);
    auto policy = make_power_policy(fleet, 4);
    auto plans = policy->select(obs(), locals_for(fleet), 20);
    EXPECT_EQ(count_tier(fleet, plans, Tier::Low), 20);
}

class TemplateScalingTest
    : public ::testing::TestWithParam<std::pair<const char *, int>>
{
};

TEST_P(TemplateScalingTest, TierCountsScaleWithK)
{
    const auto [label, k] = GetParam();
    Fleet fleet(FleetMix{}, VarianceScenario::None, 35);
    ClusterTemplate tmpl;
    for (const auto &c : table4_clusters())
        if (c.label == label)
            tmpl = c;
    StaticClusterPolicy policy(fleet, tmpl, StaticExecSettings{}, 5);
    auto plans = policy.select(obs(), locals_for(fleet), k);
    EXPECT_EQ(static_cast<int>(plans.size()), k);
    // Proportions approximately preserved (within rounding).
    const int h = count_tier(fleet, plans, Tier::High);
    EXPECT_NEAR(h, tmpl.high * k / 20.0, 1.01) << label << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Combos, TemplateScalingTest,
    ::testing::Values(std::pair{"C3", 20}, std::pair{"C3", 10},
                      std::pair{"C4", 10}, std::pair{"C2", 10},
                      std::pair{"C5", 20}));

TEST(StaticClusterPolicy, AppliesExecSettings)
{
    Fleet fleet(FleetMix{}, VarianceScenario::None, 36);
    ClusterTemplate c3;
    for (const auto &c : table4_clusters())
        if (c.label == "C3")
            c3 = c;
    StaticClusterPolicy policy(fleet, c3,
                               {ExecTarget::Gpu, DvfsLevel::Mid}, 6);
    for (const auto &p : policy.select(obs(), locals_for(fleet), 20)) {
        EXPECT_EQ(p.target, ExecTarget::Gpu);
        EXPECT_EQ(p.dvfs, DvfsLevel::Mid);
    }
}

TEST(OraclePolicy, PerTierExecSettings)
{
    Fleet fleet(FleetMix{}, VarianceScenario::None, 37);
    OracleSpec spec;
    for (const auto &c : table4_clusters())
        if (c.label == "C3")
            spec.cluster = c;
    spec.exec.high = {ExecTarget::Gpu, DvfsLevel::Low};
    spec.exec.mid = {ExecTarget::Cpu, DvfsLevel::Mid};
    spec.exec.low = {ExecTarget::Cpu, DvfsLevel::High};
    OraclePolicy policy(fleet, spec, "O_FL", 7);
    for (const auto &p : policy.select(obs(), locals_for(fleet), 20)) {
        switch (fleet.device(p.device_id).tier()) {
          case Tier::High:
            EXPECT_EQ(p.target, ExecTarget::Gpu);
            EXPECT_EQ(p.dvfs, DvfsLevel::Low);
            break;
          case Tier::Mid:
            EXPECT_EQ(p.target, ExecTarget::Cpu);
            EXPECT_EQ(p.dvfs, DvfsLevel::Mid);
            break;
          case Tier::Low:
            EXPECT_EQ(p.dvfs, DvfsLevel::High);
            break;
        }
    }
}

TEST(OraclePolicy, PrefersMarkedDevices)
{
    Fleet fleet(FleetMix{}, VarianceScenario::None, 38);
    OracleSpec spec;
    for (const auto &c : table4_clusters())
        if (c.label == "C3")
            spec.cluster = c;
    OraclePolicy policy(fleet, spec, "O_participant", 8);

    // Mark 15 high-end, 10 mid, 10 low as preferred (IID).
    std::vector<bool> preferred(200, false);
    for (int d = 0; d < 15; ++d)
        preferred[static_cast<size_t>(d)] = true;          // high ids 0..29
    for (int d = 30; d < 40; ++d)
        preferred[static_cast<size_t>(d)] = true;          // mid ids 30..99
    for (int d = 100; d < 110; ++d)
        preferred[static_cast<size_t>(d)] = true;          // low ids 100..199
    policy.set_preferred(preferred);

    auto plans = policy.select(obs(), locals_for(fleet), 20);
    int chosen_preferred = 0;
    for (const auto &p : plans)
        if (preferred[static_cast<size_t>(p.device_id)])
            ++chosen_preferred;
    // C3 = 10 H + 5 M + 5 L at K=20; enough preferred exist in each tier.
    EXPECT_EQ(chosen_preferred, 20);
}

} // namespace
} // namespace autofl
