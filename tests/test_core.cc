/** @file AutoFL core tests: state encoding, Q-table, reward. */
#include <gtest/gtest.h>

#include "core/autofl.h"
#include "nn/models.h"

namespace autofl {
namespace {

TEST(State, GlobalEncodingIsInjective)
{
    // Exhaustively check the dense encoding hits each index once.
    std::vector<bool> seen(static_cast<size_t>(kGlobalStates), false);
    for (int c = 0; c < kConvBuckets; ++c)
        for (int f = 0; f < kFcBuckets; ++f)
            for (int r = 0; r < kRcBuckets; ++r)
                for (int b = 0; b < kBatchBuckets; ++b)
                    for (int e = 0; e < kEpochBuckets; ++e)
                        for (int k = 0; k < kKBuckets; ++k)
                            for (int st = 0; st < kStaleBuckets; ++st) {
                                GlobalState s{c, f, r, b, e, k, st};
                                const int idx = encode_global(s);
                                ASSERT_FALSE(
                                    seen[static_cast<size_t>(idx)]);
                                seen[static_cast<size_t>(idx)] = true;
                            }
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(State, LocalEncodingIsInjective)
{
    std::vector<bool> seen(static_cast<size_t>(kLocalStates), false);
    for (int c = 0; c < kCoCpuBuckets; ++c)
        for (int m = 0; m < kCoMemBuckets; ++m)
            for (int n = 0; n < kNetworkBuckets; ++n)
                for (int d = 0; d < kDataBuckets; ++d) {
                    LocalState s{c, m, n, d};
                    const int idx = encode_local(s);
                    ASSERT_FALSE(seen[static_cast<size_t>(idx)]);
                    seen[static_cast<size_t>(idx)] = true;
                }
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(State, Table1GlobalThresholds)
{
    NnProfile p;
    p.conv_layers = 2;
    p.fc_layers = 2;
    p.rc_layers = 0;
    FlGlobalParams params{16, 5, 20};
    GlobalState s = make_global_state(p, params);
    EXPECT_EQ(s.s_conv, 1);  // small
    EXPECT_EQ(s.s_fc, 1);    // small
    EXPECT_EQ(s.s_rc, 0);    // none
    EXPECT_EQ(s.s_b, 1);     // medium (<32)
    EXPECT_EQ(s.s_e, 1);     // medium (<10)
    EXPECT_EQ(s.s_k, 1);     // medium (<50)

    p.conv_layers = 25;
    p.fc_layers = 12;
    p.rc_layers = 11;
    params = {32, 10, 60};
    s = make_global_state(p, params);
    EXPECT_EQ(s.s_conv, 3);  // large (<30)
    EXPECT_EQ(s.s_fc, 2);    // large (>=10)
    EXPECT_EQ(s.s_rc, 3);    // large (>=10)
    EXPECT_EQ(s.s_b, 2);     // large (>=32)
    EXPECT_EQ(s.s_e, 2);     // large (>=10)
    EXPECT_EQ(s.s_k, 2);     // large (>=50)
}

TEST(State, StalenessBucketThresholds)
{
    NnProfile p;
    FlGlobalParams params{16, 5, 20};
    // Default (synchronous runtime) lands in the fresh bucket.
    EXPECT_EQ(make_global_state(p, params).s_stale, 0);
    EXPECT_EQ(make_global_state(p, params, 0.5).s_stale, 1);   // mild
    EXPECT_EQ(make_global_state(p, params, 2.0).s_stale, 2);   // heavy
}

TEST(State, Table1LocalThresholds)
{
    DeviceRoundState quiet{0.0, 0.0, 80.0};
    LocalState s = make_local_state(quiet, 10, 10);
    EXPECT_EQ(s.s_co_cpu, 0);   // none
    EXPECT_EQ(s.s_co_mem, 0);   // none
    EXPECT_EQ(s.s_network, 0);  // regular
    EXPECT_EQ(s.s_data, 2);     // large (=100%)

    DeviceRoundState loaded{0.5, 0.8, 30.0};
    s = make_local_state(loaded, 2, 10);
    EXPECT_EQ(s.s_co_cpu, 2);   // medium (<75%)
    EXPECT_EQ(s.s_co_mem, 3);   // large
    EXPECT_EQ(s.s_network, 1);  // bad (<=40 Mbps)
    EXPECT_EQ(s.s_data, 0);     // small (<25%)
}

TEST(State, WorkloadsMapToDistinctGlobalStates)
{
    FlGlobalParams params{16, 5, 20};
    const int cnn = encode_global(
        make_global_state(model_profile(Workload::CnnMnist), params));
    const int lstm = encode_global(
        make_global_state(model_profile(Workload::LstmShakespeare), params));
    const int mob = encode_global(make_global_state(
        model_profile(Workload::MobileNetImageNet), params));
    EXPECT_NE(cnn, lstm);
    EXPECT_NE(cnn, mob);
    EXPECT_NE(lstm, mob);
}

TEST(Action, EncodeDecodeRoundTrip)
{
    for (int i = 0; i < kNumActions; ++i) {
        const Action a = decode_action(i);
        EXPECT_EQ(encode_action(a), i);
    }
    EXPECT_EQ(encode_action({ExecTarget::Cpu, DvfsLevel::Low}), 0);
    EXPECT_EQ(encode_action({ExecTarget::Gpu, DvfsLevel::High}), 5);
}

TEST(QTable, MaterializesWithSmallRandomInit)
{
    QTable t(Rng(1), 0.01);
    EXPECT_EQ(t.entries(), 0u);
    const double v = t.q(3, 5, 2);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 0.01);
    EXPECT_EQ(t.entries(), 1u);
    // Stable on re-read.
    EXPECT_EQ(t.q(3, 5, 2), v);
}

TEST(QTable, BestActionTracksSetValues)
{
    QTable t(Rng(2), 0.0);
    t.set_q(1, 1, 4, 7.5);
    t.set_q(1, 1, 2, 3.0);
    EXPECT_EQ(t.best_action(1, 1), 4);
    EXPECT_DOUBLE_EQ(t.max_q(1, 1), 7.5);
}

TEST(QTable, UpdateImplementsAlgorithm1)
{
    QTable t(Rng(3), 0.0);
    t.set_q(0, 0, 0, 1.0);
    // Q += gamma * (r + mu * nextQ - Q) with gamma=0.9, mu=0.1.
    t.update(0, 0, 0, /*reward=*/10.0, /*next_q=*/5.0, 0.9, 0.1);
    EXPECT_NEAR(t.q(0, 0, 0), 1.0 + 0.9 * (10.0 + 0.5 - 1.0), 1e-12);
}

TEST(QTable, BytesGrowWithEntries)
{
    QTable t(Rng(4), 0.01);
    const size_t empty = t.bytes();
    t.q(0, 0, 0);
    t.q(1, 1, 0);
    EXPECT_GT(t.bytes(), empty);
}

TEST(Reward, FailureBranchPenalizes)
{
    RewardConfig cfg;
    // No accuracy improvement -> acc - 100.
    EXPECT_DOUBLE_EQ(compute_reward(cfg, 50, 2, 70.0, 70.0), -30.0);
    EXPECT_DOUBLE_EQ(compute_reward(cfg, 50, 2, 60.0, 65.0), -40.0);
}

TEST(Reward, SuccessBranchTradesEnergyForAccuracy)
{
    RewardConfig cfg;
    cfg.alpha = 1.0;
    cfg.beta = 2.0;
    cfg.energy_scale_global_j = 50.0;
    cfg.energy_scale_local_j = 2.0;
    const double r = compute_reward(cfg, 100.0, 4.0, 80.0, 75.0);
    // -100/50 - 4/2 + 80 + 2*5 = -2 - 2 + 80 + 10 = 86.
    EXPECT_NEAR(r, 86.0, 1e-12);
}

TEST(Reward, LowerEnergyIsBetter)
{
    RewardConfig cfg;
    EXPECT_GT(compute_reward(cfg, 10.0, 1.0, 80.0, 79.0),
              compute_reward(cfg, 200.0, 8.0, 80.0, 79.0));
}

} // namespace
} // namespace autofl
