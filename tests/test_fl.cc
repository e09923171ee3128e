/** @file FL engine tests: local training, aggregation algorithms, system. */
#include <cmath>

#include <gtest/gtest.h>

#include "fl/system.h"

namespace autofl {
namespace {

FlSystemConfig
small_system(Algorithm alg = Algorithm::FedAvg)
{
    FlSystemConfig cfg;
    cfg.workload = Workload::CnnMnist;
    cfg.params = {16, 2, 5};
    cfg.algorithm = alg;
    cfg.hyper.lr = 0.05;
    cfg.data.train_samples = 400;
    cfg.data.test_samples = 200;
    cfg.data.noise = 0.6;
    cfg.partition.num_devices = 20;
    cfg.seed = 11;
    cfg.threads = 4;
    return cfg;
}

TEST(LocalTrainer, ReducesLossOnShard)
{
    FlSystem fl(small_system());
    LocalTrainer trainer(Workload::CnnMnist);
    const Dataset &shard = fl.shard(0);

    FlGlobalParams params{8, 1, 5};
    TrainHyper hyper;
    hyper.lr = 0.05;
    auto first = trainer.train(fl.server().global_weights(), shard, params,
                               hyper, Algorithm::FedAvg, {}, Rng(1));
    // Train more epochs from the same start: loss after must be lower.
    params.epochs = 8;
    auto more = trainer.train(fl.server().global_weights(), shard, params,
                              hyper, Algorithm::FedAvg, {}, Rng(1));
    EXPECT_LT(more.train_loss, first.train_loss);
    EXPECT_GT(more.train_acc, 0.3);
}

TEST(LocalTrainer, CountsStepsAndSamples)
{
    FlSystem fl(small_system());
    LocalTrainer trainer(Workload::CnnMnist);
    const Dataset &shard = fl.shard(0);
    const int n = static_cast<int>(shard.size());

    FlGlobalParams params{8, 3, 5};
    auto update = trainer.train(fl.server().global_weights(), shard, params,
                                TrainHyper{}, Algorithm::FedAvg, {}, Rng(2));
    const int batches_per_epoch = (n + 7) / 8;
    EXPECT_EQ(update.num_steps, 3 * batches_per_epoch);
    EXPECT_EQ(update.num_samples, n);
    EXPECT_EQ(update.weights.size(), fl.server().num_params());
}

TEST(LocalTrainer, FedProxStaysCloserToGlobal)
{
    FlSystem fl(small_system());
    LocalTrainer trainer(Workload::CnnMnist);
    const Dataset &shard = fl.shard(0);
    FlGlobalParams params{8, 4, 5};
    const auto &global = fl.server().global_weights();

    TrainHyper hyper;
    hyper.lr = 0.05;
    hyper.prox_mu = 0.0;
    auto plain = trainer.train(global, shard, params, hyper,
                               Algorithm::FedAvg, {}, Rng(3));
    hyper.prox_mu = 1.0;
    auto prox = trainer.train(global, shard, params, hyper,
                              Algorithm::FedProx, {}, Rng(3));

    auto dist = [&](const std::vector<float> &w) {
        double s = 0.0;
        for (size_t i = 0; i < w.size(); ++i) {
            const double d = w[i] - global[i];
            s += d * d;
        }
        return std::sqrt(s);
    };
    EXPECT_LT(dist(prox.weights), dist(plain.weights));
}

TEST(LocalTrainer, FullGradientMatchesShape)
{
    FlSystem fl(small_system());
    LocalTrainer trainer(Workload::CnnMnist);
    auto g = trainer.full_gradient(fl.server().global_weights(), fl.shard(0));
    EXPECT_EQ(g.size(), fl.server().num_params());
    double norm = 0.0;
    for (float v : g)
        norm += static_cast<double>(v) * v;
    EXPECT_GT(norm, 0.0);
}

TEST(Server, FedAvgIsSampleWeightedMean)
{
    Server server(Workload::CnnMnist, Algorithm::FedAvg, TrainHyper{}, 5);
    const size_t dim = server.num_params();

    LocalUpdate a, b;
    a.weights.assign(dim, 1.0f);
    a.num_samples = 10;
    a.num_steps = 1;
    b.weights.assign(dim, 4.0f);
    b.num_samples = 30;
    b.num_steps = 1;
    server.aggregate({a, b});
    // (10*1 + 30*4) / 40 = 3.25.
    for (size_t i = 0; i < dim; i += dim / 7)
        EXPECT_NEAR(server.global_weights()[i], 3.25f, 1e-5f);
}

TEST(Server, AggregateEmptyIsNoOp)
{
    Server server(Workload::CnnMnist, Algorithm::FedAvg, TrainHyper{}, 6);
    auto before = server.global_weights();
    server.aggregate({});
    EXPECT_EQ(server.global_weights(), before);
}

TEST(Server, FedNovaNormalizesByLocalSteps)
{
    Server server(Workload::CnnMnist, Algorithm::FedNova, TrainHyper{}, 7);
    const size_t dim = server.num_params();
    std::vector<float> w0 = server.global_weights();

    // Client A took 10 steps, client B only 2, but both moved the same
    // distance per step. FedNova should treat their *directions* equally.
    LocalUpdate a, b;
    a.num_samples = 10;
    a.num_steps = 10;
    a.weights.resize(dim);
    b.num_samples = 10;
    b.num_steps = 2;
    b.weights.resize(dim);
    for (size_t i = 0; i < dim; ++i) {
        a.weights[i] = w0[i] - 10.0f * 0.01f;  // 10 steps of -0.01
        b.weights[i] = w0[i] - 2.0f * 0.01f;   // 2 steps of -0.01
    }
    server.aggregate({a, b});
    // Normalized direction: both 0.01/step; tau_eff = 0.5*10 + 0.5*2 = 6
    // -> step = 6 * 0.01 = 0.06.
    for (size_t i = 0; i < dim; i += dim / 7)
        EXPECT_NEAR(server.global_weights()[i], w0[i] - 0.06f, 1e-4f);
}

TEST(Server, FedlCorrectionUsesGlobalGradient)
{
    Server server(Workload::CnnMnist, Algorithm::Fedl, TrainHyper{}, 8);
    EXPECT_TRUE(server.wants_full_gradients());
    const size_t dim = server.num_params();

    // No estimate yet -> empty correction.
    std::vector<float> local_grad(dim, 0.5f);
    EXPECT_TRUE(server.fedl_correction(local_grad).empty());

    std::vector<std::vector<float>> grads = {
        std::vector<float>(dim, 1.0f), std::vector<float>(dim, 3.0f)};
    server.update_global_gradient(grads);
    auto corr = server.fedl_correction(local_grad);
    ASSERT_EQ(corr.size(), dim);
    // eta * mean(1,3) - 0.5 = 0.5 * 2 - 0.5 = 0.5.
    EXPECT_NEAR(corr[0], 0.5f, 1e-6f);
}

TEST(Server, EvaluateIsDeterministic)
{
    FlSystem fl(small_system());
    const double a = fl.evaluate();
    const double b = fl.evaluate();
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
}

TEST(FlSystem, ShardsCoverConfiguredDevices)
{
    FlSystem fl(small_system());
    EXPECT_EQ(fl.num_devices(), 20);
    for (int d = 0; d < fl.num_devices(); ++d) {
        EXPECT_FALSE(fl.shard(d).empty());
        EXPECT_GE(fl.classes_on_device(d), 1);
        EXPECT_LE(fl.classes_on_device(d), 10);
    }
}

TEST(FlSystem, RoundImprovesAccuracy)
{
    FlSystem fl(small_system());
    const double before = fl.evaluate();
    for (int round = 0; round < 5; ++round)
        fl.run_round({0, 1, 2, 3, 4}, static_cast<uint64_t>(round));
    EXPECT_GT(fl.evaluate(), before + 0.1);
}

TEST(FlSystem, ParallelAndSerialTrainingAgree)
{
    FlSystemConfig cfg = small_system();
    cfg.threads = 1;
    FlSystem serial(cfg);
    cfg.threads = 8;
    FlSystem parallel(cfg);

    const PsRoundStats s1 = serial.run_round({0, 3, 7, 9}, 0);
    const PsRoundStats s2 = parallel.run_round({0, 3, 7, 9}, 0);
    EXPECT_EQ(s1.applied, 4);
    EXPECT_EQ(s2.applied, s1.applied);
    const auto &w1 = serial.server().global_weights();
    const auto &w2 = parallel.server().global_weights();
    ASSERT_EQ(w1.size(), w2.size());
    for (size_t j = 0; j < w1.size(); ++j)
        ASSERT_EQ(w1[j], w2[j]) << "index " << j;
}

class AlgorithmRoundTest : public ::testing::TestWithParam<Algorithm>
{
};

TEST_P(AlgorithmRoundTest, EveryAlgorithmTrainsEndToEnd)
{
    FlSystem fl(small_system(GetParam()));
    const double before = fl.evaluate();
    for (int round = 0; round < 6; ++round)
        fl.run_round({0, 2, 4, 6, 8}, static_cast<uint64_t>(round));
    EXPECT_GT(fl.evaluate(), before)
        << algorithm_name(GetParam()) << " failed to learn";
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmRoundTest,
                         ::testing::Values(Algorithm::FedAvg,
                                           Algorithm::FedProx,
                                           Algorithm::FedNova,
                                           Algorithm::Fedl),
                         [](const auto &info) {
                             return algorithm_name(info.param);
                         });

TEST(FlTypes, Table5Settings)
{
    const FlGlobalParams s1 = global_params_for(ParamSetting::S1);
    EXPECT_EQ(s1.batch_size, 32);
    EXPECT_EQ(s1.epochs, 10);
    EXPECT_EQ(s1.k, 20);
    const FlGlobalParams s4 = global_params_for(ParamSetting::S4);
    EXPECT_EQ(s4.batch_size, 16);
    EXPECT_EQ(s4.epochs, 5);
    EXPECT_EQ(s4.k, 10);
    EXPECT_EQ(param_setting_name(ParamSetting::S2), "S2");
    EXPECT_EQ(all_param_settings().size(), 4u);
}

} // namespace
} // namespace autofl
