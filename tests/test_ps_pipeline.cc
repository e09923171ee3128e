/**
 * @file
 * Streaming round-pipeline tests: snapshot/epoch reads and turn-ordered
 * striped commits on the ShardedStore, and the pipeline's two headline
 * guarantees — pipeline_depth=1 SemiAsync(S=0) reproduces the
 * synchronous weights bit-for-bit, and pipelined runs at any depth are
 * deterministic under a fixed seed regardless of thread interleaving.
 */
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fl/server.h"
#include "fl/system.h"
#include "ps/ps_server.h"
#include "ps/sharded_store.h"
#include "reference_barrier.h"

namespace autofl {
namespace {

// ---------------------------------------------------- store snapshots --

TEST(StoreSnapshot, InitialSnapshotIsEpochZeroOfInitWeights)
{
    std::vector<float> init(37);
    for (size_t i = 0; i < init.size(); ++i)
        init[i] = static_cast<float>(i) * 0.5f;
    ShardedStore store(init, 4);
    const StoreSnapshot snap = store.latest_snapshot();
    EXPECT_EQ(snap.epoch, 0u);
    ASSERT_NE(snap.weights, nullptr);
    EXPECT_EQ(*snap.weights, init);
}

TEST(StoreSnapshot, LatestNeverRollsBack)
{
    ShardedStore store(std::vector<float>(8, 0.0f), 2);
    auto w1 = std::make_shared<const std::vector<float>>(8, 1.0f);
    auto w2 = std::make_shared<const std::vector<float>>(8, 2.0f);
    store.set_latest_snapshot(2, w2);
    store.set_latest_snapshot(1, w1);  // Late wave: must be ignored.
    const StoreSnapshot snap = store.latest_snapshot();
    EXPECT_EQ(snap.epoch, 2u);
    EXPECT_FLOAT_EQ(snap.weights->front(), 2.0f);
}

TEST(StoreSnapshot, TurnOrderedUpdatesApplyInClockOrder)
{
    // Two "commits" race from two threads in reverse claim order; the
    // turn gate must serialize each shard to 0 then 1, so increments
    // compose as ((w + 1) * 2), never ((w * 2) + 1).
    ShardedStore store(std::vector<float>(64, 1.0f), 8);
    std::thread second([&] {
        for (int s = 0; s < store.num_shards(); ++s) {
            store.update_shard_in_turn(
                s, 1,
                [](float *w, size_t b, size_t e) {
                    for (size_t i = b; i < e; ++i)
                        w[i] *= 2.0f;
                },
                nullptr);
        }
    });
    std::thread first([&] {
        for (int s = 0; s < store.num_shards(); ++s) {
            store.update_shard_in_turn(
                s, 0,
                [](float *w, size_t b, size_t e) {
                    for (size_t i = b; i < e; ++i)
                        w[i] += 1.0f;
                },
                nullptr);
        }
    });
    first.join();
    second.join();
    for (float w : store.read())
        EXPECT_FLOAT_EQ(w, 4.0f);
    for (int s = 0; s < store.num_shards(); ++s)
        EXPECT_EQ(store.shard_version(s), 2u);
}

// -------------------------------------------------- pipelined runtime --

FlSystemConfig
pipeline_system(SyncMode mode, int staleness_bound, int threads, int depth,
                Algorithm alg = Algorithm::FedAvg)
{
    FlSystemConfig cfg;
    cfg.workload = Workload::CnnMnist;
    cfg.params = {16, 1, 6};
    cfg.algorithm = alg;
    cfg.hyper.lr = 0.05;
    cfg.data.train_samples = 240;
    cfg.data.test_samples = 80;
    cfg.data.noise = 0.6;
    cfg.partition.num_devices = 12;
    cfg.seed = 23;
    cfg.threads = threads;
    cfg.ps.mode = mode;
    cfg.ps.staleness_bound = staleness_bound;
    cfg.ps.shards = 5;
    cfg.ps.pipeline_depth = depth;
    return cfg;
}

const std::vector<int> kRoundIds = {0, 3, 5, 7, 9, 11};

/** Stream @p rounds rounds through the system, collecting results. */
std::vector<PsRoundResult>
stream_rounds(FlSystem &fl, int rounds)
{
    std::mutex mu;
    std::vector<PsRoundResult> results;
    for (int r = 0; r < rounds; ++r) {
        fl.submit_round(kRoundIds, static_cast<uint64_t>(r),
                        [&](const PsRoundResult &res) {
                            std::lock_guard<std::mutex> lk(mu);
                            results.push_back(res);
                        });
    }
    fl.drain();
    return results;
}

TEST(RoundPipeline, Depth1SemiAsyncZeroBoundMatchesSyncBitForBit)
{
    // The invariant that makes the refactor safe to land: the drained
    // pipeline at S=0 is the reference barrier round, bit for bit.
    testing::ReferenceBarrier ref(pipeline_system(SyncMode::Sync, 0, 4, 1));
    FlSystem semi(pipeline_system(SyncMode::SemiAsync, 0, 4, 1));

    for (uint64_t round = 0; round < 3; ++round) {
        ref.run_round(kRoundIds, round);
        semi.run_round(kRoundIds, round);
        const auto &a = ref.weights();
        const auto &b = semi.server().global_weights();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << "round " << round << " index " << i;
    }
}

TEST(RoundPipeline, PipelinedSemiAsyncZeroBoundMatchesSyncBitForBit)
{
    // At S=0 each round is one commit, so the pipelined pull epoch is
    // exactly "all previous commits" — streaming four rounds deep must
    // still reproduce the reference barrier's weights bit for bit.
    constexpr int kRounds = 5;
    testing::ReferenceBarrier ref(pipeline_system(SyncMode::Sync, 0, 4, 1));
    for (uint64_t round = 0; round < kRounds; ++round)
        ref.run_round(kRoundIds, round);

    FlSystem piped(pipeline_system(SyncMode::SemiAsync, 0, 4, 4));
    ASSERT_TRUE(piped.pipelined());
    const auto results = stream_rounds(piped, kRounds);
    ASSERT_EQ(results.size(), static_cast<size_t>(kRounds));

    const auto &a = ref.weights();
    const auto &b = piped.server().global_weights();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "index " << i;
}

TEST(RoundPipeline, PipelinedRunsAreDeterministic)
{
    // Two identical streaming runs at depth 4 with real cross-round
    // overlap (S=1 splits every round into two commits): weights,
    // stats and concurrently-evaluated accuracies must all be
    // identical, whatever the thread interleaving.
    constexpr int kRounds = 6;
    auto run = [&](std::vector<PsRoundResult> &results) {
        FlSystem fl(pipeline_system(SyncMode::SemiAsync, 1, 4, 4));
        results = stream_rounds(fl, kRounds);
        return fl.server().global_weights();
    };
    std::vector<PsRoundResult> res_a, res_b;
    const std::vector<float> w_a = run(res_a);
    const std::vector<float> w_b = run(res_b);

    ASSERT_EQ(w_a.size(), w_b.size());
    for (size_t i = 0; i < w_a.size(); ++i)
        ASSERT_EQ(w_a[i], w_b[i]) << "index " << i;

    ASSERT_EQ(res_a.size(), res_b.size());
    for (size_t r = 0; r < res_a.size(); ++r) {
        EXPECT_EQ(res_a[r].round, res_b[r].round);
        EXPECT_GE(res_a[r].accuracy, 0.0);  // Every round really scored.
        EXPECT_EQ(res_a[r].accuracy, res_b[r].accuracy);
        EXPECT_EQ(res_a[r].final_epoch, res_b[r].final_epoch);
        EXPECT_EQ(res_a[r].stats.applied, res_b[r].stats.applied);
        EXPECT_EQ(res_a[r].stats.commits, res_b[r].stats.commits);
        EXPECT_EQ(res_a[r].stats.mean_staleness,
                  res_b[r].stats.mean_staleness);
    }
}

TEST(RoundPipeline, ResultsArriveInRoundOrderWithFullAccounting)
{
    constexpr int kRounds = 8;
    FlSystem fl(pipeline_system(SyncMode::SemiAsync, 1, 4, 3));
    const auto results = stream_rounds(fl, kRounds);
    ASSERT_EQ(results.size(), static_cast<size_t>(kRounds));

    const size_t k = kRoundIds.size();
    uint64_t prev_epoch = 0;
    for (size_t r = 0; r < results.size(); ++r) {
        const PsRoundResult &res = results[r];
        EXPECT_EQ(res.round, r) << "delivered out of order";
        EXPECT_EQ(res.stats.pushed, static_cast<int>(k));
        EXPECT_EQ(res.stats.applied + res.stats.evicted, res.stats.pushed);
        EXPECT_EQ(res.stats.commits, 2);  // ceil(6 / ceil(6/2)) batches.
        EXPECT_LE(res.stats.max_staleness, 1);
        EXPECT_GE(res.accuracy, 0.0);
        EXPECT_GT(res.final_epoch, prev_epoch);
        prev_epoch = res.final_epoch;
    }
    EXPECT_LE(fl.ps()->aggregator().lifetime_max_applied_staleness(), 1);
    for (float w : fl.server().global_weights())
        ASSERT_TRUE(std::isfinite(w));
}

TEST(RoundPipeline, ConcurrentEvalScoresTheFinalSnapshot)
{
    FlSystem fl(pipeline_system(SyncMode::SemiAsync, 1, 4, 4));
    const auto results = stream_rounds(fl, 4);
    ASSERT_FALSE(results.empty());
    // After drain the wrapped Server holds the final store content, so
    // the last concurrently-evaluated accuracy must equal a synchronous
    // re-evaluation of those weights.
    EXPECT_DOUBLE_EQ(results.back().accuracy, fl.evaluate());
}

TEST(RoundPipeline, PipelinedFedNovaStaysFiniteAndDeterministic)
{
    auto run = [&] {
        FlSystem fl(pipeline_system(SyncMode::SemiAsync, 1, 4, 4,
                                    Algorithm::FedNova));
        stream_rounds(fl, 4);
        return fl.server().global_weights();
    };
    const std::vector<float> a = run();
    const std::vector<float> b = run();
    ASSERT_EQ(a, b);
    for (float w : a)
        ASSERT_TRUE(std::isfinite(w));
}

TEST(RoundPipeline, PipelinedAsyncModeCommitsPerUpdate)
{
    FlSystem fl(pipeline_system(SyncMode::Async, 0, 4, 4));
    const auto results = stream_rounds(fl, 3);
    ASSERT_EQ(results.size(), 3u);
    for (const auto &res : results) {
        EXPECT_EQ(res.stats.commits, static_cast<int>(kRoundIds.size()));
        EXPECT_EQ(res.stats.applied, res.stats.pushed);
        EXPECT_EQ(res.stats.evicted, 0);
    }
    for (float w : fl.server().global_weights())
        ASSERT_TRUE(std::isfinite(w));
}

/**
 * Bounded-staleness invariant under streaming: whatever the depth and
 * interleaving, no applied update's staleness may exceed the bound, and
 * every push is accounted applied or evicted.
 */
class PipelineStalenessBoundTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelineStalenessBoundTest, NoAppliedUpdateExceedsTheBound)
{
    const int bound = GetParam();
    FlSystemConfig cfg = pipeline_system(SyncMode::SemiAsync, bound, 4, 4);
    cfg.seed = 7 + static_cast<uint64_t>(bound);
    FlSystem fl(cfg);
    ASSERT_TRUE(fl.pipelined());

    const auto results = stream_rounds(fl, 4);
    for (const auto &res : results) {
        EXPECT_EQ(res.stats.applied + res.stats.evicted, res.stats.pushed);
        EXPECT_LE(res.stats.max_staleness, bound);
        EXPECT_LE(res.stats.mean_staleness, bound);
    }
    EXPECT_LE(fl.ps()->aggregator().lifetime_max_applied_staleness(),
              bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, PipelineStalenessBoundTest,
                         ::testing::Values(0, 1, 2, 3));

} // namespace
} // namespace autofl
