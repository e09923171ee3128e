/**
 * @file
 * Parameter-server runtime tests: ShardedStore shard math and
 * versioning, PsExecutor scheduling, and the aggregation-equivalence
 * guarantees — Sync and SemiAsync with staleness bound 0 reproduce the
 * reference barrier round bit-for-bit for every algorithm, and every
 * mode's results depend on the seed alone, never on thread count,
 * pipeline depth or transport.
 */
#include <atomic>
#include <cmath>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "fl/system.h"
#include "ps/executor.h"
#include "ps/ps_server.h"
#include "ps/sharded_store.h"
#include "reference_barrier.h"

namespace autofl {
namespace {

// ------------------------------------------------------- ShardedStore --

TEST(ShardedStore, PartitionCoversEveryIndexExactlyOnce)
{
    ShardedStore store(std::vector<float>(103, 0.0f), 8);
    ASSERT_EQ(store.num_shards(), 8);
    ASSERT_EQ(store.dim(), 103u);

    size_t covered = 0;
    for (int s = 0; s < store.num_shards(); ++s) {
        EXPECT_EQ(store.shard_begin(s), covered) << "gap before shard " << s;
        EXPECT_GT(store.shard_end(s), store.shard_begin(s));
        covered = store.shard_end(s);
    }
    EXPECT_EQ(covered, store.dim());
}

TEST(ShardedStore, ShardSizesDifferByAtMostOne)
{
    ShardedStore store(std::vector<float>(103, 0.0f), 8);
    size_t min_size = store.dim(), max_size = 0;
    for (int s = 0; s < store.num_shards(); ++s) {
        const size_t size = store.shard_end(s) - store.shard_begin(s);
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
    }
    EXPECT_LE(max_size - min_size, 1u);
}

TEST(ShardedStore, ShardOfInvertsTheRanges)
{
    ShardedStore store(std::vector<float>(101, 0.0f), 7);
    for (size_t i = 0; i < store.dim(); ++i) {
        const int s = store.shard_of(i);
        EXPECT_GE(i, store.shard_begin(s));
        EXPECT_LT(i, store.shard_end(s));
    }
}

TEST(ShardedStore, ClampsShardCountToDimension)
{
    ShardedStore tiny(std::vector<float>(3, 0.0f), 16);
    EXPECT_EQ(tiny.num_shards(), 3);
    ShardedStore one(std::vector<float>(5, 0.0f), 0);
    EXPECT_EQ(one.num_shards(), 1);
}

TEST(ShardedStore, ReadReturnsWrittenData)
{
    std::vector<float> init(37);
    for (size_t i = 0; i < init.size(); ++i)
        init[i] = static_cast<float>(i) * 0.25f;
    ShardedStore store(init, 4);
    EXPECT_EQ(store.read(), init);

    std::vector<float> next(init.size(), -1.5f);
    store.write(next);
    EXPECT_EQ(store.read(), next);
}

TEST(ShardedStore, VersionsCountWritesPerShard)
{
    ShardedStore store(std::vector<float>(32, 0.0f), 4);
    for (uint64_t v : store.versions())
        EXPECT_EQ(v, 0u);

    store.write(std::vector<float>(32, 1.0f));
    for (uint64_t v : store.versions())
        EXPECT_EQ(v, 1u);

    store.apply_delta(std::vector<float>(32, 0.5f), 2.0);
    for (int s = 0; s < store.num_shards(); ++s)
        EXPECT_EQ(store.shard_version(s), 2u);
    for (float w : store.read())
        EXPECT_FLOAT_EQ(w, 2.0f);
}

// --------------------------------------------------------- PsExecutor --

TEST(PsExecutor, RunsEveryJobOnce)
{
    PsExecutor exec(4);
    EXPECT_EQ(exec.threads(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        exec.submit([&count](int) { ++count; });
    exec.wait_idle();
    EXPECT_EQ(count.load(), 100);
    EXPECT_EQ(exec.completed(), 100u);
}

TEST(PsExecutor, WorkerIndicesStayInRange)
{
    PsExecutor exec(3);
    std::atomic<int> bad{0};
    for (int i = 0; i < 60; ++i)
        exec.submit([&bad](int worker) {
            if (worker < 0 || worker >= 3)
                ++bad;
        });
    exec.wait_idle();
    EXPECT_EQ(bad.load(), 0);
}

TEST(PsExecutor, WaitIdleOnEmptyPoolReturns)
{
    PsExecutor exec(2);
    exec.wait_idle();  // Must not hang.
    EXPECT_EQ(exec.completed(), 0u);
}

// ------------------------------------------------- runtime equivalence --

FlSystemConfig
ps_system(SyncMode mode, int staleness_bound, int threads,
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
    return cfg;
}

const std::vector<int> kRoundIds = {0, 3, 5, 7, 9, 11};

/** Bit-exact weight comparison with a per-index failure message. */
void
expect_same_bits(const std::vector<float> &a, const std::vector<float> &b,
                 uint64_t round)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "round " << round << " index " << i;
}

TEST(PsRuntime, SemiAsyncZeroBoundMatchesSyncBitForBit)
{
    testing::ReferenceBarrier ref(ps_system(SyncMode::Sync, 0, 4));
    FlSystem semi(ps_system(SyncMode::SemiAsync, 0, 4));

    for (uint64_t round = 0; round < 3; ++round) {
        ref.run_round(kRoundIds, round);
        const PsRoundStats semi_stats = semi.run_round(kRoundIds, round);
        EXPECT_EQ(semi_stats.applied, static_cast<int>(kRoundIds.size()));
        EXPECT_EQ(semi_stats.evicted, 0);
        EXPECT_EQ(semi_stats.commits, 1);
        EXPECT_EQ(semi_stats.max_staleness, 0);
        expect_same_bits(ref.weights(), semi.server().global_weights(),
                         round);
    }
}

TEST(PsRuntime, SemiAsyncZeroBoundMatchesSyncFedNova)
{
    testing::ReferenceBarrier ref(
        ps_system(SyncMode::Sync, 0, 4, Algorithm::FedNova));
    FlSystem semi(ps_system(SyncMode::SemiAsync, 0, 4, Algorithm::FedNova));

    for (uint64_t round = 0; round < 2; ++round) {
        ref.run_round(kRoundIds, round);
        semi.run_round(kRoundIds, round);
        expect_same_bits(ref.weights(), semi.server().global_weights(),
                         round);
    }
}

TEST(PsRuntime, WeightsIndependentOfThreadCount)
{
    // Serial vs parallel, for both Sync and the ps runtime at S=0,
    // against the serial reference barrier: the client seed derives
    // from (seed, device, round), never from the worker thread.
    testing::ReferenceBarrier ref(ps_system(SyncMode::Sync, 0, 1));
    FlSystem sync1(ps_system(SyncMode::Sync, 0, 1));
    FlSystem sync8(ps_system(SyncMode::Sync, 0, 8));
    FlSystem semi1(ps_system(SyncMode::SemiAsync, 0, 1));
    FlSystem semi4(ps_system(SyncMode::SemiAsync, 0, 4));

    for (uint64_t round = 0; round < 2; ++round) {
        ref.run_round(kRoundIds, round);
        sync1.run_round(kRoundIds, round);
        sync8.run_round(kRoundIds, round);
        semi1.run_round(kRoundIds, round);
        semi4.run_round(kRoundIds, round);
    }
    const auto &a = ref.weights();
    EXPECT_EQ(a, sync1.server().global_weights());
    EXPECT_EQ(a, sync8.server().global_weights());
    EXPECT_EQ(a, semi1.server().global_weights());
    EXPECT_EQ(a, semi4.server().global_weights());
}

/** (algorithm, executor threads) for the Sync-is-S=0 matrix. */
using SyncCase = std::tuple<Algorithm, int>;

class SyncMatchesReferenceTest : public ::testing::TestWithParam<SyncCase>
{
};

TEST_P(SyncMatchesReferenceTest, DefaultStalenessBoundIsBitExact)
{
    // Sync ignores staleness_bound: left at its default of 1 it must
    // still commit each round once, after every pull — the barrier.
    const auto [alg, threads] = GetParam();
    FlSystemConfig cfg = ps_system(SyncMode::Sync, 0, threads, alg);
    cfg.ps.staleness_bound = PsConfig{}.staleness_bound;
    ASSERT_EQ(cfg.ps.staleness_bound, 1);
    testing::ReferenceBarrier ref(cfg);
    FlSystem sync(cfg);
    ASSERT_NE(sync.ps(), nullptr);
    ASSERT_FALSE(sync.pipelined());

    for (uint64_t round = 0; round < 3; ++round) {
        ref.run_round(kRoundIds, round);
        const PsRoundStats st = sync.run_round(kRoundIds, round);
        EXPECT_EQ(st.applied, static_cast<int>(kRoundIds.size()));
        EXPECT_EQ(st.evicted, 0);
        EXPECT_EQ(st.commits, 1);
        EXPECT_EQ(st.max_staleness, 0);
        expect_same_bits(ref.weights(), sync.server().global_weights(),
                         round);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndThreads, SyncMatchesReferenceTest,
    ::testing::Combine(::testing::Values(Algorithm::FedAvg,
                                         Algorithm::FedProx,
                                         Algorithm::FedNova,
                                         Algorithm::Fedl),
                       ::testing::Values(1, 4)),
    [](const auto &info) {
        return algorithm_name(std::get<0>(info.param)) + "_threads" +
            std::to_string(std::get<1>(info.param));
    });

/** A staleness discipline whose rounds span several commits. */
struct ModeCase
{
    const char *name;
    SyncMode mode;
    int staleness_bound;
};

/** Where and how the rounds run. */
struct RuntimeCase
{
    const char *name;
    int threads;
    int depth;             ///< > 1 streams through submit_round.
    int loopback_workers;  ///< > 0 routes rounds over the net layer.
};

const RuntimeCase kReferenceRuntime = {"Depth1Threads1", 1, 1, 0};

void
PrintTo(const ModeCase &m, std::ostream *os)
{
    *os << m.name;
}

void
PrintTo(const RuntimeCase &rt, std::ostream *os)
{
    *os << rt.name;
}

/** Train kRoundIds for four rounds and return the final weights. */
std::vector<float>
train_four_rounds(const ModeCase &m, const RuntimeCase &rt)
{
    FlSystemConfig cfg = ps_system(m.mode, m.staleness_bound, rt.threads);
    cfg.ps.pipeline_depth = rt.depth;
    if (rt.loopback_workers > 0) {
        cfg.ps.net.listen = "loopback";
        cfg.ps.net.workers = rt.loopback_workers;
    }
    FlSystem fl(cfg);
    for (uint64_t round = 0; round < 4; ++round) {
        if (rt.depth > 1)
            fl.submit_round(kRoundIds, round, nullptr);
        else
            fl.run_round(kRoundIds, round);
    }
    fl.drain();
    return fl.server().global_weights();
}

class CommitDeterminismTest
    : public ::testing::TestWithParam<std::tuple<ModeCase, RuntimeCase>>
{
};

TEST_P(CommitDeterminismTest, WeightsAreAFunctionOfTheSeedAlone)
{
    // The structural commit rule makes a multi-commit round's result
    // independent of thread count, pipeline depth and transport: every
    // runtime must reproduce the single-threaded drained run bit for
    // bit.
    const auto [m, rt] = GetParam();
    const std::vector<float> ref = train_four_rounds(m, kReferenceRuntime);
    const std::vector<float> got = train_four_rounds(m, rt);
    expect_same_bits(ref, got, 3);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndRuntimes, CommitDeterminismTest,
    ::testing::Combine(
        ::testing::Values(ModeCase{"SemiAsyncS1", SyncMode::SemiAsync, 1},
                          ModeCase{"SemiAsyncS2", SyncMode::SemiAsync, 2},
                          ModeCase{"Async", SyncMode::Async, 0}),
        ::testing::Values(kReferenceRuntime,
                          RuntimeCase{"Depth1Threads4", 4, 1, 0},
                          RuntimeCase{"Depth3Streamed", 4, 3, 0},
                          RuntimeCase{"Loopback2", 4, 1, 2},
                          RuntimeCase{"Loopback3", 4, 1, 3},
                          RuntimeCase{"Depth3Loopback2", 4, 3, 2},
                          RuntimeCase{"Depth3Loopback3", 4, 3, 3})),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) + "_" +
            std::get<1>(info.param).name;
    });

TEST(PsRuntime, SemiAsyncAccountsForEveryPush)
{
    FlSystem fl(ps_system(SyncMode::SemiAsync, 1, 4));
    for (uint64_t round = 0; round < 3; ++round) {
        const PsRoundStats st = fl.run_round(kRoundIds, round);
        EXPECT_EQ(st.pushed, static_cast<int>(kRoundIds.size()));
        EXPECT_EQ(st.applied + st.evicted, st.pushed);
        EXPECT_GE(st.commits, 1);
        EXPECT_LE(st.max_staleness, 1);
    }
    for (float w : fl.server().global_weights())
        ASSERT_TRUE(std::isfinite(w));
}

TEST(PsRuntime, AsyncModeCommitsPerUpdateAndStaysFinite)
{
    FlSystem fl(ps_system(SyncMode::Async, 0, 4));
    ASSERT_NE(fl.ps(), nullptr);
    const PsRoundStats st = fl.run_round(kRoundIds, 0);
    EXPECT_EQ(st.pushed, static_cast<int>(kRoundIds.size()));
    EXPECT_EQ(st.evicted, 0);  // Async never evicts.
    EXPECT_EQ(st.commits, st.pushed);
    EXPECT_EQ(st.applied, st.pushed);
    EXPECT_EQ(fl.ps()->aggregator().clock(),
              static_cast<uint64_t>(st.commits));
    for (float w : fl.server().global_weights())
        ASSERT_TRUE(std::isfinite(w));
}

TEST(PsRuntime, FedlOutsideSyncIsRejected)
{
    // FEDL's gradient exchange is a round barrier: under SemiAsync or
    // Async it would run something other than what the mode names.
    for (SyncMode mode : {SyncMode::SemiAsync, SyncMode::Async}) {
        try {
            FlSystem fl(ps_system(mode, 0, 2, Algorithm::Fedl));
            FAIL() << "expected rejection: FEDL under "
                   << sync_mode_name(mode);
        } catch (const std::invalid_argument &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("FEDL"), std::string::npos) << msg;
            EXPECT_NE(msg.find("Sync"), std::string::npos) << msg;
        }
    }
    EXPECT_NO_THROW(
        ps_system(SyncMode::Sync, 0, 2, Algorithm::Fedl).validate());
}

TEST(PsRuntime, StoreVersionsAdvanceWithCommits)
{
    FlSystem fl(ps_system(SyncMode::SemiAsync, 0, 2));
    ASSERT_NE(fl.ps(), nullptr);
    fl.run_round(kRoundIds, 0);
    // One commit per round at S=0: every shard took exactly one write.
    for (int s = 0; s < fl.ps()->store().num_shards(); ++s)
        EXPECT_EQ(fl.ps()->store().shard_version(s), 1u);
}

} // namespace
} // namespace autofl
