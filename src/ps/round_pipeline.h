/**
 * @file
 * RoundPipeline: the one round scheduler of every runtime — out-of-order
 * execution, in-order commit.
 *
 * Every round, drained or streamed, runs through it. Rounds are
 * registered with the aggregator at submission, which fixes their
 * layout and pull epoch; once that epoch publishes, the launch step
 * starts the jobs on an executor or on the cluster's workers. Drained
 * (PsServer at pipeline_depth 1, or Sync) each submit waits for its
 * round before the next is submitted. Streamed (non-Sync,
 * pipeline_depth > 1) submission runs ahead, so round r+1's jobs start
 * as soon as round r's first commit publishes a store snapshot and
 * workers fill a straggler's shadow with the next round's training.
 *
 * Determinism contract. Every scheduling decision is *structural* — a
 * function of the round layout, never of thread timing:
 *
 * - Every job of round r pulls the same published snapshot, at the
 *   epoch the aggregator's plan names (RoundPlan::pull_epoch: round
 *   r-1's first commit). Pulls wait for that exact epoch.
 * - Batches are sequence-contiguous and commits retire in (round,
 *   batch) order (see AsyncAggregator), so the store content at every
 *   epoch is a pure function of the seed.
 * - Results are delivered through a reorder buffer in round order.
 *
 * Hence draining or streaming, at any depth, thread count or transport,
 * gives the same weights for the same seed, and SemiAsync(S=0) is bit
 * for bit the synchronous barrier. A corollary of the first-commit
 * pull: when round r launches, every round before r-1 has fully
 * committed, so training overlap structurally spans two rounds.
 * pipeline_depth is a throughput knob only: beyond turning streaming
 * on, it bounds how far results may lag behind submissions.
 *
 * Persistence and evaluation ride the same snapshots: a retired round's
 * final snapshot goes to the checkpoint hook and a concurrent eval
 * pool, without ever blocking training.
 */
#ifndef AUTOFL_PS_ROUND_PIPELINE_H
#define AUTOFL_PS_ROUND_PIPELINE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "ps/async_aggregator.h"
#include "ps/executor.h"
#include "ps/ps_config.h"
#include "ps/sharded_store.h"

namespace autofl {

struct Dataset;

/** One client job: a device and its local shard. */
struct PsRoundJob
{
    int device_id = -1;
    const Dataset *shard = nullptr;
};

/** Streaming round scheduler over a launch step + aggregator + store. */
class RoundPipeline
{
  public:
    /**
     * The launch step: start the jobs of @p round against its pinned
     * pull snapshot @p base, without waiting for them; job i must end in
     * one aggregator push or drop of (round, i). Called in round order,
     * one round at a time, with no pipeline lock held.
     */
    using LaunchFn = std::function<void(uint64_t round,
                                        const std::vector<PsRoundJob> &jobs,
                                        const StoreSnapshot &base)>;

    /**
     * Scores an epoch-tagged snapshot (test accuracy). The serving
     * plane wraps the snapshot in a SnapshotHandle, so concurrent eval
     * workers ride the same versioned consumption path as online
     * inference (see serve/ModelService).
     */
    using EvalFn = std::function<double(const StoreSnapshot &snap)>;

    /**
     * Receives a retired round's final snapshot — the persistence
     * hook. Invoked in retirement (= round) order with the pipeline
     * lock released, sharing the pipeline's own history snapshot
     * zero-copy; the receiver (store::CheckpointWriter) must only
     * enqueue, never block on IO.
     */
    using CheckpointFn = std::function<void(
        uint64_t round, uint64_t final_epoch,
        std::shared_ptr<const std::vector<float>> weights)>;

    /**
     * @param eval_exec Concurrent eval pool; null disables evaluation.
     * @param agg Aggregator; the pipeline installs its hooks.
     * @param store The store whose initial snapshot round 0 pulls.
     * @param launch Where jobs run.
     */
    RoundPipeline(PsExecutor *eval_exec, AsyncAggregator &agg,
                  const ShardedStore &store, LaunchFn launch);

    /** Drains all in-flight rounds. */
    ~RoundPipeline();

    RoundPipeline(const RoundPipeline &) = delete;
    RoundPipeline &operator=(const RoundPipeline &) = delete;

    /** Install the snapshot scorer (called before the first submit). */
    void set_eval_fn(EvalFn fn);

    /** Install the persistence hook (called before the first submit). */
    void set_checkpoint_hook(CheckpointFn fn);

    /**
     * Enqueue one round. Returns immediately; jobs launch once the
     * round's pull epoch publishes, and @p cb fires (from a pipeline
     * thread) once the round has retired and — when @p evaluate — its
     * snapshot is scored (callers that discard the accuracy pass false
     * and skip the test-set inference). Not thread-safe against
     * itself: one driver thread submits, in increasing round order.
     */
    void submit(std::vector<PsRoundJob> jobs, uint64_t round,
                PsRoundCallback cb, bool evaluate = true);

    /** Block until every submitted round's callback has returned. */
    void drain();

  private:
    struct Entry
    {
        uint64_t round = 0;
        std::vector<PsRoundJob> jobs;
        PsRoundCallback cb;
        RoundPlan plan;
        bool want_eval = true;
        bool launched = false;
        bool retired = false;
        bool done = false;
        PsRoundStats stats;
        double accuracy = -1.0;
        uint64_t final_epoch = 0;
    };

    PsExecutor *eval_exec_;
    AsyncAggregator &agg_;
    const LaunchFn launch_;
    EvalFn eval_fn_;
    CheckpointFn checkpoint_fn_;

    mutable std::mutex pmu_;
    std::condition_variable drain_cv_;
    std::deque<std::shared_ptr<Entry>> order_;  ///< Undelivered, in order.
    std::map<uint64_t, std::shared_ptr<const std::vector<float>>> history_;
    RoundPlan last_plan_;   ///< Most recently submitted round's plan.
    bool delivering_ = false;
    bool launching_ = false;

    void on_snapshot(const StoreSnapshot &snap);
    void on_retired(uint64_t round, const PsRoundStats &stats,
                    uint64_t final_epoch);
    void launch_ready(std::unique_lock<std::mutex> &lk);
    void finalize(uint64_t round, double accuracy);
    void deliver_ready(std::unique_lock<std::mutex> &lk);
    void prune_history_locked();
};

} // namespace autofl

#endif // AUTOFL_PS_ROUND_PIPELINE_H
