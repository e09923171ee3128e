/**
 * @file
 * PsServer: the parameter-server runtime facade of every transport. Owns
 * the sharded model store, the executor pool (or a launch step to the
 * cluster's workers), the bounded-staleness aggregator, the
 * RoundPipeline every round runs through and its concurrent
 * snapshot-eval pool. Rounds stream only when the mode is not Sync and
 * PsConfig::pipeline_depth > 1; otherwise each submit blocks until its
 * round is delivered (Sync is that drained runtime at S=0). The wrapped
 * Server keeps model init and the FEDL gradient estimate; its global
 * weights are re-synced from the store whenever the runtime drains.
 */
#ifndef AUTOFL_PS_PS_SERVER_H
#define AUTOFL_PS_PS_SERVER_H

#include <atomic>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "fl/client.h"
#include "fl/server.h"
#include "ps/async_aggregator.h"
#include "ps/executor.h"
#include "ps/ps_config.h"
#include "ps/round_pipeline.h"
#include "ps/sharded_store.h"
#include "store/checkpoint_writer.h"

namespace autofl {

/** Parameter-server runtime wrapping a synchronous Server. */
class PsServer
{
  public:
    /**
     * @param server Aggregation server holding the initialized model;
     *        must outlive this object. Its weights seed the store.
     * @param params,hyper,alg,seed The FL job settings (FEDL only under
     *        Sync, see FlSystemConfig::validate).
     * @param cfg Runtime knobs; cfg.executor_threads of 0 falls back to
     *        @p default_threads.
     * @param ckpt Snapshot persistence writer, or null. Not owned; must
     *        outlive this object, since ~PsServer drains the pipeline
     *        whose retirement hook requests into it.
     * @param launch Where jobs run; null for the executor pool, which
     *        (with its trainers) is then the only one built.
     */
    PsServer(Server &server, Workload workload, const FlGlobalParams &params,
             const TrainHyper &hyper, Algorithm alg, uint64_t seed,
             const PsConfig &cfg, int default_threads,
             store::CheckpointWriter *ckpt,
             RoundPipeline::LaunchFn launch = nullptr);

    ~PsServer();

    /** Whether rounds stream (non-Sync, depth > 1). */
    bool pipelined() const { return streaming_; }

    /**
     * Install the snapshot scorer used by the concurrent eval workers.
     * Must be thread-safe.
     */
    void set_eval_fn(RoundPipeline::EvalFn fn);

    /**
     * Run one round to completion, unevaluated: submit it through the
     * pipeline, wait until it (and every round before it) is
     * delivered, and write the store back into the wrapped Server.
     * FEDL first runs a full-gradient phase over the same jobs on the
     * drained store to refresh the Server's global-gradient estimate.
     */
    PsRoundStats run_round(const std::vector<PsRoundJob> &jobs,
                           uint64_t round);

    /**
     * Submit one round; the callback fires in round order once the
     * round has retired and its final snapshot is scored. Streaming,
     * this returns immediately; otherwise it blocks like run_round and
     * the callback fires before it returns.
     */
    void submit_round(const std::vector<PsRoundJob> &jobs, uint64_t round,
                      PsRoundCallback cb);

    /**
     * Block until every submitted round has been delivered, then sync
     * the wrapped Server's weights from the store.
     */
    void drain();

    const ShardedStore &store() const { return store_; }
    AsyncAggregator &aggregator() { return agg_; }

    /**
     * Push-path wire bytes this runtime would have moved: the sum of
     * each update's encoded payload size under cfg.compression — raw
     * f32 bytes for None.
     */
    uint64_t push_payload_bytes() const;

    /** Per-client error-feedback state (tests/metrics). */
    const ErrorFeedback &error_feedback() const { return error_feedback_; }

  private:
    Server &server_;
    FlGlobalParams params_;
    TrainHyper hyper_;
    Algorithm alg_;
    uint64_t seed_;
    PsConfig cfg_;
    ShardedStore store_;
    /** Training pool and its per-worker trainers; null/empty when a
     *  launch step runs the jobs. */
    std::unique_ptr<PsExecutor> exec_;
    AsyncAggregator agg_;
    std::vector<std::unique_ptr<LocalTrainer>> trainers_;
    ErrorFeedback error_feedback_;   ///< Push-compression residuals.
    std::atomic<uint64_t> push_payload_bytes_{0};
    bool streaming_;

    /** FEDL: the current round's full gradients, indexed by seq. */
    std::vector<std::vector<float>> fedl_grads_;

    store::CheckpointWriter *ckpt_;  ///< Not owned; null when off.

    // Declared after the components they use so the pipeline drains
    // (and the eval pool joins) before any of them is torn down.
    PsExecutor eval_exec_;
    RoundPipeline pipeline_;

    /**
     * The one job body, drained or streaming: pull -> local SGD (with
     * FEDL's correction when the round has gradients) -> push
     * compression.
     */
    LocalUpdate train_job(int worker, const PsRoundJob &job, uint64_t seq,
                          const std::vector<float> &weights,
                          uint64_t round);

    /** The in-process launch step: one executor job per participant. */
    void launch_local(uint64_t round, const std::vector<PsRoundJob> &jobs,
                      const StoreSnapshot &base);

    /** Submit through the pipeline and wait until it is delivered. */
    PsRoundResult run_drained(const std::vector<PsRoundJob> &jobs,
                              uint64_t round, bool evaluate);
};

} // namespace autofl

#endif // AUTOFL_PS_PS_SERVER_H
