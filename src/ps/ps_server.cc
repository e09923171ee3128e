#include "ps_server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "store/checkpoint_writer.h"
#include "util/rng.h"

namespace autofl {

std::string
sync_mode_name(SyncMode m)
{
    switch (m) {
      case SyncMode::Sync:
        return "Sync";
      case SyncMode::SemiAsync:
        return "SemiAsync";
      case SyncMode::Async:
        return "Async";
    }
    return "unknown";
}

void
PsConfig::validate(const char *who) const
{
    const std::string w(who);
    if (pipeline_depth < 1) {
        throw std::invalid_argument(
            w + ".pipeline_depth must be >= 1 (got " +
            std::to_string(pipeline_depth) +
            "): 1 drains every round at its barrier; values above 1 "
            "stream that many rounds in flight");
    }
    if (staleness_bound < 0) {
        throw std::invalid_argument(
            w + ".staleness_bound must be >= 0 (got " +
            std::to_string(staleness_bound) +
            "): 0 reproduces synchronous FedAvg exactly; larger bounds "
            "admit staler updates");
    }
    if (eval_workers < 1) {
        throw std::invalid_argument(
            w + ".eval_workers must be >= 1 (got " +
            std::to_string(eval_workers) +
            "): the pipelined runtime needs at least one concurrent "
            "snapshot-eval worker");
    }
    if (shards < 1) {
        throw std::invalid_argument(
            w + ".shards must be >= 1 (got " + std::to_string(shards) +
            "): the model store needs at least one lock stripe");
    }
    if (executor_threads < 0) {
        throw std::invalid_argument(
            w + ".executor_threads must be >= 0 (got " +
            std::to_string(executor_threads) +
            "): 0 inherits the system thread count");
    }
    if (snapshot_every_epochs < 1) {
        throw std::invalid_argument(
            w + ".snapshot_every_epochs must be >= 1 (got " +
            std::to_string(snapshot_every_epochs) +
            "): 1 checkpoints after every round; larger values thin "
            "the artifact cadence");
    }
    if (snapshot_keep_last < 0) {
        throw std::invalid_argument(
            w + ".snapshot_keep_last must be >= 0 (got " +
            std::to_string(snapshot_keep_last) +
            "): 0 keeps every artifact; K keeps the newest K plus "
            "pinned rounds");
    }
    if (snapshot_keep_last != 0 && snapshot_dir.empty()) {
        throw std::invalid_argument(
            w + ".snapshot_keep_last is set but " + w +
            ".snapshot_dir is empty: retention without a directory "
            "prunes nothing; set snapshot_dir to enable persistence");
    }
    if (snapshot_every_epochs != 1 && snapshot_dir.empty()) {
        throw std::invalid_argument(
            w + ".snapshot_every_epochs is set but " + w +
            ".snapshot_dir is empty: a cadence without a directory "
            "silently checkpoints nothing; set snapshot_dir to enable "
            "persistence (or leave the cadence at its default)");
    }
    net.validate((w + ".net").c_str());
    compression.validate((w + ".compression").c_str());
    if (!resume_from.empty() && compression.enabled()) {
        throw std::invalid_argument(
            w + ".resume_from cannot be combined with push compression: "
            "artifacts persist the global weights but not the "
            "per-client error-feedback residuals, so a resumed "
            "compressed run would silently diverge; resume "
            "uncompressed or restart the compressed run from scratch");
    }
    if (compression.enabled() && pipeline_depth != 1) {
        throw std::invalid_argument(
            w + ".compression requires pipeline_depth == 1 (got " +
            std::to_string(pipeline_depth) +
            "): the error-feedback residual sequence is "
            "deterministic only when a device trains at most once "
            "concurrently");
    }
}

PsServer::PsServer(Server &server, Workload workload,
                   const FlGlobalParams &params, const TrainHyper &hyper,
                   Algorithm alg, uint64_t seed, const PsConfig &cfg,
                   int default_threads, store::CheckpointWriter *ckpt,
                   RoundPipeline::LaunchFn launch)
    : server_(server), params_(params), hyper_(hyper), alg_(alg),
      seed_(seed), cfg_(cfg),
      store_(server.global_weights(), cfg.shards),
      // A launch step sends every job elsewhere: no training pool.
      exec_(launch ? nullptr
                   : std::make_unique<PsExecutor>(
                         cfg.executor_threads > 0 ? cfg.executor_threads
                                                  : default_threads)),
      agg_(store_, alg, cfg),
      streaming_(cfg.mode != SyncMode::Sync && cfg.pipeline_depth > 1),
      ckpt_(ckpt), eval_exec_(std::max(1, cfg.eval_workers)),
      pipeline_(&eval_exec_, agg_, store_,
                launch ? std::move(launch)
                       : [this](uint64_t round,
                                const std::vector<PsRoundJob> &jobs,
                                const StoreSnapshot &base) {
                             launch_local(round, jobs, base);
                         })
{
    if (exec_) {
        trainers_.reserve(static_cast<size_t>(exec_->threads()));
        for (int t = 0; t < exec_->threads(); ++t)
            trainers_.push_back(std::make_unique<LocalTrainer>(workload));
    }

    if (ckpt_) {
        // The one persistence point: retirement. The hook shares the
        // pipeline's own history snapshot zero-copy and the writer only
        // enqueues — a slow disk thins artifacts, it never slows a
        // commit wave.
        pipeline_.set_checkpoint_hook(
            [this](uint64_t round, uint64_t epoch,
                   std::shared_ptr<const std::vector<float>> w) {
                if (cfg_.snapshot_due(round))
                    ckpt_->request(round, epoch, std::move(w));
            });
    }
}

PsServer::~PsServer() = default;

LocalUpdate
PsServer::train_job(int worker, const PsRoundJob &job, uint64_t seq,
                    const std::vector<float> &weights, uint64_t round)
{
    if (cfg_.sim_device_latency_s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            cfg_.sim_latency_for(job.device_id)));
    }
    Rng rng = client_rng(seed_, job.device_id, round);
    const std::vector<float> correction = fedl_grads_.empty()
        ? std::vector<float>{}
        : server_.fedl_correction(fedl_grads_[seq]);
    LocalUpdate u = trainers_[static_cast<size_t>(worker)]->train(
        weights, *job.shard, params_, hyper_, alg_, correction, rng);
    u.device_id = job.device_id;
    // The in-process push "wire": encode the delta against the pulled
    // weights and hand the aggregator the decoded reconstruction —
    // exactly what a cluster server commits. None is a pure byte count,
    // zero float ops (bit parity).
    push_payload_bytes_.fetch_add(
        error_feedback_.compress_update(cfg_.compression, job.device_id,
                                        weights.data(), u.weights),
        std::memory_order_relaxed);
    return u;
}

void
PsServer::launch_local(uint64_t round, const std::vector<PsRoundJob> &jobs,
                       const StoreSnapshot &base)
{
    for (uint64_t seq = 0; seq < jobs.size(); ++seq) {
        const PsRoundJob job = jobs[seq];
        exec_->submit([this, job, seq, round, w = base.weights](int worker) {
            agg_.push(round,
                      PsPush{train_job(worker, job, seq, *w, round), seq});
        });
    }
}

void
PsServer::set_eval_fn(RoundPipeline::EvalFn fn)
{
    pipeline_.set_eval_fn(std::move(fn));
}

PsRoundResult
PsServer::run_drained(const std::vector<PsRoundJob> &jobs, uint64_t round,
                      bool evaluate)
{
    // FEDL phase 1: every participant reports its full local gradient
    // at the round's global weights (the runtime is drained, so the
    // Server holds them); the Server averages them into the estimate
    // each training job's correction term uses.
    if (server_.wants_full_gradients()) {
        // In-process only (FlSystemConfig::validate refuses FEDL over
        // the net), so the training pool exists.
        assert(exec_);
        fedl_grads_.assign(jobs.size(), {});
        for (size_t i = 0; i < jobs.size(); ++i) {
            exec_->submit([this, &jobs, i](int worker) {
                fedl_grads_[i] =
                    trainers_[static_cast<size_t>(worker)]->full_gradient(
                        server_.global_weights(), *jobs[i].shard);
            });
        }
        exec_->wait_idle();
        server_.update_global_gradient(fedl_grads_);
    }

    // drain() returns only after the callback has run, so the result
    // can live on this frame.
    PsRoundResult res;
    pipeline_.submit(jobs, round,
                     [&res](const PsRoundResult &r) { res = r; }, evaluate);
    drain();
    fedl_grads_.clear();
    return res;
}

PsRoundStats
PsServer::run_round(const std::vector<PsRoundJob> &jobs, uint64_t round)
{
    return run_drained(jobs, round, /*evaluate=*/false).stats;
}

void
PsServer::submit_round(const std::vector<PsRoundJob> &jobs, uint64_t round,
                       PsRoundCallback cb)
{
    if (streaming_) {
        pipeline_.submit(jobs, round, std::move(cb));
        return;
    }
    const PsRoundResult res = run_drained(jobs, round, /*evaluate=*/true);
    if (cb)
        cb(res);
}

uint64_t
PsServer::push_payload_bytes() const
{
    return push_payload_bytes_.load(std::memory_order_relaxed);
}

void
PsServer::drain()
{
    pipeline_.drain();
    server_.set_global_weights(store_.read());
}

} // namespace autofl
