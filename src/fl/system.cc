#include "system.h"

#include <cassert>
#include <stdexcept>

#include "fl/fl_cluster.h"
#include "ps/ps_server.h"
#include "serve/model_service.h"
#include "store/model_registry.h"
#include "util/rng.h"

namespace autofl {

void
FlSystemConfig::validate() const
{
    if (threads < 1) {
        throw std::invalid_argument(
            "FlSystemConfig.threads must be >= 1 (got " +
            std::to_string(threads) +
            "): local training needs at least one worker");
    }
    // Registry publication supplies the snapshot directory itself, so
    // cadence/retention knobs must stay valid without a bare
    // snapshot_dir; validate against the directory the run will use.
    PsConfig ps_view = ps;
    if (!serve.registry_dir.empty() && ps_view.snapshot_dir.empty())
        ps_view.snapshot_dir = serve.registry_dir;
    ps_view.validate("FlSystemConfig.ps");
    serve.validate("FlSystemConfig.serve");
    if (!serve.registry_dir.empty() && !ps.snapshot_dir.empty()) {
        throw std::invalid_argument(
            "FlSystemConfig.serve.registry_dir and "
            "FlSystemConfig.ps.snapshot_dir are both set: registry "
            "publication derives the artifact directory from the "
            "registry (registry_dir/<model>), so a bare snapshot_dir "
            "would be silently ignored; set exactly one");
    }
    if (algorithm == Algorithm::Fedl &&
        (ps.mode != SyncMode::Sync || ps.net.enabled())) {
        throw std::invalid_argument(
            "FlSystemConfig.algorithm FEDL requires FlSystemConfig.ps.mode "
            "Sync in process (got " + sync_mode_name(ps.mode) +
            ", ps.net.listen '" + ps.net.listen + "'): its two-phase "
            "global-gradient exchange is a round barrier and its "
            "correction term has no wire section; use FedAvg or FedProx "
            "for the other modes and over the cluster");
    }
}

namespace {

/** Validate-then-copy so bad configs throw before any member builds. */
FlSystemConfig
validated(FlSystemConfig cfg)
{
    cfg.validate();
    return cfg;
}

/** One PsServer job per selected device, in selection order. */
std::vector<PsRoundJob>
round_jobs(const FlSystem &fl, const std::vector<int> &device_ids)
{
    std::vector<PsRoundJob> jobs;
    jobs.reserve(device_ids.size());
    for (int dev : device_ids)
        jobs.push_back(PsRoundJob{dev, &fl.shard(dev)});
    return jobs;
}

} // namespace

FlSystem::FlSystem(const FlSystemConfig &cfg)
    : cfg_(validated(cfg)),
      data_(make_dataset(cfg_.workload, cfg_.data)),
      partition_(partition_dataset(data_.train, cfg_.partition)),
      server_(cfg_.workload, cfg_.algorithm, cfg_.hyper, cfg_.seed),
      profile_(model_profile(cfg_.workload))
{
    shards_.reserve(partition_.shards.size());
    for (const auto &indices : partition_.shards)
        shards_.push_back(data_.train.subset(indices));

    const uint64_t topology = store::model_topology_hash(
        workload_name(cfg_.workload), server_.global_weights().size());

    // Registry publication: register (or re-open) this system's model
    // in the configured registry and redirect checkpointing into the
    // model's registry directory — every artifact the run writes
    // becomes a servable name@version the moment its rename lands.
    // Must precede the writer below, which reads ps.snapshot_dir.
    if (!cfg_.serve.registry_dir.empty()) {
        store::ModelRegistry registry(cfg_.serve.registry_dir);
        const std::string name = cfg_.serve.model_name.empty()
            ? workload_name(cfg_.workload)
            : cfg_.serve.model_name;
        std::string dir;
        const store::RegistryStatus rs = registry.publish_dir(
            name, workload_name(cfg_.workload), &dir);
        if (rs != store::RegistryStatus::Ok) {
            throw std::runtime_error(
                "FlSystem: cannot publish model '" + name +
                "' into registry '" + cfg_.serve.registry_dir +
                "': " + store::registry_status_name(rs) +
                (rs == store::RegistryStatus::BadManifest
                     ? " (the name is already bound to a different "
                       "workload, or its manifest is corrupt)"
                     : ""));
        }
        cfg_.ps.snapshot_dir = dir;
        // Registry-pinned versions join the retention pins so keep-last
        // pruning never deletes a version someone pinned.
        store::RegistryModel m;
        if (registry.lookup(name, &m) == store::RegistryStatus::Ok) {
            for (uint64_t r : m.pinned)
                cfg_.ps.snapshot_pinned.push_back(r);
        }
    }

    if (!cfg_.ps.resume_from.empty()) {
        // Restore BEFORE PsServer is built: its store seeds from the
        // server's weights, so setting them here resumes every
        // transport alike.
        // The topology hash covers workload name + dimension, so a
        // wrong-model artifact fails typed (BadTopology), not by
        // scattering weights.
        store::SnapshotData snap;
        const store::SnapshotStatus st = store::read_snapshot_file(
            cfg_.ps.resume_from, &snap, topology);
        if (st != store::SnapshotStatus::Ok) {
            throw std::runtime_error(
                "FlSystem: cannot resume from '" + cfg_.ps.resume_from +
                "': " + store::snapshot_status_name(st) +
                " (artifacts are written by store::CheckpointWriter; "
                "point resume_from at <snapshot_dir>/latest.snap)");
        }
        assert(snap.weights.size() == server_.global_weights().size());
        server_.set_global_weights(std::move(snap.weights));
        resumed_ = true;
        resume_round_ = snap.meta.round;
    }

    // The one persistence writer; PsServer's retirement hook feeds it.
    if (!cfg_.ps.snapshot_dir.empty()) {
        store::RetentionPolicy retention;
        retention.keep_last = cfg_.ps.snapshot_keep_last;
        retention.pinned = cfg_.ps.snapshot_pinned;
        ckpt_ = std::make_unique<store::CheckpointWriter>(
            cfg_.ps.snapshot_dir, topology,
            static_cast<uint32_t>(cfg_.ps.shards), std::move(retention));
    }

    // Under ps.net the jobs go to the cluster's workers. The fleet
    // assembles lazily at the first round (runtime()), so constructing a
    // system stays cheap.
    RoundPipeline::LaunchFn launch;
    if (cfg_.ps.net.enabled()) {
        cluster_ = std::make_unique<FlCluster>(*this);
        launch = [this](uint64_t round, const std::vector<PsRoundJob> &jobs,
                        const StoreSnapshot &base) {
            cluster_->server().launch(round, jobs, base);
        };
    }
    ps_ = std::make_unique<PsServer>(server_, cfg_.workload, cfg_.params,
                                     cfg_.hyper, cfg_.algorithm, cfg_.seed,
                                     cfg_.ps, cfg_.threads, ckpt_.get(),
                                     std::move(launch));

    // The serving plane. Streaming mode sources snapshots straight from
    // the store (commit waves publish them); the drained runtime
    // publishes at its round barrier, in evaluate().
    // Slot count covers the concurrent eval pool so each of its workers
    // can run an eval batch at once; eval claims a slot per batch and
    // yields to serving claims (InferenceEngine::Claim).
    ServeConfig scfg = cfg_.serve;
    if (ps_->pipelined())
        scfg.workers = std::max(scfg.workers, cfg_.ps.eval_workers);
    serve_ = std::make_unique<ModelService>(cfg_.workload, scfg);
    if (ps_->pipelined())
        serve_->attach_store(&ps_->store());

    // Snapshot scorer for the runtime's eval path. Accuracy is an
    // integer count, deterministic at any fan-out; streaming, the eval
    // pool parallelizes across snapshots (fan-out 1 per call), while a
    // drained round's one call fans out across slots.
    const int fan_out = ps_->pipelined() ? 1 : 0;
    ps_->set_eval_fn([this, fan_out](const StoreSnapshot &snap) {
        return serve_->evaluate(SnapshotHandle(snap), data_.test, fan_out)
            .accuracy;
    });
}

FlSystem::~FlSystem()
{
    // The dynamic batcher's dispatcher threads acquire store snapshots,
    // and the store dies with ps_ (destroyed before serve_, which must
    // outlive the pipeline drain). Stop serving first so no dispatcher
    // touches the store after it; queued online requests complete as
    // Shutdown, the pipeline's queued eval closures still run — they
    // call the engine directly, not the batcher.
    serve_->stop_serving();
    // Rounds in flight finish before the cluster (destroyed first)
    // stops its workers.
    ps_->drain();
}

const Dataset &
FlSystem::shard(int device_id) const
{
    assert(device_id >= 0 && device_id < num_devices());
    return shards_[static_cast<size_t>(device_id)];
}

int
FlSystem::classes_on_device(int device_id) const
{
    return partition_.classes_per_device[static_cast<size_t>(device_id)];
}

bool
FlSystem::device_non_iid(int device_id) const
{
    return partition_.non_iid[static_cast<size_t>(device_id)];
}

PsServer &
FlSystem::runtime()
{
    std::string err;
    if (cluster_ && !cluster_->start(&err))
        throw std::runtime_error("FlSystem: cluster start failed: " + err);
    return *ps_;
}

PsRoundStats
FlSystem::run_round(const std::vector<int> &device_ids, uint64_t round)
{
    return runtime().run_round(round_jobs(*this, device_ids), round);
}

void
FlSystem::submit_round(const std::vector<int> &device_ids, uint64_t round,
                       PsRoundCallback cb)
{
    runtime().submit_round(round_jobs(*this, device_ids), round,
                           std::move(cb));
}

void
FlSystem::drain()
{
    ps_->drain();
}

bool
FlSystem::pipelined() const
{
    return ps_->pipelined();
}

double
FlSystem::evaluate()
{
    // One consumption path for every runtime: snapshot handle in,
    // batched engine eval out. Store-backed services (streaming mode)
    // already hold the latest commit snapshot; the drained runtime
    // publishes the current global weights as a model version first (a
    // no-op when the weights haven't changed).
    if (!serve_->store_backed())
        serve_->publish(server_.global_weights());
    return serve_->evaluate(serve_->acquire(), data_.test).accuracy;
}

} // namespace autofl
