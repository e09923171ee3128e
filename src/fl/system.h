/**
 * @file
 * FlSystem: the complete training-side FL stack — per-device shards, the
 * aggregation server, and (multithreaded) local training — independent of
 * any scheduling policy. Policies decide *who* trains; FlSystem does the
 * actual learning so accuracy dynamics (IID vs non-IID, straggler drops)
 * are real, not modeled. Rounds run on a PsServer; under cfg.ps.net its
 * jobs go to an FlCluster's workers.
 */
#ifndef AUTOFL_FL_SYSTEM_H
#define AUTOFL_FL_SYSTEM_H

#include <memory>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/server.h"
#include "ps/ps_config.h"
#include "serve/serve_config.h"
#include "store/checkpoint_writer.h"

namespace autofl {

class PsServer;
class ModelService;
class FlCluster;

/** Configuration of one FL training job. */
struct FlSystemConfig
{
    Workload workload = Workload::CnnMnist;
    FlGlobalParams params;                 ///< (B, E, K).
    Algorithm algorithm = Algorithm::FedAvg;
    TrainHyper hyper;
    SyntheticConfig data;                  ///< Dataset generation.
    PartitionConfig partition;             ///< Shard assignment.
    uint64_t seed = 1234;                  ///< Weight init + client RNG.
    int threads = 8;                       ///< Parallel local training.
    PsConfig ps;                           ///< Parameter-server runtime.
    ServeConfig serve;                     ///< Model-serving plane.

    /**
     * Check the runtime knobs, throwing std::invalid_argument with an
     * actionable message on the first violation. FlSystem's
     * constructor calls this before building anything. Persistence
     * knobs are checked against the directory the run will use (the
     * registry's when serve.registry_dir is set); FEDL requires Sync
     * in process.
     */
    void validate() const;
};

/** Complete FL training stack for one job. */
class FlSystem
{
  public:
    explicit FlSystem(const FlSystemConfig &cfg);
    ~FlSystem();

    /** Number of devices holding shards. */
    int num_devices() const { return static_cast<int>(shards_.size()); }

    /** A device's local dataset. */
    const Dataset &shard(int device_id) const;

    /** Distinct label classes on a device (the S_Data feature input). */
    int classes_on_device(int device_id) const;

    /** Whether the partitioner made the device non-IID. */
    bool device_non_iid(int device_id) const;

    /** Global held-out test set. */
    const Dataset &test_set() const { return data_.test; }

    /** The aggregation server. */
    Server &server() { return server_; }
    const Server &server() const { return server_; }

    /**
     * Run one round on the selected devices and aggregate it into the
     * global model on the PsServer (concurrent jobs, bounded-staleness
     * aggregation; Sync commits the whole round at once, FEDL runs its
     * gradient phase first), with jobs on the cluster under cfg.ps.net.
     * In every mode the trained weights are a pure function of (seed,
     * device, round), never of job placement, thread count, pipeline
     * depth or transport.
     * @param round Round index (decorrelates per-round client RNG).
     */
    PsRoundStats run_round(const std::vector<int> &device_ids,
                           uint64_t round);

    /**
     * Streaming round entry: enqueue the round and return. Under the
     * pipelined ps runtime (cfg.ps.pipeline_depth > 1) up to depth
     * rounds overlap and @p cb fires in round order — with the round's
     * test accuracy scored by a concurrent eval worker from the round's
     * final store snapshot — once the round retires. Drained, the round
     * (and its evaluation) runs inline and @p cb fires before this
     * returns, so drivers can use one code path.
     * Sync never pipelines, whatever its depth.
     * Submit from one driver thread, in increasing round order.
     */
    void submit_round(const std::vector<int> &device_ids, uint64_t round,
                      PsRoundCallback cb);

    /** Wait until every submitted round's callback has returned. */
    void drain();

    /** Whether submit_round actually overlaps rounds. */
    bool pipelined() const;

    /** The round runtime, in every mode. */
    PsServer *ps() { return ps_.get(); }

    /**
     * The distributed worker fleet (cfg.ps.net.listen != ""), or null.
     * Started lazily at the first round; PsServer's jobs run on it.
     */
    FlCluster *cluster() { return cluster_.get(); }

    /**
     * The serving plane: versioned snapshot handles over this job's
     * global model plus the batched inference engine. Safe to query
     * from any thread, concurrently with (pipelined) training.
     */
    ModelService &serve() { return *serve_; }

    /**
     * Test accuracy of the current global model — a thin call into the
     * serving plane (acquire the latest snapshot, batched engine eval).
     */
    double evaluate();

    /** Job configuration. */
    const FlSystemConfig &config() const { return cfg_; }

    /** Structural profile of the trained model. */
    const NnProfile &profile() const { return profile_; }

    /**
     * Whether cfg.ps.resume_from restored an artifact into the server
     * before PsServer was built. Its store seeds from the server's
     * weights, so a resumed system continues from the artifact state
     * whichever transport trains.
     */
    bool resumed() const { return resumed_; }

    /**
     * The restored artifact's round (meaningless unless resumed()).
     * Drivers continue the round sequence at resume_round() + 1; for
     * single-batch rounds the continuation is bit-identical to the
     * uninterrupted run (see PsConfig::resume_from).
     */
    uint64_t resume_round() const { return resume_round_; }

    /**
     * The snapshot persistence writer, null when no artifact directory
     * is set (cfg.ps.snapshot_dir, or the registry's). Callers flush()
     * it to wait for artifacts on disk.
     */
    store::CheckpointWriter *checkpoint_writer() { return ckpt_.get(); }

  private:
    FlSystemConfig cfg_;
    TrainTestSplit data_;
    Partition partition_;
    std::vector<Dataset> shards_;
    Server server_;
    NnProfile profile_;

    // Declared before ps_ so it is destroyed after it: ~PsServer drains
    // the pipeline, whose queued eval closures call into serve_ — the
    // serving plane must outlive that drain.
    std::unique_ptr<ModelService> serve_;  ///< The serving plane.

    // The only persistence writer (null when off). Declared before ps_
    // for the same reason: the pipeline's retirement hook requests
    // into it while ~PsServer drains.
    std::unique_ptr<store::CheckpointWriter> ckpt_;
    std::unique_ptr<PsServer> ps_;
    // After ps_: ~FlSystem drains ps_, then the cluster shuts down, and
    // only then does ps_ (its receive threads' aggregator) die.
    std::unique_ptr<FlCluster> cluster_;  ///< Non-null when ps.net set.
    bool resumed_ = false;
    uint64_t resume_round_ = 0;

    /** The round runtime, with the cluster's fleet assembled first. */
    PsServer &runtime();
};

} // namespace autofl

#endif // AUTOFL_FL_SYSTEM_H
