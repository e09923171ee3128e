/**
 * @file
 * Experiment harness: one entry point that wires the fleet simulator, the
 * FL training stack, and a selection policy into a full evaluation run,
 * producing the metrics every paper figure reports (PPW, convergence
 * time, accuracy, selection mix).
 */
#ifndef AUTOFL_HARNESS_EXPERIMENT_H
#define AUTOFL_HARNESS_EXPERIMENT_H

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "data/partition.h"
#include "fl/system.h"
#include "policies/oracle.h"
#include "policies/policy.h"

namespace autofl {

/** Policy under evaluation. */
enum class PolicyKind {
    FedAvgRandom,   ///< Baseline: uniform random K.
    Power,          ///< All low-end (C7).
    Performance,    ///< All high-end (C1).
    StaticCluster,  ///< One of the Table 4 templates.
    OracleParticipant,  ///< O_participant (fixed searched composition).
    OracleFl,       ///< O_FL (composition + execution settings).
    AutoFl,         ///< The RL scheduler.
};

/** Display name of a policy kind. */
std::string policy_kind_name(PolicyKind k);

/** Full experiment configuration. */
struct ExperimentConfig
{
    Workload workload = Workload::CnnMnist;
    ParamSetting setting = ParamSetting::S3;
    VarianceScenario variance = VarianceScenario::None;
    DataDistribution distribution = DataDistribution::IdealIid;
    Algorithm algorithm = Algorithm::FedAvg;

    /**
     * Server runtime: synchronous rounds, or the ps runtime's
     * semi-async / async aggregation. Under the ps runtime the
     * deadline-based straggler drop is disabled — slow participants are
     * instead evicted by the staleness bound at aggregation time.
     */
    SyncMode sync_mode = SyncMode::Sync;
    int staleness_bound = 1;  ///< S for SemiAsync (0 == Sync exactly).
    int ps_shards = 8;        ///< Model-store lock stripes.

    /**
     * Rounds the ps runtime keeps in flight (1 = drained rounds); a
     * throughput knob only, the weights are the same at every depth.
     * Above 1 the harness round loop goes streaming: it
     * selects and submits round t+1 while round t is still draining,
     * and consumes results — evaluated concurrently from store
     * snapshots — with a lag of up to pipeline_depth rounds.
     */
    int pipeline_depth = 1;
    int eval_workers = 2;     ///< Concurrent snapshot-eval pool size.

    /**
     * Distributed transport (src/net/). Leave net.listen empty for the
     * in-process runtimes; "loopback" routes rounds through in-process
     * Van endpoints, "unix:/path" or "tcp:host:port" runs real worker
     * processes (net.spawn_cmd) with heartbeat-based failure eviction.
     * Every sync_mode and pipeline_depth runs over it.
     */
    NetConfig net;

    /**
     * Push-path update compression (ps/compression.h). Shrinks the
     * simulated uplink (download stays full f32) and, on the real
     * runtimes, replaces raw pushes with encoded deltas under error
     * feedback. Requires pipeline_depth == 1.
     */
    CompressionConfig compression;

    /**
     * Serving plane: inference batch size, worker slots and snapshot
     * freshness for every model read (FlSystem::evaluate, the
     * pipeline's eval workers, online queries while training), plus
     * the dynamic-batching queue knobs (queue_depth, batch_timeout_us,
     * shed policy) governing admission control for submit() traffic.
     */
    ServeConfig serve;

    /**
     * Snapshot persistence (src/store/): non-empty enables async
     * checkpointing of the post-round model into this directory (temp
     * + fsync + atomic rename — a crash never leaves a torn artifact).
     */
    std::string snapshot_dir;

    /** Checkpoint cadence in retired rounds (see PsConfig). */
    int snapshot_every_epochs = 1;

    /**
     * Checkpoint retention: keep the newest K artifacts plus pinned
     * rounds; 0 keeps everything (see PsConfig::snapshot_keep_last).
     * Applies to both bare snapshot_dir and registry publication
     * (serve.registry_dir) runs.
     */
    int snapshot_keep_last = 0;

    /**
     * Resume the run from this artifact (usually
     * <snapshot_dir>/latest.snap): training restarts at the artifact's
     * round + 1 and the round loop records only the remaining rounds.
     * Bit-identical continuation for single-batch rounds; see
     * PsConfig::resume_from for the contract.
     */
    std::string resume_from;

    /**
     * Sliding-window length (rounds) for the runtime statistics the
     * scheduler observes: S_Stale is bucketed from the windowed mean
     * staleness, so one odd round cannot flip the state while a
     * sustained shift shows up within a window.
     */
    int staleness_window = 8;

    PolicyKind policy = PolicyKind::FedAvgRandom;
    ClusterTemplate static_cluster;   ///< When policy == StaticCluster.
    OracleSpec oracle_spec;           ///< When policy == Oracle*.
    bool oracle_prefers_iid = false;  ///< Oracle may skip non-IID devices.
    AutoFlConfig autofl;              ///< When policy == AutoFl.

    /**
     * Scheduling-only RL warmup rounds before the measured run. The
     * paper's FL jobs run hundreds of rounds, so most execute with a
     * converged Q-table (reward converges after 50-80 rounds, Fig. 15);
     * our miniature jobs converge in tens of rounds, so the energy-driven
     * part of the Q-table is pre-trained on simulated rounds (with a
     * slowly improving synthetic accuracy signal) to match the paper's
     * steady-state behavior. Set to 0 to measure cold-start AutoFL
     * (Fig. 15 does).
     */
    int autofl_warmup_rounds = 250;

    FleetMix fleet_mix;               ///< 30/70/100 default.
    int max_rounds = 60;
    double target_accuracy = 0.0;     ///< 0 -> per-workload default.
    RoundSimConfig round_sim;
    int threads = 16;
    uint64_t seed = 1;

    /** Per-workload dataset sizing (0 -> defaults). */
    int train_samples = 0;
    int test_samples = 0;

    /**
     * Check the runtime knobs (pipeline depth, staleness bound, eval
     * workers, store shards, serving plane), throwing
     * std::invalid_argument with an actionable message on the first
     * violation. run_experiment calls this before building anything.
     */
    void validate() const;
};

/** Per-workload default convergence target (fraction, not percent). */
double default_target_accuracy(Workload w);

/** One round's record. */
struct RoundRecord
{
    int round = 0;
    double accuracy = 0.0;        ///< Global test accuracy after the round.
    double round_s = 0.0;
    double energy_global_j = 0.0;
    double energy_participants_j = 0.0;
    double work_flops = 0.0;
    int included = 0;             ///< Updates that reached aggregation.
    int evicted = 0;              ///< Dropped for staleness (ps runtime).
    double mean_staleness = 0.0;  ///< Mean applied staleness (ps runtime).
    double window_staleness = 0.0;  ///< Windowed mean the scheduler saw.
    int selected_high = 0, selected_mid = 0, selected_low = 0;
    std::array<int, 6> action_counts{};  ///< Selected action histogram.
    double mean_reward = 0.0;     ///< AutoFL only.
};

/** Aggregated result of one experiment. */
struct ExperimentResult
{
    std::string policy_name;
    std::vector<RoundRecord> rounds;

    double final_accuracy = 0.0;
    int rounds_to_target = -1;        ///< -1: target not reached.
    double time_to_target_s = 0.0;    ///< Simulated, when reached.
    double energy_to_target_j = 0.0;  ///< Fleet energy, when reached.

    double total_time_s = 0.0;
    double total_energy_j = 0.0;
    double total_work_flops = 0.0;
    double participant_energy_j = 0.0;

    /** Round-level global PPW: useful work per Joule of fleet energy. */
    double ppw_round() const;

    /** Round-level local PPW: work per Joule of participant energy. */
    double ppw_local() const;

    /**
     * Convergence-level efficiency: 1 / energy-to-target. Zero when the
     * target was never reached (paper's "does not converge" bars).
     */
    double ppw_convergence() const;

    /** Mean simulated round latency. */
    double avg_round_s() const;

    /** Mean selection mix over rounds (fractions summing to ~1). */
    std::array<double, 3> tier_mix() const;

    /** Mean action mix over rounds (fractions over the 6 actions). */
    std::array<double, 6> action_mix() const;

    bool converged() const { return rounds_to_target >= 0; }
};

/** Run a full experiment (real training + simulation). */
ExperimentResult run_experiment(const ExperimentConfig &cfg);

/** One server-runtime variant in a sync-mode scenario sweep. */
struct SyncModeScenario
{
    SyncMode mode = SyncMode::Sync;
    int staleness_bound = 0;  ///< Used by SemiAsync only.
};

/**
 * Scenario sweep over server runtimes: run the same job under each
 * variant (e.g. Sync, SemiAsync at several staleness bounds, Async) so
 * the semi-async FL scenario family is comparable against the paper's
 * synchronous baseline on one config. Results are returned in scenario
 * order with policy_name suffixed by the runtime ("AutoFL/SemiAsync-2").
 */
std::vector<ExperimentResult> run_sync_mode_sweep(
    const ExperimentConfig &cfg,
    const std::vector<SyncModeScenario> &scenarios);

/**
 * Characterization mode: identical scheduling/energy simulation but no
 * NN training or evaluation (accuracy is not produced). Used by the
 * Figure 4/5 sweeps where only round-level PPW matters; runs in
 * microseconds per round.
 */
ExperimentResult run_characterization(const ExperimentConfig &cfg,
                                      int rounds);

/** Similarity of two mixes: 1 - L1/2 (1 = identical distributions). */
template <size_t N>
double
mix_similarity(const std::array<double, N> &a, const std::array<double, N> &b)
{
    double l1 = 0.0;
    for (size_t i = 0; i < N; ++i)
        l1 += std::abs(a[i] - b[i]);
    return 1.0 - 0.5 * l1;
}

} // namespace autofl

#endif // AUTOFL_HARNESS_EXPERIMENT_H
