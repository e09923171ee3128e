/**
 * @file
 * End-to-end benchmark of the AutoFL reproduction.
 *
 * Each workload is what a user of this system runs: a federated
 * training job over the simulated 200-device fleet (AutoFL picks the
 * participants every round) followed by, or overlapped with, traffic
 * to the model it trained. The program calls only public entry points:
 * FlSystem (submit_round/run_round/evaluate/drain/serve), the policies
 * and sim APIs, ServingGateway/ModelService and the store functions.
 *
 *   autofl_e2e --workload W [--seed N] [--seconds 20] [--trace 0|1]
 *              [--work-dir DIR] [--git-sha SHA]
 *   autofl_e2e --smoke
 *
 * A run lasts kFullSeconds (20 s); --seconds is accepted only with that
 * value, so runs of two commits always have the same length. --smoke
 * runs every workload at 1/20 of it.
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 runs the same
 * workload with spans around every layer call plus single-layer probes
 * and prints the per-layer metrics (and writes a Chrome trace). The
 * last line of stdout is always one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * and the same object, with a header, lands in
 * <work-dir>/results/<workload>-s<seed>-t<trace>.json. The exit code is
 * non-zero when a correctness gate fails.
 */
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "fl/fl_cluster.h"
#include "fl/system.h"
#include "harness/experiment.h"
#include "kernels/kernels.h"
#include "load.h"
#include "nn/loss.h"
#include "policies/policy.h"
#include "probes.h"
#include "serve/model_service.h"
#include "serve/serving_gateway.h"
#include "sim/scale.h"
#include "store/model_registry.h"
#include "trace.h"
#include "util/stats.h"

#ifndef AUTOFL_E2E_BUILD_TYPE
#define AUTOFL_E2E_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace autofl;
using e2e::now_ns;
using e2e::Tracer;

namespace {

// ------------------------------------------------------------ workloads

/**
 * One workload. Round counts and phase lengths scale with the run
 * length so --smoke (1/20 of the full length) runs the same code paths.
 */
struct Spec
{
    const char *name;
    Workload model;
    SyncMode mode;
    int staleness;      ///< SemiAsync bound S.
    int depth;          ///< Pipeline depth (1 = rounds run inline).
    int threads;        ///< Training executors (loopback: net workers).
    bool loopback;      ///< Rounds cross the in-process net transport.
    double rounds_per_s;  ///< Training rounds per second of run length.
    int ckpt_every;     ///< Checkpoint cadence; 0 = final model only.
    int ckpt_keep;      ///< Artifacts retained.
    int fl_serve_workers;  ///< Slots of the training job's own service.
    /// Serving. The open loop (phase A) runs after training against a
    /// gateway cold-started from the registry, or during training
    /// against the job's own service; the closed loop (phase B) always
    /// runs against the gateway.
    bool serve_during_training;
    double open_qps;
    double open_share;    ///< Share of the run (after-training phase).
    uint64_t deadline_us;  ///< Phase A deadline after the due time.
    double closed_share;  ///< Phase B share of the run.
    int gw_workers;       ///< Gateway slots.
    int gw_batch;
};

// Thread sizing: load comes from one thread and training uses
// nproc - 1 = 3 executors on the 4-core reference host; the spare core
// runs the main, eval and dispatcher threads (see README.md).
const Spec kSpecs[] = {
    {.name = "train-cnn-sync", .model = Workload::CnnMnist,
     .mode = SyncMode::Sync, .staleness = 0, .depth = 1, .threads = 3,
     .loopback = false, .rounds_per_s = 20.0, .ckpt_every = 0,
     .ckpt_keep = 1, .fl_serve_workers = 3, .serve_during_training = false,
     .open_qps = 20000.0, .open_share = 0.15, .deadline_us = 100000,
     .closed_share = 0.2, .gw_workers = 2, .gw_batch = 32},
    {.name = "train-lstm-loopback", .model = Workload::LstmShakespeare,
     .mode = SyncMode::SemiAsync, .staleness = 0, .depth = 1, .threads = 3,
     .loopback = true, .rounds_per_s = 12.5, .ckpt_every = 0,
     .ckpt_keep = 1, .fl_serve_workers = 3, .serve_during_training = false,
     .open_qps = 20000.0, .open_share = 0.15, .deadline_us = 100000,
     .closed_share = 0.2, .gw_workers = 2, .gw_batch = 32},
    {.name = "serve-lstm", .model = Workload::LstmShakespeare,
     .mode = SyncMode::Sync, .staleness = 0, .depth = 1, .threads = 3,
     .loopback = false, .rounds_per_s = 3.0, .ckpt_every = 0,
     .ckpt_keep = 1, .fl_serve_workers = 3, .serve_during_training = false,
     .open_qps = 30000.0, .open_share = 0.40, .deadline_us = 100000,
     .closed_share = 0.25, .gw_workers = 2, .gw_batch = 32},
    // The pipeline's evals hold the job's only inference slot for ~30 ms,
    // so the deadline sits far above that tail.
    {.name = "train-serve-mobilenet", .model = Workload::MobileNetImageNet,
     .mode = SyncMode::SemiAsync, .staleness = 1, .depth = 3, .threads = 2,
     .loopback = false, .rounds_per_s = 5.0, .ckpt_every = 10,
     .ckpt_keep = 2, .fl_serve_workers = 1, .serve_during_training = true,
     .open_qps = 2000.0, .open_share = 0.0, .deadline_us = 1000000,
     .closed_share = 0.2, .gw_workers = 2, .gw_batch = 16},
};

const Spec *
find_spec(const std::string &name)
{
    for (const Spec &s : kSpecs)
        if (name == s.name)
            return &s;
    return nullptr;
}

/// Run length; the round counts and gates are sized for it.
constexpr double kFullSeconds = 20.0;
constexpr double kSmokeSeconds = kFullSeconds / 20.0;
/// Rounds the replayed loop and run_experiment run side by side in the
/// smoke's harness check: enough to fill a depth-3 pipeline.
constexpr int kHarnessCheckRounds = 4;
/// Set-ups per run. Single set-ups of one run spread over +-20%
/// (31-44 ms on the CNN job), so setup_s is the median of many.
constexpr int kSetupReps = 15;
constexpr int kProbeRows = 256;  ///< Distinct single-sample requests.
constexpr int kCheckRows = 64;   ///< Requests checked against classify().
/// Closed-loop depth: at least two full batches per slot, so a slot
/// never waits for the client to refill the queue. At 64 (one batch per
/// slot) per-window throughput swung by 40% within a run.
constexpr int kClosedInflight = 128;
/// Admission bound of every serving plane under test. The reference VM
/// stalls its vCPUs for 5-50 ms at a time under load; this depth (and
/// the open loops' deadlines of 100 ms and more) turns such a stall into
/// latency in the windows it hits instead of failed requests.
constexpr int kQueueDepth = 4096;
/// Share of each timed phase (training rounds, serving phases) run
/// before timing starts: thread pools spin up, caches fill and the
/// host gives the VM its cores back after an idle stretch.
constexpr double kWarmupShare = 0.1;
/// Requests due per open-loop percentile window: the fewest that leave
/// ten beyond p99, so a host stall spoils as few windows as it can.
constexpr double kWindowRequests = 1000.0;
constexpr double kQpsWindowS = 0.25;  ///< Closed-loop throughput window.
constexpr int kRateWindows = 20;      ///< Training-throughput windows.
/// Generator lateness p99 above which a run's latencies are flagged as
/// including generator stalls.
constexpr double kMaxLateUs = 1000.0;
constexpr double kMinCoverage = 0.95;
constexpr size_t kTraceSpans = 1u << 18;

int
rounds_for(const Spec &s, double seconds)
{
    return std::max(2, static_cast<int>(std::lround(s.rounds_per_s *
                                                    seconds)));
}

/**
 * The training job: the experiment harness's per-workload data sizing
 * and hyperparameters, S3 global parameters, 200 IID devices. The
 * harness keeps its defaults private, so they are repeated here;
 * replay_matches_harness() fails the smoke when the two drift apart.
 */
FlSystemConfig
fl_config(const Spec &s, uint64_t seed, int rounds,
          const std::string &snapshot_dir)
{
    FlSystemConfig c;
    c.workload = s.model;
    c.params = global_params_for(ParamSetting::S3);
    switch (s.model) {
      case Workload::CnnMnist:
        c.data.train_samples = 4000;
        c.data.test_samples = 600;
        c.hyper.lr = 0.03;
        c.data.noise = 0.95;
        break;
      case Workload::LstmShakespeare:
        c.data.train_samples = 4000;
        c.data.test_samples = 320;
        c.hyper.lr = 0.8;
        c.hyper.momentum = 0.9;
        c.data.noise = 0.0;
        break;
      case Workload::MobileNetImageNet:
        c.data.train_samples = 2400;
        c.data.test_samples = 300;
        c.hyper.lr = 0.06;
        c.hyper.momentum = 0.5;
        c.data.noise = 0.55;
        break;
    }
    c.data.seed = seed * 31 + 7;
    c.partition.num_devices = FleetMix{}.total();
    c.partition.seed = seed * 17 + 3;
    c.seed = seed;
    c.threads = s.threads;
    c.ps.mode = s.mode;
    c.ps.staleness_bound = s.staleness;
    c.ps.pipeline_depth = s.depth;
    c.ps.eval_workers = 1;
    if (s.loopback) {
        c.ps.net.listen = "loopback";
        c.ps.net.workers = s.threads;
    }
    c.ps.snapshot_dir = snapshot_dir;
    // At least one checkpoint lands: the gateway serves it afterwards.
    c.ps.snapshot_every_epochs =
        s.ckpt_every > 0 ? std::min(s.ckpt_every, rounds) : rounds;
    c.ps.snapshot_keep_last = s.ckpt_keep;
    c.serve.workers = s.fl_serve_workers;
    c.serve.queue_depth = kQueueDepth;
    return c;
}

/** The training job plus the fleet and the AutoFL scheduler. */
struct Stack
{
    std::unique_ptr<FlSystem> fl;
    std::unique_ptr<Fleet> fleet;
    std::unique_ptr<AutoFlPolicy> policy;
};

/** Under the ps runtimes staleness evicts stragglers, not a deadline. */
RoundSimConfig
round_sim_for(const Spec &s)
{
    RoundSimConfig c;
    if (s.mode != SyncMode::Sync || s.loopback)
        c.deadline_multiple = 0.0;
    return c;
}

/** What the scheduler sees of every device this round. */
std::vector<LocalObservation>
observe_fleet(FlSystem &fl, const Fleet &fleet)
{
    std::vector<LocalObservation> locals(static_cast<size_t>(fleet.size()));
    for (int d = 0; d < fleet.size(); ++d) {
        auto &l = locals[static_cast<size_t>(d)];
        l.state = fleet.device(d).state();
        l.data_classes = fl.classes_on_device(d);
        l.total_classes = model_num_classes(fl.config().workload);
    }
    return locals;
}

/**
 * run_experiment's AutoFL warm-up: scheduling and simulation only, with
 * a synthetic accuracy that rises with the participants' label
 * coverage, so the Q-tables are trained before round 0.
 */
void
warm_up_policy(Stack &st, const Spec &s)
{
    FlSystem &fl = *st.fl;
    AutoFlPolicy &policy = *st.policy;
    const int rounds = ExperimentConfig{}.autofl_warmup_rounds;
    const FlGlobalParams params = fl.config().params;
    const int total_classes = model_num_classes(s.model);
    GlobalObservation gobs;
    gobs.profile = fl.profile();
    gobs.params = params;
    const double quota = static_cast<double>(fl.shard(0).size());
    const ComputeProfile profile{
        params.epochs * quota * gobs.profile.flops_per_sample *
            kTrainFlopFactor,
        gobs.profile.mem_bound_frac, gobs.profile.model_bytes,
        params.batch_size};
    const RoundSimConfig round_sim = round_sim_for(s);

    policy.scheduler().set_epsilon(0.3);
    double synth_acc = 20.0;
    for (int w = 0; w < rounds; ++w) {
        st.fleet->begin_round();
        const auto plans =
            policy.select(gobs, observe_fleet(fl, *st.fleet), params.k);
        const RoundExec exec = simulate_round(
            *st.fleet, plans,
            std::vector<ComputeProfile>(plans.size(), profile), round_sim);
        double coverage = 0.0;
        for (const auto &p : plans)
            coverage += static_cast<double>(fl.classes_on_device(p.device_id)) /
                total_classes;
        coverage /= static_cast<double>(std::max<size_t>(1, plans.size()));
        synth_acc += (60.0 / rounds) * (0.3 + 1.2 * coverage);
        policy.observe_outcome(exec, synth_acc);
    }
    policy.scheduler().set_epsilon(0.05);
}

/** Everything a user waits for before round 0 is submitted. */
Stack
build_stack(const Spec &s, uint64_t seed, int rounds, const std::string &dir)
{
    Stack st;
    st.fl = std::make_unique<FlSystem>(fl_config(s, seed, rounds, dir));
    st.fleet = std::make_unique<Fleet>(FleetMix{}, VarianceScenario::Combined,
                                       seed * 13 + 5);
    AutoFlConfig acfg;
    acfg.seed ^= seed;
    st.policy = std::make_unique<AutoFlPolicy>(*st.fleet, acfg);
    warm_up_policy(st, s);
    return st;
}

// ----------------------------------------------------------- round loop

struct RoundLog
{
    double accuracy = 0.0;
    int64_t done_ns = 0;     ///< When the round loop consumed the result.
    double latency_ms = 0.0;  ///< Submit -> result.
    int samples = 0;          ///< Local training samples this round.
    int jobs = 0;             ///< Client jobs this round.
    PsRoundStats stats;
    double sim_round_s = 0.0;
    double sim_energy_j = 0.0;
    double sim_work_flops = 0.0;
};

struct TrainLog
{
    int64_t start_ns = 0;
    std::vector<RoundLog> rounds;
    std::vector<double> select_us, observe_us, simulate_us;
    std::vector<double> run_round_ms, evaluate_ms;  ///< Inline runtimes.
};

/**
 * The experiment harness's streaming round loop over public APIs:
 * observe the fleet, select (AutoFL), simulate the round on the fleet,
 * train it, and feed the outcome back to the scheduler. Inline
 * runtimes run FlSystem::run_round + evaluate directly (what
 * submit_round does for them) so each gets its own span; the pipelined
 * runtime streams through submit_round with up to depth rounds in
 * flight.
 */
TrainLog
train(Stack &st, const Spec &s, int rounds, Tracer &tr)
{
    FlSystem &fl = *st.fl;
    Fleet &fleet = *st.fleet;
    SelectionPolicy &policy = *st.policy;
    const RoundSimConfig round_sim = round_sim_for(s);
    const bool ps_mode = round_sim.deadline_multiple == 0.0;
    const bool pipelined = fl.pipelined();
    const int depth = pipelined ? s.depth : 1;
    const FlGlobalParams params = fl.config().params;

    GlobalObservation gobs;
    gobs.profile = fl.profile();
    gobs.params = params;
    SlidingWindow stale_window(
        static_cast<size_t>(ExperimentConfig{}.staleness_window));

    struct InFlight
    {
        int round = 0;
        RoundExec exec;
        int64_t submitted_ns = 0;
        int samples = 0;
        int jobs = 0;
    };
    struct Arrived
    {
        PsRoundResult result;
        int64_t at_ns = 0;
    };
    std::deque<InFlight> inflight;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Arrived> arrived;
    auto on_result = [&](const PsRoundResult &r) {
        std::lock_guard<std::mutex> lk(mu);
        arrived.push_back({r, now_ns()});
        cv.notify_one();
    };

    TrainLog log;
    log.start_ns = now_ns();
    auto consume = [&](const PsRoundResult &r, int64_t at_ns) {
        InFlight ctx = std::move(inflight.front());
        inflight.pop_front();
        // As run_experiment: an empty round carries the last accuracy,
        // or the untouched model's before any round completed.
        const double acc = r.accuracy >= 0.0 ? r.accuracy
            : log.rounds.empty()             ? fl.evaluate()
                                             : log.rounds.back().accuracy;
        {
            auto span = tr.layer("policies.observe", ctx.round);
            const int64_t t0 = now_ns();
            policy.observe_outcome(ctx.exec, acc * 100.0);
            log.observe_us.push_back(static_cast<double>(now_ns() - t0) /
                                     1e3);
        }
        stale_window.add(r.stats.mean_staleness);
        gobs.observed_staleness = stale_window.mean();
        RoundLog rec;
        rec.accuracy = acc;
        rec.done_ns = now_ns();
        rec.latency_ms = static_cast<double>(at_ns - ctx.submitted_ns) / 1e6;
        rec.samples = ctx.samples;
        rec.jobs = ctx.jobs;
        rec.stats = r.stats;
        rec.sim_round_s = ctx.exec.round_s;
        rec.sim_energy_j = ctx.exec.energy_global_j();
        rec.sim_work_flops = ctx.exec.work_flops;
        log.rounds.push_back(rec);
    };
    auto wait_one = [&] {
        Arrived a;
        {
            auto span = tr.layer("ps.wait_result");
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return !arrived.empty(); });
            a = arrived.front();
            arrived.pop_front();
        }
        consume(a.result, a.at_ns);
    };

    auto one_round = [&](int round) {
        auto round_span = tr.group("round", round);
        {
            auto span = tr.layer("sim.begin_round", round);
            fleet.begin_round();
        }
        std::vector<ParticipantPlan> plans;
        {
            auto span = tr.layer("policies.select", round);
            const int64_t t0 = now_ns();
            plans = policy.select(gobs, observe_fleet(fl, fleet), params.k);
            log.select_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        }
        RoundExec exec;
        {
            auto span = tr.layer("sim.simulate_round", round);
            const int64_t t0 = now_ns();
            std::vector<ComputeProfile> profiles;
            profiles.reserve(plans.size());
            for (const auto &p : plans) {
                ComputeProfile prof;
                prof.train_flops = static_cast<double>(params.epochs) *
                    static_cast<double>(fl.shard(p.device_id).size()) *
                    gobs.profile.flops_per_sample * kTrainFlopFactor;
                prof.mem_bound_frac = gobs.profile.mem_bound_frac;
                prof.payload_bytes = gobs.profile.model_bytes;
                prof.batch_size = params.batch_size;
                profiles.push_back(prof);
            }
            exec = simulate_round(fleet, plans, profiles, round_sim);
            log.simulate_us.push_back(static_cast<double>(now_ns() - t0) /
                                      1e3);
        }
        // Sync trains only the participants inside the simulated
        // deadline; the ps runtimes train everyone, submitted in
        // simulated completion order.
        std::vector<DeviceExec> order = exec.participants;
        if (ps_mode) {
            std::stable_sort(order.begin(), order.end(),
                             [](const DeviceExec &a, const DeviceExec &b) {
                                 return a.completion_s() < b.completion_s();
                             });
        }
        std::vector<int> ids;
        int samples = 0;
        for (const auto &e : order) {
            if (!ps_mode && !e.included)
                continue;
            ids.push_back(e.device_id);
            samples += params.epochs *
                static_cast<int>(fl.shard(e.device_id).size());
        }
        const int64_t submitted = now_ns();
        inflight.push_back({round, exec, submitted, samples,
                            static_cast<int>(ids.size())});
        if (pipelined) {
            {
                auto span = tr.layer("fl.submit_round", round);
                fl.submit_round(ids, static_cast<uint64_t>(round), on_result);
            }
            while (static_cast<int>(inflight.size()) >= depth)
                wait_one();
        } else {
            PsRoundResult r;
            r.round = static_cast<uint64_t>(round);
            {
                auto span = tr.layer("fl.run_round", round);
                const int64_t t0 = now_ns();
                r.stats = fl.run_round(ids, static_cast<uint64_t>(round));
                log.run_round_ms.push_back(
                    static_cast<double>(now_ns() - t0) / 1e6);
            }
            {
                auto span = tr.layer("serve.evaluate", round);
                const int64_t t0 = now_ns();
                r.accuracy = fl.evaluate();
                log.evaluate_ms.push_back(static_cast<double>(now_ns() - t0) /
                                          1e6);
            }
            consume(r, now_ns());
        }
    };

    try {
        for (int round = 0; round < rounds; ++round)
            one_round(round);
        while (!inflight.empty())
            wait_one();
    } catch (...) {
        fl.drain();  // Pipelined callbacks reference this frame.
        throw;
    }
    {
        auto span = tr.layer("fl.drain");
        fl.drain();
    }
    return log;
}

/**
 * Training throughput per window of consecutive rounds after the
 * warm-up rounds: local samples trained over the time from the previous
 * window's last result to the window's own last result.
 */
std::vector<double>
samples_per_s(const TrainLog &log, int windows)
{
    const int n = static_cast<int>(log.rounds.size());
    const int warm = static_cast<int>(n * kWarmupShare);
    windows = std::clamp(windows, 1, n - warm);
    std::vector<double> rates;
    int64_t prev = warm > 0 ? log.rounds[static_cast<size_t>(warm - 1)].done_ns
                            : log.start_ns;
    int begin = warm;
    for (int w = 1; w <= windows; ++w) {
        const int end = warm + (n - warm) * w / windows;
        double samples = 0;
        for (int r = begin; r < end; ++r)
            samples += log.rounds[static_cast<size_t>(r)].samples;
        const int64_t t = log.rounds[static_cast<size_t>(end - 1)].done_ns;
        rates.push_back(samples * 1e9 / static_cast<double>(t - prev));
        prev = t;
        begin = end;
    }
    return rates;
}

/**
 * The replayed round loop must train what run_experiment trains: run
 * both for a few rounds of the same job on @p seed and require
 * identical per-round accuracy and simulated time, energy and work. A
 * change to the harness's defaults or round loop that the replay does
 * not follow fails here. Snapshots land under @p dir.
 */
bool
replay_matches_harness(const Spec &s, uint64_t seed, const fs::path &dir)
{
    const int rounds = kHarnessCheckRounds;
    const std::string replay_dir = (dir / "replay").string();
    const FlSystemConfig f = fl_config(s, seed, rounds, replay_dir);
    ExperimentConfig c;
    c.workload = s.model;
    c.setting = ParamSetting::S3;
    c.variance = VarianceScenario::Combined;
    c.policy = PolicyKind::AutoFl;
    c.sync_mode = f.ps.mode;
    c.staleness_bound = f.ps.staleness_bound;
    c.pipeline_depth = f.ps.pipeline_depth;
    c.eval_workers = f.ps.eval_workers;
    c.net = f.ps.net;
    c.serve = f.serve;
    c.snapshot_dir = (dir / "harness").string();
    c.snapshot_every_epochs = f.ps.snapshot_every_epochs;
    c.snapshot_keep_last = f.ps.snapshot_keep_last;
    c.threads = f.threads;
    c.seed = seed;
    c.max_rounds = rounds;
    c.target_accuracy = 2.0;  // Unreachable: every round is recorded.
    const ExperimentResult want = run_experiment(c);

    Tracer off(0);
    Stack st = build_stack(s, seed, rounds, replay_dir);
    const TrainLog got = train(st, s, rounds, off);
    st = Stack{};
    if (got.rounds.size() != want.rounds.size())
        return false;
    for (size_t r = 0; r < got.rounds.size(); ++r) {
        const RoundLog &g = got.rounds[r];
        const RoundRecord &w = want.rounds[r];
        if (g.accuracy != w.accuracy || g.sim_round_s != w.round_s ||
            g.sim_energy_j != w.energy_global_j ||
            g.sim_work_flops != w.work_flops) {
            std::cerr << s.name << ": round " << r << " replay accuracy "
                      << g.accuracy << " sim " << g.sim_round_s << " s "
                      << g.sim_energy_j << " J, run_experiment "
                      << w.accuracy << " sim " << w.round_s << " s "
                      << w.energy_global_j << " J\n";
            return false;
        }
    }
    return true;
}

// -------------------------------------------------------------- results

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, bool>> gates;
    std::vector<Metric> quality;  ///< Deterministic per seed; not timed.
    std::vector<Metric> counts;   ///< Traced-run counters outside metrics.
    std::vector<Metric> failures;  ///< Failed operations by cause.
    /// The repeats and windows behind the timed metrics.
    std::vector<std::pair<std::string, std::vector<double>>> samples;
    std::vector<std::string> notes;  ///< Caveats printed with the result.

    const std::vector<double> &
    sample(const std::string &name) const
    {
        for (const auto &s : samples)
            if (s.first == name)
                return s.second;
        throw std::logic_error("no sample " + name);
    }

    /** Count @p n failed operations of one cause. */
    void
    fail(const std::string &cause, uint64_t n)
    {
        failures.push_back({cause, static_cast<double>(n), "count"});
        failed += n;
    }

    void
    gate(const std::string &name, bool pass)
    {
        gates.emplace_back(name, pass);
        if (!pass)
            ++failed;  // A failed gate is a failed operation.
    }

    bool
    correct() const
    {
        for (const auto &g : gates)
            if (!g.second)
                return false;
        for (const auto &m : metrics)
            if (!std::isfinite(m.value))
                return false;
        return true;
    }
};

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
result_json(const Result &r)
{
    std::ostringstream o;
    o << "{\"correct\": " << (r.correct() ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
          << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    o << "}}";
    return o.str();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    bool trace = false;
    bool smoke = false;
    std::string work_dir = ".bench_build/e2e";
    std::string git_sha = "unknown";
    /// Wall-clock start, so bench_diff can tell alternated pairs.
    double started_unix_s = std::chrono::duration<double>(
        std::chrono::system_clock::now().time_since_epoch()).count();

    /** Run length: fixed, 1/20 of it under --smoke. */
    double seconds() const { return smoke ? kSmokeSeconds : kFullSeconds; }
};

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

std::vector<std::pair<std::string, std::string>>
header(const Options &o, const Spec &s)
{
    return {
        {"git_sha", o.git_sha},
        {"kernel_arch",
         kernels::kernel_arch_name(kernels::current_kernel_arch())},
        {"hardware_threads",
         std::to_string(std::thread::hardware_concurrency())},
        {"nproc", std::to_string(nproc())},
        {"seed", std::to_string(o.seed)},
        {"build_type", AUTOFL_E2E_BUILD_TYPE},
        {"workload", s.name},
        {"seconds", num(o.seconds())},
        {"trace", o.trace ? "1" : "0"},
        {"started_unix_s", num(o.started_unix_s)},
    };
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

/** Forward time at @p rows, interpolated between the probed batches. */
double
forward_us_at(int rows, const double (&us)[3])
{
    static const int kRows[3] = {1, 8, 32};
    if (rows <= kRows[0])
        return us[0];
    for (int i = 1; i < 3; ++i) {
        if (rows <= kRows[i]) {
            const double f = static_cast<double>(rows - kRows[i - 1]) /
                (kRows[i] - kRows[i - 1]);
            return us[i - 1] + f * (us[i] - us[i - 1]);
        }
    }
    return us[2] * rows / kRows[2];
}

/**
 * Replies from submit() must match ModelService::classify() on the same
 * snapshot. Batch shapes differ between the two paths, so GEMM rounding
 * (the 1e-4 parity tier) may flip a near tie; a mismatch counts only
 * when the reference's two logits are more than 1e-3 apart (relative).
 */
bool
serving_matches_classify(ModelService &svc, const e2e::SubmitFn &submit,
                         const Dataset &test)
{
    std::vector<int> idx(kCheckRows);
    std::iota(idx.begin(), idx.end(), 0);
    const SnapshotHandle h = svc.acquire();
    const std::vector<int> want = svc.classify(h, test, idx);
    const Tensor logits = svc.engine().forward(h, test.batch_x(idx));
    const int classes = logits.dim(1);
    for (int i = 0; i < kCheckRows; ++i) {
        InferenceReply r = submit(test.batch_x({i}), {}).get();
        if (!r.ok())
            return false;
        const int got = argmax_rows(r.logits)[0];
        const int ref = want[static_cast<size_t>(i)];
        if (got == ref)
            continue;
        const float *row = logits.data() + static_cast<size_t>(i) * classes;
        if (std::fabs(row[got] - row[ref]) >
            1e-3f * std::max(1.0f, std::fabs(row[got])))
            return false;
    }
    return true;
}

// ------------------------------------------------------------- workload

Result
run_workload(const Spec &s, const Options &o)
{
    Result res;
    Tracer tr(o.trace ? kTraceSpans : 0);
    const double span_ns = o.trace ? e2e::span_cost_ns() : 0.0;
    const int64_t run_start = now_ns();
    auto run_span = tr.group("run");

    const double seconds = o.seconds();
    const int rounds = rounds_for(s, seconds);
    const fs::path tmp = fs::path(o.work_dir) / "tmp" /
        (std::string(s.name) + "-" + std::to_string(getpid()));
    const std::string registry_dir = (tmp / "registry").string();
    std::string model_dir;
    {
        auto span = tr.layer("store.publish_dir");
        fs::remove_all(tmp);
        fs::create_directories(tmp);
        store::ModelRegistry registry(registry_dir);
        if (registry.publish_dir(s.name, workload_name(s.model),
                                 &model_dir) != store::RegistryStatus::Ok)
            throw std::runtime_error("cannot create registry " +
                                     registry_dir);
    }

    // ---- set-up: the training job, median of kSetupReps builds.
    std::vector<double> setup_train;
    Stack st;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        {
            auto span = tr.layer("fl.teardown");
            st = Stack{};
        }
        auto span = tr.layer("fl.setup", rep);
        const int64_t t0 = now_ns();
        st = build_stack(s, o.seed, rounds, model_dir);
        setup_train.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    FlSystem &fl = *st.fl;
    const Dataset test = fl.test_set();
    std::vector<Tensor> rows;
    for (int i = 0; i < kProbeRows; ++i)
        rows.push_back(test.batch_x({i % static_cast<int>(test.size())}));
    double initial_acc = 0.0;
    {
        auto span = tr.layer("serve.evaluate");
        initial_acc = fl.evaluate();
    }

    // ---- training (the mobilenet job serves its own model meanwhile).
    e2e::OpenLoopStats open;
    std::atomic<bool> stop_gen{false};
    std::thread gen;
    auto fl_submit = [&fl](Tensor x, SubmitOptions opts) {
        return fl.serve().submit(std::move(x), false, opts);
    };
    if (s.serve_during_training) {
        gen = std::thread([&] {
            open = e2e::open_loop(fl_submit, rows, s.open_qps,
                                  seconds * 10.0, s.deadline_us, tr,
                                  &stop_gen);
        });
    }
    TrainLog log;
    try {
        log = train(st, s, rounds, tr);
    } catch (...) {
        stop_gen = true;
        if (gen.joinable())
            gen.join();
        throw;
    }
    stop_gen = true;
    if (gen.joinable())
        gen.join();
    res.attempted += static_cast<uint64_t>(rounds);
    res.fail("rounds_applying_nothing",
             static_cast<uint64_t>(std::count_if(
                 log.rounds.begin(), log.rounds.end(),
                 [](const RoundLog &r) { return r.stats.applied == 0; })));

    store::CheckpointStats ckpt;
    if (store::CheckpointWriter *w = fl.checkpoint_writer()) {
        auto span = tr.layer("store.flush");
        w->flush();
        ckpt = w->stats();
    }

    // ---- quality (deterministic per seed).
    const double target = default_target_accuracy(s.model);
    int rounds_to_target = -1;
    double sim_s = 0, sim_j = 0, work = 0, to_target_s = 0, to_target_j = 0;
    for (size_t r = 0; r < log.rounds.size(); ++r) {
        const RoundLog &l = log.rounds[r];
        sim_s += l.sim_round_s;
        sim_j += l.sim_energy_j;
        work += l.sim_work_flops;
        if (rounds_to_target < 0 && l.accuracy >= target) {
            rounds_to_target = static_cast<int>(r) + 1;
            to_target_s = sim_s;
            to_target_j = sim_j;
        }
    }
    const double final_acc = log.rounds.back().accuracy;
    double best_acc = 0.0;
    for (const RoundLog &l : log.rounds)
        best_acc = std::max(best_acc, l.accuracy);
    res.quality = {
        {"final_accuracy", final_acc, "fraction"},
        {"initial_accuracy", initial_acc, "fraction"},
        {"rounds", static_cast<double>(log.rounds.size()), "count"},
        {"rounds_to_target", static_cast<double>(rounds_to_target), "count"},
        {"sim_time_to_target_s", to_target_s, "s"},
        {"sim_energy_to_target_kj", to_target_j / 1e3, "kJ"},
    };
    res.gate("training_learns", best_acc > initial_acc);
    // At full length every workload reaches its target with margin on
    // seeds 1-3. Other seeds may need more rounds (MobileNet under S=1
    // took 115 on seed 7), and --smoke runs have fewer.
    if (!o.smoke && o.seed >= 1 && o.seed <= 3)
        res.gate("training_reaches_target", rounds_to_target > 0);

    // ---- fl-side probes of the traced run.
    double local_train_ms = 0, probe_eval_ms = 0, make_dataset_ms = 0;
    double push_bytes = 0, net_evictions = 0;
    if (o.trace) {
        auto span = tr.layer("fl.probe");
        LocalTrainer trainer(s.model);
        const std::vector<float> weights = fl.server().global_weights();
        local_train_ms = e2e::median_us(5, [&] {
            trainer.train(weights, fl.shard(0), fl.config().params,
                          fl.config().hyper, fl.config().algorithm, {},
                          client_rng(o.seed, 0, 0));
        }) / 1e3;
        probe_eval_ms = e2e::median_us(5, [&] { fl.evaluate(); }) / 1e3;
        make_dataset_ms = e2e::median_us(3, [&] {
            make_dataset(s.model, fl.config().data);
        }) / 1e3;
        if (FlCluster *c = fl.cluster()) {
            const net::ClusterServer &server = c->server();
            push_bytes = static_cast<double>(server.push_bytes_received()) /
                static_cast<double>(rounds);
            net_evictions = static_cast<double>(server.dead_evictions());
        }
    }

    // ---- serving. The mobilenet job served its own model while it
    // trained; every workload then cold-starts a gateway from the
    // registry the job published, and the others' open loop and every
    // closed loop go through it.
    ServeStats open_stats;  // Of the plane that served the open loop.
    if (s.serve_during_training)
        open_stats = fl.serve().serving_stats();
    {
        auto span = tr.layer("fl.teardown");
        st = Stack{};
    }
    std::vector<double> setup_serve;
    std::unique_ptr<ServingGateway> gw;
    ServeConfig base;
    base.workers = s.gw_workers;
    base.batch_size = s.gw_batch;
    base.queue_depth = kQueueDepth;
    base.registry_dir = registry_dir;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        {
            auto span = tr.layer("serve.teardown");
            gw.reset();
        }
        auto span = tr.layer("serve.cold_start", rep);
        const int64_t t0 = now_ns();
        gw = std::make_unique<ServingGateway>(base);
        if (gw->load_registry() != store::RegistryStatus::Ok ||
            gw->models().size() != 1)
            throw std::runtime_error("registry cold start failed");
        gw->start();
        if (!gw->query(s.name, rows[0]).ok())
            throw std::runtime_error("first reply after cold start was "
                                     "not Ok");
        setup_serve.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    ModelService &svc = *gw->service(s.name);
    const e2e::SubmitFn submit = [g = gw.get(), key = std::string(s.name)](
                                     Tensor x, SubmitOptions opts) {
        return g->submit(key, std::move(x), false, opts);
    };
    if (!s.serve_during_training) {
        auto span = tr.layer("serve.open_loop");
        open = e2e::open_loop(submit, rows, s.open_qps,
                              s.open_share * seconds, s.deadline_us, tr);
        open_stats = gw->stats(s.name);
    }
    res.attempted += open.sent;
    res.fail("open_loop_not_ok", open.not_ok);
    res.fail("open_loop_past_deadline", open.past_deadline);

    const double closed_s = s.closed_share * seconds;
    e2e::ClosedLoopStats closed;
    {
        auto span = tr.layer("serve.closed_loop");
        closed = e2e::closed_loop(submit, rows, kClosedInflight,
                                  kWarmupShare * closed_s, closed_s,
                                  kQpsWindowS);
    }
    res.attempted += closed.sent;
    res.fail("closed_loop_not_ok", closed.not_ok);

    {
        auto span = tr.layer("serve.check");
        ++res.attempted;
        res.gate("submit_matches_classify",
                 serving_matches_classify(svc, submit, test));
    }
    // Open-loop statistics are taken per window after the warm-up.
    const double open_from_s = kWarmupShare * open.elapsed_s;
    auto open_windows = [&](const std::vector<double> &v,
                            const std::vector<double> &at_s, double pct) {
        return e2e::window_percentiles(v, at_s, open_from_s,
                                       kWindowRequests / s.open_qps, pct);
    };
    res.samples = {
        {"setup_train_s", setup_train},
        {"setup_serve_s", setup_serve},
        {"train_samples_per_s", samples_per_s(log, kRateWindows)},
        {"serve_p50_ms", open_windows(open.latency_ms, open.latency_due_s, 50)},
        {"serve_p99_ms", open_windows(open.latency_ms, open.latency_due_s, 99)},
        {"serve_sat_qps", closed.window_qps},
        {"gen_late_us_p99", open_windows(open.late_us, open.send_due_s, 99)},
    };
    const double late_p99 = e2e::median(res.sample("gen_late_us_p99"));
    if (late_p99 > kMaxLateUs)
        res.notes.push_back("the generator ran late (p99 " + num(late_p99) +
                            " us); the latencies include its stalls");

    if (!o.trace) {
        const double setup_s = e2e::median(setup_train) +
            (setup_serve.empty() ? 0.0 : e2e::median(setup_serve));
        res.metrics = {
            {"setup_s", setup_s, "s"},
            {"train_samples_per_s",
             e2e::median(res.sample("train_samples_per_s")), "samples/s"},
            {"sim_round_s", sim_s / static_cast<double>(log.rounds.size()),
             "s"},
            {"sim_ppw_mflop_per_j", work / sim_j / 1e6, "MFLOP/J"},
            {"serve_p50_ms", e2e::median(res.sample("serve_p50_ms")), "ms"},
            {"serve_p99_ms", e2e::median(res.sample("serve_p99_ms")), "ms"},
            {"serve_sat_qps", e2e::median(res.sample("serve_sat_qps")),
             "1/s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
        };
    } else {
        // Serving-plane probes: engine forward at the batch shapes the
        // batcher coalesces, then the derived queueing wait.
        double fwd_us[3] = {0, 0, 0};
        {
            auto span = tr.layer("serve.forward_probe");
            const SnapshotHandle h = svc.acquire();
            const int sizes[3] = {1, 8, 32};
            for (int i = 0; i < 3; ++i) {
                std::vector<int> idx(static_cast<size_t>(sizes[i]));
                for (int j = 0; j < sizes[i]; ++j)
                    idx[static_cast<size_t>(j)] = j;
                const Tensor x = test.batch_x(idx);
                fwd_us[i] = e2e::median_us(
                    20, [&] { svc.engine().forward(h, x); });
            }
        }
        std::vector<double> wait_ms;
        wait_ms.reserve(open.latency_ms.size());
        for (size_t i = 0; i < open.latency_ms.size(); ++i) {
            wait_ms.push_back(std::max(
                0.0, open.latency_ms[i] -
                    forward_us_at(open.batch_rows[i], fwd_us) / 1e3));
        }
        // Layer probes on fixed shapes.
        e2e::NnProbe nn;
        {
            auto span = tr.layer("nn.probe");
            nn = e2e::probe_nn(s.model, test, o.seed, 20);
        }
        double gemm = 0;
        {
            auto span = tr.layer("kernels.probe");
            gemm = e2e::probe_gemm_gflops(256, 10);
        }
        e2e::StoreProbe sp;
        double registry_ms = 0;
        {
            auto span = tr.layer("store.probe");
            Sequential m = make_model(s.model);
            Rng rng(o.seed);
            m.init_weights(rng);
            sp = e2e::probe_store(s.model, m.flat_weights(), tmp.string(), 5);
            ServeConfig base;
            base.workers = 1;
            base.registry_dir = registry_dir;
            registry_ms = e2e::median_us(3, [&] {
                ServingGateway probe_gw(base);
                probe_gw.load_registry();
            }) / 1e3;
        }

        double applied = 0, evicted = 0, commits = 0, staleness = 0, jobs = 0;
        std::vector<double> round_ms, latency_ms;
        int64_t prev = log.start_ns;
        for (const RoundLog &r : log.rounds) {
            applied += r.stats.applied;
            evicted += r.stats.evicted;
            commits += r.stats.commits;
            staleness += r.stats.mean_staleness;
            jobs += r.jobs;
            round_ms.push_back(static_cast<double>(r.done_ns - prev) / 1e6);
            latency_ms.push_back(r.latency_ms);
            prev = r.done_ns;
        }
        const double n = static_cast<double>(log.rounds.size());
        const double round_p50 = percentile(round_ms, 50);
        const double eval_ms = log.evaluate_ms.empty()
            ? probe_eval_ms
            : percentile(log.evaluate_ms, 50);
        // Training time per round: the run_round call where rounds run
        // inline, the interval between results where they overlap.
        const double train_round_ms = log.run_round_ms.empty()
            ? round_p50
            : percentile(log.run_round_ms, 50);

        run_span.end();
        const double wall_ns = static_cast<double>(now_ns() - run_start);
        const double coverage = tr.coverage(0);
        const double overhead =
            static_cast<double>(tr.recorded()) * span_ns / wall_ns;
        res.gate("trace_coverage", coverage >= kMinCoverage);

        res.metrics = {
            {"nn.feature.fwd_us", nn.feature_fwd_us, "us"},
            {"nn.feature.bwd_us", nn.feature_bwd_us, "us"},
            {"nn.dense.fwd_us", nn.dense_fwd_us, "us"},
            {"nn.dense.bwd_us", nn.dense_bwd_us, "us"},
            {"nn.sgd_step_us", nn.sgd_step_us, "us"},
            {"nn.train_gflops", nn.train_gflops, "GFLOP/s"},
            {"nn.infer_us.b1", nn.infer_b1_us, "us"},
            {"nn.infer_us.b32", nn.infer_b32_us, "us"},
            {"kernels.gemm_gflops.256", gemm, "GFLOP/s"},
            {"data.make_dataset_ms", make_dataset_ms, "ms"},
            {"fl.local_train_ms", local_train_ms, "ms"},
            {"fl.round_ms.p50", round_p50, "ms"},
            {"fl.round_ms.p90", percentile(round_ms, 90), "ms"},
            {"fl.parallel_eff",
             (jobs / n) * local_train_ms / (s.threads * train_round_ms),
             "ratio"},
            {"ps.round_latency_ms.p50", percentile(latency_ms, 50), "ms"},
            {"ps.round_latency_ms.p90", percentile(latency_ms, 90), "ms"},
            {"policies.select_us", percentile(log.select_us, 50), "us"},
            {"policies.observe_us", percentile(log.observe_us, 50), "us"},
            {"sim.simulate_round_us", percentile(log.simulate_us, 50), "us"},
            {"serve.evaluate_ms", eval_ms, "ms"},
            {"serve.submit_us.p50", percentile(open.submit_us, 50), "us"},
            {"serve.submit_us.p99", percentile(open.submit_us, 99), "us"},
            {"serve.forward_us.b1", fwd_us[0], "us"},
            {"serve.forward_us.b8", fwd_us[1], "us"},
            {"serve.forward_us.b32", fwd_us[2], "us"},
            {"serve.wait_ms.p50", percentile(wait_ms, 50), "ms"},
            {"serve.wait_ms.p99", percentile(wait_ms, 99), "ms"},
            {"serve.mean_batch_rows", open_stats.mean_batch_rows(), "rows"},
            {"gen.late_us.p99", late_p99, "us"},
            {"store.serialize_us", sp.serialize_us, "us"},
            {"store.write_ms", sp.write_ms, "ms"},
            {"store.mmap_open_us", sp.mmap_open_us, "us"},
            {"store.registry_load_ms", registry_ms, "ms"},
            {"trace.coverage", coverage, "ratio"},
            {"trace.overhead_frac", overhead, "ratio"},
        };
        // Counters that stay 0 or constant on some workloads (no net, no
        // staleness, no overload) or that only count the offered load:
        // reported, but not metrics of every run.
        res.counts = {
            {"net.push_bytes_per_round", push_bytes, "bytes"},
            {"net.evictions", net_evictions, "count"},
            {"ps.applied_per_round", applied / n, "count"},
            {"ps.commits_per_round", commits / n, "count"},
            {"ps.evicted_per_round", evicted / n, "count"},
            {"ps.mean_staleness", staleness / n, "rounds"},
            {"serve.batches", static_cast<double>(open_stats.batches),
             "count"},
            {"serve.shed", static_cast<double>(open_stats.shed), "count"},
            {"serve.deadline_shed",
             static_cast<double>(open_stats.deadline_shed), "count"},
            {"store.ckpt_written", static_cast<double>(ckpt.written), "count"},
            {"store.ckpt_dropped", static_cast<double>(ckpt.dropped), "count"},
        };

        const fs::path trace_dir = fs::path(o.work_dir) / "traces";
        fs::create_directories(trace_dir);
        const std::string path = (trace_dir / (std::string(s.name) + "-s" +
                                               std::to_string(o.seed) +
                                               ".json"))
                                     .string();
        if (!tr.write_chrome_json(path, header(o, s)))
            throw std::runtime_error("cannot write trace " + path);
        std::cerr << "trace: " << path << " (" << tr.recorded()
                  << " spans, " << tr.dropped() << " dropped)\n";
    }

    gw.reset();
    st = Stack{};
    if (o.smoke && !o.trace) {
        ++res.attempted;
        res.gate("replay_matches_run_experiment",
                 replay_matches_harness(s, o.seed, tmp / "harness-check"));
    }
    fs::remove_all(tmp);
    return res;
}

void
print_result(const Spec &s, const Options &o, const Result &r)
{
    std::cout << s.name << " seed=" << o.seed << " seconds=" << o.seconds()
              << (o.trace ? " (traced)" : "") << "\n";
    for (const Metric &m : r.metrics)
        std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit
                  << "\n";
    for (const Metric &m : r.quality)
        std::cout << "  quality." << m.name << " = " << num(m.value) << " "
                  << m.unit << "\n";
    for (const Metric &m : r.counts)
        std::cout << "  count." << m.name << " = " << num(m.value) << " "
                  << m.unit << "\n";
    for (const Metric &m : r.failures)
        std::cout << "  failed." << m.name << " = " << num(m.value) << "\n";
    for (const auto &g : r.gates)
        std::cout << "  gate." << g.first << " = "
                  << (g.second ? "pass" : "FAIL") << "\n";
    for (const std::string &n : r.notes)
        std::cout << "  note: " << n << "\n";
    std::cout << "  attempted = " << r.attempted << ", failed = " << r.failed
              << "\n";
}

void
write_result_file(const Spec &s, const Options &o, const Result &r)
{
    const fs::path dir = fs::path(o.work_dir) / "results";
    fs::create_directories(dir);
    const fs::path path = dir / (std::string(s.name) + "-s" +
                                 std::to_string(o.seed) + "-t" +
                                 (o.trace ? "1" : "0") + ".json");
    auto values = [](const std::vector<Metric> &ms) {
        std::ostringstream v;
        v << "{";
        for (size_t i = 0; i < ms.size(); ++i)
            v << (i ? ", " : "") << "\"" << ms[i].name
              << "\": " << num(ms[i].value);
        v << "}";
        return v.str();
    };
    std::ostringstream h;
    h << "{";
    const auto hdr = header(o, s);
    for (size_t i = 0; i < hdr.size(); ++i)
        h << (i ? ", " : "") << "\"" << hdr[i].first << "\": \""
          << hdr[i].second << "\"";
    h << "}";
    std::ostringstream smp;
    smp << "{";
    for (size_t i = 0; i < r.samples.size(); ++i) {
        smp << (i ? ", " : "") << "\"" << r.samples[i].first << "\": [";
        for (size_t j = 0; j < r.samples[i].second.size(); ++j)
            smp << (j ? ", " : "") << num(r.samples[i].second[j]);
        smp << "]";
    }
    smp << "}";
    std::string body = result_json(r);
    body.pop_back();  // Reopen the object to append the other sections.
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path.string());
    std::fprintf(f,
                 "%s, \"header\": %s, \"quality\": %s, \"counts\": %s, "
                 "\"failures\": %s, \"samples\": %s}\n",
                 body.c_str(), h.str().c_str(), values(r.quality).c_str(),
                 values(r.counts).c_str(), values(r.failures).c_str(),
                 smp.str().c_str());
    std::fclose(f);
}

int
run_one(const Spec &s, const Options &o)
{
    Result r;
    try {
        r = run_workload(s, o);
    } catch (const std::exception &e) {
        std::cerr << s.name << ": " << e.what() << "\n";
        r = Result{};
        r.attempted = 1;
        r.gate("workload_ran", false);
    }
    print_result(s, o, r);
    write_result_file(s, o, r);
    std::cout << result_json(r) << std::endl;
    return r.correct() ? 0 : 1;
}

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "autofl_e2e: " << why
              << "\nusage: autofl_e2e --workload W [--seed N] [--seconds 20] "
                 "[--trace 0|1] [--work-dir DIR] [--git-sha SHA]\n"
                 "       autofl_e2e --smoke [--work-dir DIR]\nworkloads:";
    for (const Spec &s : kSpecs)
        std::cerr << " " << s.name;
    std::cerr << "\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds") {
            // Accepted so a caller can state the run length; runs of two
            // commits compare only at the same, fixed length.
            if (std::stod(value()) != kFullSeconds)
                usage("--seconds must be 20: the run length is fixed");
        } else if (a == "--trace")
            o.trace = value() != "0";
        else if (a == "--work-dir")
            o.work_dir = value();
        else if (a == "--git-sha")
            o.git_sha = value();
        else if (a == "--smoke")
            o.smoke = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (!o.smoke && !find_spec(o.workload))
        usage("--workload names no workload");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    if (!o.smoke)
        return run_one(*find_spec(o.workload), o);

    // Smoke: every workload at 1/20 of the full length, untraced and
    // traced, every gate that applies at that length on.
    int failures = 0;
    for (const Spec &s : kSpecs) {
        for (bool traced : {false, true}) {
            o.trace = traced;
            failures += run_one(s, o);
        }
    }
    std::cout << "smoke: " << failures << " failing run(s)\n";
    return failures == 0 ? 0 : 1;
}
