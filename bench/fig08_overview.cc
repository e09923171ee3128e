/**
 * @file
 * Figure 8: result overview — PPW, convergence time and accuracy of
 * FedAvg-Random, Power, Performance, O_participant, AutoFL and O_FL on
 * the three FL workloads.
 *
 * Paper-reported shape: AutoFL beats FedAvg-Random / Power / Performance
 * on energy efficiency for every workload (4.0x / 3.7x / 5.1x over the
 * baseline for CNN / LSTM / MobileNet), lands close to O_FL, and beats
 * O_participant by exploiting per-device execution targets; CONV-heavy
 * workloads favor Performance over Power while the RC-heavy LSTM narrows
 * that difference.
 */
#include <benchmark/benchmark.h>

#include "bench_common.h"

using namespace autofl;
using namespace autofl::bench;

namespace {

void
run_figure()
{
    for (Workload w : all_workloads()) {
        ExperimentConfig cfg = base_config(w, ParamSetting::S3,
                                           VarianceScenario::Combined);
        std::vector<ExperimentResult> runs;
        for (PolicyKind kind : fig8_policies())
            runs.push_back(run_policy(cfg, kind));
        print_comparison("Fig. 8: overview (" + workload_name(w) +
                             ", S3, field variance)",
                         runs);
    }
}

/** Micro: one full FL training round (20 clients, CNN-MNIST). */
void
BM_FullTrainingRound(benchmark::State &state)
{
    FlSystemConfig fcfg;
    fcfg.workload = Workload::CnnMnist;
    fcfg.params = global_params_for(ParamSetting::S3);
    fcfg.threads = 16;
    FlSystem fl(fcfg);
    std::vector<int> ids;
    for (int d = 0; d < 20; ++d)
        ids.push_back(d * 10);
    uint64_t round = 0;
    for (auto _ : state) {
        const PsRoundStats stats = fl.run_round(ids, round++);
        benchmark::DoNotOptimize(stats.applied);
    }
}
BENCHMARK(BM_FullTrainingRound)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    run_figure();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
