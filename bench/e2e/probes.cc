#include "probes.h"

#include <numeric>

#include "kernels/kernels.h"
#include "load.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "sim/scale.h"
#include "store/mapped_snapshot.h"
#include "store/snapshot.h"
#include "trace.h"
#include "util/rng.h"

namespace e2e {

using namespace autofl;

double
median_us(int reps, const std::function<void()> &fn)
{
    fn();
    std::vector<double> t;
    t.reserve(static_cast<size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const int64_t t0 = now_ns();
        fn();
        t.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    return median(std::move(t));
}

NnProbe
probe_nn(Workload w, const Dataset &data, uint64_t seed, int reps)
{
    constexpr int kTrainBatch = 16;
    constexpr int kInferBatch = 32;
    Sequential model = make_model(w);
    Rng rng(seed);
    model.init_weights(rng);

    std::vector<int> idx(kTrainBatch);
    std::iota(idx.begin(), idx.end(), 0);
    const Tensor x = data.batch_x(idx);
    const std::vector<int> y = data.batch_y(idx);
    SoftmaxCrossEntropy loss;
    Sgd sgd(0.01);

    const size_t layers = model.num_layers();
    std::vector<std::vector<double>> fwd(layers), bwd(layers);
    std::vector<double> sgd_us;
    for (int rep = 0; rep <= reps; ++rep) {  // rep 0 warms up.
        model.zero_grad();
        Tensor a = x;
        std::vector<double> f(layers), b(layers);
        for (size_t i = 0; i < layers; ++i) {
            const int64_t t0 = now_ns();
            a = model.layer(i).forward(std::move(a));
            f[i] = static_cast<double>(now_ns() - t0) / 1e3;
        }
        loss.forward(a, y);
        Tensor g = loss.backward();
        for (size_t i = layers; i-- > 0;) {
            const int64_t t0 = now_ns();
            g = model.layer(i).backward(g);
            b[i] = static_cast<double>(now_ns() - t0) / 1e3;
        }
        const int64_t t0 = now_ns();
        sgd.step(model);
        const double s = static_cast<double>(now_ns() - t0) / 1e3;
        if (rep == 0)
            continue;
        for (size_t i = 0; i < layers; ++i) {
            fwd[i].push_back(f[i]);
            bwd[i].push_back(b[i]);
        }
        sgd_us.push_back(s);
    }

    NnProbe out;
    double step_us = 0;
    for (size_t i = 0; i < layers; ++i) {
        const double f = median(fwd[i]);
        const double b = median(bwd[i]);
        step_us += f + b;
        switch (model.layer(i).kind()) {
          case LayerKind::Conv:
          case LayerKind::Recurrent:
            out.feature_fwd_us += f;
            out.feature_bwd_us += b;
            break;
          case LayerKind::Fc:
            out.dense_fwd_us += f;
            out.dense_bwd_us += b;
            break;
          case LayerKind::Other:
            break;
        }
    }
    out.sgd_step_us = median(sgd_us);
    step_us += out.sgd_step_us;
    out.train_gflops = model_profile(w).flops_per_sample * kTrainBatch *
        kTrainFlopFactor / (step_us * 1e3);

    const Tensor one = data.batch_x({0});
    std::vector<int> idx32(kInferBatch);
    std::iota(idx32.begin(), idx32.end(), 0);
    const Tensor many = data.batch_x(idx32);
    out.infer_b1_us = median_us(reps, [&] { model.infer(one); });
    out.infer_b32_us = median_us(reps, [&] { model.infer(many); });
    return out;
}

double
probe_gemm_gflops(int n, int reps)
{
    Rng rng(7);
    std::vector<float> a(static_cast<size_t>(n) * n);
    std::vector<float> b(a.size());
    std::vector<float> c(a.size());
    for (auto &v : a)
        v = static_cast<float>(rng.uniform() - 0.5);
    for (auto &v : b)
        v = static_cast<float>(rng.uniform() - 0.5);
    const double us = median_us(reps, [&] {
        kernels::gemm(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    });
    return 2.0 * n * n * static_cast<double>(n) / (us * 1e3);
}

StoreProbe
probe_store(Workload w, const std::vector<float> &weights,
            const std::string &dir, int reps)
{
    store::SnapshotMeta meta;
    meta.epoch = 1;
    meta.dim = weights.size();
    meta.topology_hash =
        store::model_topology_hash(workload_name(w), meta.dim);
    meta.shard_count = 1;
    const auto shards = store::even_shard_ranges(meta.dim, 1);
    const std::string path = dir + "/probe.snap";

    StoreProbe out;
    out.serialize_us = median_us(reps, [&] {
        store::serialize_snapshot(meta, shards, weights.data());
    });
    out.write_ms = median_us(reps, [&] {
        store::write_snapshot_file(path, meta, shards, weights.data());
    }) / 1e3;
    out.mmap_open_us =
        median_us(reps, [&] { store::MappedSnapshot::open(path); });
    return out;
}

} // namespace e2e
