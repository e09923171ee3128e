/**
 * @file
 * Single-layer probes for the traced run: each times one layer's own
 * entry points in isolation (one thread, fixed shapes), so a change in
 * an end-to-end number can be traced to the layer that moved.
 */
#ifndef AUTOFL_BENCH_E2E_PROBES_H
#define AUTOFL_BENCH_E2E_PROBES_H

#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace e2e {

/** Median wall time of @p fn over @p reps calls after one warm-up, in µs. */
double median_us(int reps, const std::function<void()> &fn);

/** nn: one training step and inference, single thread. */
struct NnProbe
{
    double feature_fwd_us = 0;  ///< Conv2D or Lstm layers, forward.
    double feature_bwd_us = 0;  ///< Same layers, backward.
    double dense_fwd_us = 0;
    double dense_bwd_us = 0;
    double sgd_step_us = 0;
    double train_gflops = 0;  ///< Model FLOPs of the step / step time.
    double infer_b1_us = 0;
    double infer_b32_us = 0;
};

/**
 * Time a B=16 training step layer by layer (forward, loss, backward,
 * SGD) and inference at batch 1 and 32 on @p data (>= 32 samples).
 */
NnProbe probe_nn(autofl::Workload w, const autofl::Dataset &data,
                 uint64_t seed, int reps);

/** kernels: GFLOP/s of an n x n x n GEMM on the dispatched arch. */
double probe_gemm_gflops(int n, int reps);

/** store: artifact encode, durable write and mmap open. */
struct StoreProbe
{
    double serialize_us = 0;
    double write_ms = 0;
    double mmap_open_us = 0;
};

/** Run the store probe on @p weights, writing under @p dir. */
StoreProbe probe_store(autofl::Workload w, const std::vector<float> &weights,
                       const std::string &dir, int reps);

} // namespace e2e

#endif // AUTOFL_BENCH_E2E_PROBES_H
