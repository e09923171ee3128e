/**
 * @file
 * The synchronous FL barrier round, kept test-local as the oracle the
 * round runtimes are checked against. It is the paper's round written
 * the plainest way: every participant trains serially from the same
 * global weights with its (seed, device, round) client RNG — FEDL first
 * exchanges full gradients for its correction term — and
 * Server::aggregate folds the updates in selection order. Sync, the
 * drained and pipelined SemiAsync(S=0) runtimes and the cluster must all
 * land on these bits.
 */
#ifndef AUTOFL_TESTS_REFERENCE_BARRIER_H
#define AUTOFL_TESTS_REFERENCE_BARRIER_H

#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/server.h"
#include "fl/system.h"
#include "util/rng.h"

namespace autofl::testing {

/** Barrier-round oracle over the data and model an FlSystem would build. */
class ReferenceBarrier
{
  public:
    explicit ReferenceBarrier(const FlSystemConfig &cfg)
        : cfg_(cfg),
          server_(cfg.workload, cfg.algorithm, cfg.hyper, cfg.seed),
          trainer_(cfg.workload)
    {
        const TrainTestSplit data = make_dataset(cfg.workload, cfg.data);
        const Partition part = partition_dataset(data.train, cfg.partition);
        for (const auto &indices : part.shards)
            shards_.push_back(data.train.subset(indices));
    }

    /** Train @p device_ids at the current weights, then aggregate. */
    void
    run_round(const std::vector<int> &device_ids, uint64_t round)
    {
        const size_t n = device_ids.size();
        std::vector<std::vector<float>> grads;
        if (server_.wants_full_gradients()) {
            for (int dev : device_ids)
                grads.push_back(trainer_.full_gradient(
                    server_.global_weights(), shard(dev)));
            server_.update_global_gradient(grads);
        }
        std::vector<LocalUpdate> updates(n);
        for (size_t i = 0; i < n; ++i) {
            const int dev = device_ids[i];
            const std::vector<float> correction = grads.empty()
                ? std::vector<float>{}
                : server_.fedl_correction(grads[i]);
            updates[i] = trainer_.train(
                server_.global_weights(), shard(dev), cfg_.params,
                cfg_.hyper, cfg_.algorithm, correction,
                client_rng(cfg_.seed, dev, round));
            updates[i].device_id = dev;
        }
        server_.aggregate(updates);
    }

    const std::vector<float> &weights() const
    {
        return server_.global_weights();
    }

  private:
    const Dataset &shard(int dev) const
    {
        return shards_[static_cast<size_t>(dev)];
    }

    FlSystemConfig cfg_;
    Server server_;
    LocalTrainer trainer_;
    std::vector<Dataset> shards_;
};

} // namespace autofl::testing

#endif // AUTOFL_TESTS_REFERENCE_BARRIER_H
