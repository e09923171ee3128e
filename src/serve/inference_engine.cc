#include "serve/inference_engine.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "nn/loss.h"

namespace autofl {

void
ServeConfig::validate(const char *who) const
{
    const std::string w(who);
    if (batch_size < 1) {
        throw std::invalid_argument(
            w + ".batch_size must be >= 1 (got " +
            std::to_string(batch_size) +
            "): inference folds batch_size samples into each forward "
            "pass; use 1 for the per-sample path");
    }
    if (workers < 1) {
        throw std::invalid_argument(
            w + ".workers must be >= 1 (got " + std::to_string(workers) +
            "): the inference engine needs at least one worker slot");
    }
    if (max_snapshot_lag < 0) {
        throw std::invalid_argument(
            w + ".max_snapshot_lag must be >= 0 (got " +
            std::to_string(max_snapshot_lag) +
            "): 0 always serves the freshest snapshot; a positive lag "
            "lets cached handles trail that many epochs");
    }
    if (queue_depth < 1) {
        throw std::invalid_argument(
            w + ".queue_depth must be >= 1 (got " +
            std::to_string(queue_depth) +
            "): admission control needs at least one queue slot; raise "
            "it to absorb bursts, shrink it to shed earlier");
    }
    if (batch_timeout_us < 0) {
        throw std::invalid_argument(
            w + ".batch_timeout_us must be >= 0 (got " +
            std::to_string(batch_timeout_us) +
            "): 0 dispatches queued requests immediately; a positive "
            "deadline lets a partial batch wait for peers to coalesce");
    }
    if (!(weight > 0.0)) {
        throw std::invalid_argument(
            w + ".weight must be > 0 (got " + std::to_string(weight) +
            "): gateway slot sharing guarantees each model "
            "max(1, floor(workers * w_i / sum_w)) slots");
    }
    if (starvation_limit < 1) {
        throw std::invalid_argument(
            w + ".starvation_limit must be >= 1 (got " +
            std::to_string(starvation_limit) +
            "): the bound on consecutive higher-priority dispatches a "
            "waiting class can be passed over");
    }
    if (!model_name.empty() && registry_dir.empty()) {
        throw std::invalid_argument(
            w + ".model_name is set but .registry_dir is empty: a "
            "registry name is only meaningful with a registry "
            "directory to publish into");
    }
}

InferenceEngine::InferenceEngine(Workload workload, const ServeConfig &cfg)
    : workload_(workload), cfg_(cfg)
{
    cfg_.validate("ServeConfig");
    slots_.reserve(static_cast<size_t>(cfg_.workers));
    for (int i = 0; i < cfg_.workers; ++i) {
        auto slot = std::make_unique<Slot>();
        slot->model = make_model(workload_);
        slots_.push_back(std::move(slot));
    }
}

InferenceEngine::Slot &
InferenceEngine::claim(const SnapshotHandle &snap, Claim c)
{
    const void *id = snap.valid() ? snap.owner().get() : nullptr;
    std::unique_lock<std::mutex> lk(pool_mu_);
    int &waiting = c == Claim::Serve ? serve_waiting_ : eval_waiting_;
    ++waiting;
    for (;;) {
        // Prefer a free slot that already holds this snapshot's weights
        // (serving affinity: no reload); fall back to any free slot.
        Slot *pick = nullptr;
        int free = 0;
        for (auto &sp : slots_) {
            if (sp->busy)
                continue;
            ++free;
            if (pick == nullptr || (sp->loaded.get() == id &&
                                    pick->loaded.get() != id))
                pick = sp.get();
        }
        // Free slots go to waiting Serve claims first; once Eval claims
        // have been passed over starvation_limit times, one is owed the
        // next slot.
        const bool eval_due = eval_waiting_ > 0 &&
            eval_passed_over_ >= cfg_.starvation_limit;
        const bool may_take = c == Claim::Serve
            ? free > (eval_due ? 1 : 0)
            : free > 0 && (eval_due || free > serve_waiting_);
        if (may_take) {
            --waiting;
            pick->busy = true;
            if (c == Claim::Eval) {
                eval_passed_over_ = 0;
            } else if (eval_waiting_ > 0 &&
                       ++eval_passed_over_ == cfg_.starvation_limit &&
                       free > 1) {
                // Eval just became due and a slot is still free: wake
                // the waiter that is now owed it.
                free_cv_.notify_all();
            }
            return *pick;
        }
        // Wait for whichever slot frees first. release() wakes every
        // waiter: a single wakeup could land on a claim of the class
        // that must keep yielding while the due one sleeps on.
        free_cv_.wait(lk);
    }
}

void
InferenceEngine::release(Slot &s)
{
    {
        std::lock_guard<std::mutex> lk(pool_mu_);
        s.busy = false;
    }
    free_cv_.notify_all();
}

int
InferenceEngine::waiting(Claim c) const
{
    std::lock_guard<std::mutex> lk(pool_mu_);
    return c == Claim::Serve ? serve_waiting_ : eval_waiting_;
}

InferenceEngine::Lease::Lease(InferenceEngine &eng,
                              const SnapshotHandle &snap, Claim c)
    : eng_(&eng), slot_(&eng.claim(snap, c))
{
    // The weight load runs outside pool_mu_: the busy flag makes the
    // slot exclusively ours, so only the pool scan ever holds the lock.
    if (snap.valid() && slot_->loaded.get() != snap.owner().get()) {
        const std::span<const float> w = snap.weights();
        slot_->model.set_flat_weights(w.data(), w.size());
        slot_->loaded = snap.owner();
    }
}

EvalStats
InferenceEngine::evaluate(const SnapshotHandle &snap, const Dataset &test,
                          int fan_out)
{
    EvalStats st;
    // Only a valid handle carries a meaningful epoch; an invalid one
    // scores nothing and its epoch field is garbage, so stamping it
    // would make "nothing ran" indistinguishable from a real epoch-N
    // result. samples stays 0 whenever no row was scored.
    if (snap.valid())
        st.epoch = snap.epoch();
    if (!snap.valid() || test.empty())
        return st;
    st.samples = static_cast<int>(test.size());

    const int n = st.samples;
    const int bs = cfg_.batch_size;
    const int batches = (n + bs - 1) / bs;
    const int threads =
        std::clamp(fan_out > 0 ? fan_out : cfg_.workers, 1, batches);

    // Per-batch partial results, reduced in batch order below: the
    // outcome is identical whatever the fan-out.
    std::vector<int> correct(static_cast<size_t>(batches), 0);
    std::vector<double> loss(static_cast<size_t>(batches), 0.0);
    // Each batch is its own background claim held across infer() only,
    // so serving waits behind at most one eval batch.
    auto worker = [&](int tid) {
        SoftmaxCrossEntropy lossfn;
        std::vector<int> idx;
        for (int b = tid; b < batches; b += threads) {
            const int begin = b * bs;
            const int end = std::min(n, begin + bs);
            idx.resize(static_cast<size_t>(end - begin));
            std::iota(idx.begin(), idx.end(), begin);
            Tensor x = test.batch_x(idx);
            Tensor logits;
            {
                Lease lease(*this, snap, Claim::Eval);
                logits = lease.model().infer(std::move(x));
            }
            // loss.forward returns the batch mean; weight it back to a
            // sum so the dataset mean is exact with a ragged tail.
            loss[static_cast<size_t>(b)] =
                lossfn.forward(logits, test.batch_y(idx)) * (end - begin);
            correct[static_cast<size_t>(b)] = lossfn.correct();
        }
    };
    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(threads));
        for (int t = 0; t < threads; ++t)
            pool.emplace_back(worker, t);
        for (auto &t : pool)
            t.join();
    }

    double loss_sum = 0.0;
    for (int b = 0; b < batches; ++b) {
        st.correct += correct[static_cast<size_t>(b)];
        loss_sum += loss[static_cast<size_t>(b)];
    }
    st.accuracy = static_cast<double>(st.correct) / n;
    st.mean_loss = loss_sum / n;
    return st;
}

std::vector<int>
InferenceEngine::classify(const SnapshotHandle &snap, const Dataset &data,
                          const std::vector<int> &indices)
{
    std::vector<int> out;
    if (!snap.valid() || indices.empty())
        return out;
    out.reserve(indices.size());
    const size_t bs = static_cast<size_t>(cfg_.batch_size);
    std::vector<int> chunk;
    for (size_t begin = 0; begin < indices.size(); begin += bs) {
        const size_t end = std::min(indices.size(), begin + bs);
        chunk.assign(indices.begin() + static_cast<ptrdiff_t>(begin),
                     indices.begin() + static_cast<ptrdiff_t>(end));
        Tensor x = data.batch_x(chunk);
        Tensor logits;
        {
            Lease lease(*this, snap);
            logits = lease.model().infer(std::move(x));
        }
        const std::vector<int> cls = argmax_rows(logits);
        out.insert(out.end(), cls.begin(), cls.end());
    }
    return out;
}

Tensor
InferenceEngine::forward(const SnapshotHandle &snap, Tensor batch)
{
    // Throw, not assert: a Release build must never silently serve a
    // slot whose scratch model has no weights loaded.
    if (!snap.valid()) {
        throw std::invalid_argument(
            "InferenceEngine::forward requires a valid snapshot handle "
            "(no model version published/attached yet)");
    }
    Lease lease(*this, snap);
    return lease.model().infer(std::move(batch));
}

} // namespace autofl
