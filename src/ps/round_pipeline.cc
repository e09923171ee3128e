#include "ps/round_pipeline.h"

#include <algorithm>
#include <cassert>

namespace autofl {

RoundPipeline::RoundPipeline(PsExecutor *eval_exec, AsyncAggregator &agg,
                             const ShardedStore &store, LaunchFn launch)
    : eval_exec_(eval_exec), agg_(agg), launch_(std::move(launch))
{
    // Seed the epoch history with the store's initial snapshot so round
    // 0 (pull epoch 0) can launch immediately.
    const StoreSnapshot init = store.latest_snapshot();
    history_[init.epoch] = init.weights;

    agg_.set_hooks(
        [this](const StoreSnapshot &s) { on_snapshot(s); },
        [this](uint64_t round, const PsRoundStats &stats,
               uint64_t final_epoch) {
            on_retired(round, stats, final_epoch);
        });
}

RoundPipeline::~RoundPipeline()
{
    drain();
}

void
RoundPipeline::set_eval_fn(EvalFn fn)
{
    std::lock_guard<std::mutex> lk(pmu_);
    eval_fn_ = std::move(fn);
}

void
RoundPipeline::set_checkpoint_hook(CheckpointFn fn)
{
    std::lock_guard<std::mutex> lk(pmu_);
    checkpoint_fn_ = std::move(fn);
}

void
RoundPipeline::submit(std::vector<PsRoundJob> jobs, uint64_t round,
                      PsRoundCallback cb, bool evaluate)
{
    // The plan carries the round's structural pull epoch. Empty rounds
    // retire on the spot (accuracy -1: there is no new snapshot to
    // score) and consume no commit clock.
    const RoundPlan plan =
        agg_.register_round(round, static_cast<int>(jobs.size()));

    std::unique_lock<std::mutex> lk(pmu_);
    auto e = std::make_shared<Entry>();
    e->round = round;
    e->jobs = std::move(jobs);
    e->cb = std::move(cb);
    e->plan = plan;
    e->want_eval = evaluate;
    e->final_epoch = plan.base_clock;
    e->done = plan.expected == 0;
    order_.push_back(e);
    last_plan_ = plan;

    prune_history_locked();
    launch_ready(lk);
    deliver_ready(lk);  // Covers the empty-round fast path.
}

void
RoundPipeline::launch_ready(std::unique_lock<std::mutex> &lk)
{
    // Launches leave in submission order, one thread at a time, with the
    // lock released (the launch step may send on a transport); whoever
    // is launching takes the rounds that become ready meanwhile. Order
    // keeps an executor's FIFO queue aligned with the commit order (the
    // deadlock-freedom invariant: a blocked commit wave's predecessor
    // jobs are always already dequeued).
    if (launching_)
        return;
    launching_ = true;
    for (;;) {
        auto e = std::find_if(order_.begin(), order_.end(), [](auto &x) {
            return !x->launched && x->plan.expected > 0;
        });
        if (e == order_.end())
            break;
        auto it = history_.find((*e)->plan.pull_epoch);
        if (it == history_.end())
            break;
        (*e)->launched = true;
        const uint64_t round = (*e)->round;
        const std::vector<PsRoundJob> jobs = std::move((*e)->jobs);
        const StoreSnapshot base{it->first, it->second};
        lk.unlock();
        launch_(round, jobs, base);
        lk.lock();
    }
    launching_ = false;
    drain_cv_.notify_all();
}

void
RoundPipeline::on_snapshot(const StoreSnapshot &snap)
{
    std::unique_lock<std::mutex> lk(pmu_);
    history_[snap.epoch] = snap.weights;
    prune_history_locked();
    launch_ready(lk);
}

void
RoundPipeline::on_retired(uint64_t round, const PsRoundStats &stats,
                          uint64_t final_epoch)
{
    std::unique_lock<std::mutex> lk(pmu_);
    std::shared_ptr<Entry> entry;
    for (auto &e : order_) {
        if (e->round == round) {
            entry = e;
            break;
        }
    }
    assert(entry);
    entry->stats = stats;
    entry->final_epoch = final_epoch;
    entry->retired = true;

    auto it = history_.find(final_epoch);
    std::shared_ptr<const std::vector<float>> snap =
        it != history_.end() ? it->second : nullptr;
    assert(snap);

    if (checkpoint_fn_ && snap) {
        // Persistence rides retirement: rounds retire in order, so the
        // hook sees a monotone (round, epoch) sequence, and the shared
        // history snapshot crosses zero-copy. Invoked with the lock
        // released (hook style: see AsyncAggregator) — the writer only
        // enqueues, but no pipeline lock is ever held across foreign
        // code.
        const CheckpointFn fn = checkpoint_fn_;
        lk.unlock();
        fn(round, final_epoch, snap);
        lk.lock();
    }

    if (eval_exec_ && eval_fn_ && snap && entry->want_eval) {
        // Score the retired round's snapshot concurrently; the shared
        // snapshot keeps the weights alive past any history pruning.
        EvalFn fn = eval_fn_;
        eval_exec_->submit([this, round, fn, snap, final_epoch](int) {
            finalize(round, fn(StoreSnapshot{final_epoch, snap}));
        });
        return;
    }
    entry->done = true;
    deliver_ready(lk);
}

void
RoundPipeline::finalize(uint64_t round, double accuracy)
{
    std::unique_lock<std::mutex> lk(pmu_);
    for (auto &e : order_) {
        if (e->round == round) {
            e->accuracy = accuracy;
            e->done = true;
            break;
        }
    }
    deliver_ready(lk);
}

void
RoundPipeline::deliver_ready(std::unique_lock<std::mutex> &lk)
{
    if (delivering_)
        return;  // Another thread is already draining, in order.
    delivering_ = true;
    while (!order_.empty() && order_.front()->done) {
        std::shared_ptr<Entry> e = order_.front();
        order_.pop_front();
        PsRoundResult res;
        res.round = e->round;
        res.stats = e->stats;
        res.accuracy = e->accuracy;
        res.final_epoch = e->final_epoch;
        PsRoundCallback cb = std::move(e->cb);
        lk.unlock();
        if (cb)
            cb(res);
        lk.lock();
    }
    delivering_ = false;
    drain_cv_.notify_all();
}

void
RoundPipeline::prune_history_locked()
{
    // Future rounds always pull at or above the next submission's
    // epoch (the aggregator's pull rule applied to the last plan); launched rounds hold their pull snapshot via shared_ptr,
    // but an unretired round still needs its *final* epoch in the
    // history for retirement-time evaluation. Everything below the
    // floor is garbage.
    uint64_t floor = last_plan_.next_pull_epoch();
    for (const auto &e : order_) {
        if (e->plan.expected == 0)
            continue;
        if (!e->launched)
            floor = std::min(floor, e->plan.pull_epoch);
        if (!e->retired) {
            floor = std::min(
                floor, e->plan.base_clock +
                           static_cast<uint64_t>(e->plan.num_batches));
        }
    }
    history_.erase(history_.begin(), history_.lower_bound(floor));
}

void
RoundPipeline::drain()
{
    std::unique_lock<std::mutex> lk(pmu_);
    drain_cv_.wait(lk, [this] {
        return order_.empty() && !delivering_ && !launching_;
    });
}

} // namespace autofl
