#include "monitor.h"

#include <vector>

namespace autofl::net {

Monitor::Monitor(Postoffice &po, int timeout_ms, OnDead on_dead,
                 OnSweep on_sweep)
    : po_(po), timeout_ms_(timeout_ms), on_dead_(std::move(on_dead)),
      on_sweep_(std::move(on_sweep))
{
}

Monitor::~Monitor()
{
    stop();
}

void
Monitor::start()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (running_)
        return;
    running_ = true;
    stop_ = false;
    sweeper_ = std::thread([this] { sweep_loop(); });
}

void
Monitor::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_)
            return;
        stop_ = true;
        cv_.notify_all();
    }
    sweeper_.join();
    std::lock_guard<std::mutex> lk(mu_);
    running_ = false;
}

void
Monitor::note_alive(int node)
{
    std::lock_guard<std::mutex> lk(mu_);
    last_seen_[node] = Clock::now();
}

void
Monitor::sweep_loop()
{
    // Sweep at a quarter of the timeout so detection lands within
    // ~1.25x the configured threshold.
    const auto period =
        std::chrono::milliseconds(std::max(1, timeout_ms_ / 4));
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
        cv_.wait_for(lk, period, [this] { return stop_; });
        if (stop_)
            return;
        const auto now = Clock::now();
        std::vector<std::pair<int, int>> dead;  // (node, silent_ms).
        for (int id : po_.alive_workers()) {
            auto it = last_seen_.find(id);
            if (it == last_seen_.end()) {
                // Never beat: start its clock at first sweep so a
                // worker that joins and immediately wedges still times
                // out rather than escaping the book.
                last_seen_[id] = now;
                continue;
            }
            const int silent = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - it->second)
                    .count());
            if (silent >= timeout_ms_)
                dead.emplace_back(id, silent);
        }
        // Callbacks run without the monitor lock: the handler evicts
        // jobs and may send messages, and note_alive must stay callable
        // from receive threads throughout.
        lk.unlock();
        for (auto [id, silent] : dead) {
            if (po_.mark_dead(id) && on_dead_)
                on_dead_(id, silent);
        }
        if (on_sweep_)
            on_sweep_();
        lk.lock();
    }
}

} // namespace autofl::net
