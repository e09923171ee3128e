/**
 * @file
 * Monitor: heartbeat-driven failure detection. Workers beat every
 * heartbeat_interval_ms; the monitor sweeps the book and declares any
 * node silent for longer than heartbeat_timeout_ms dead, invoking the
 * owner's on_dead callback exactly once per node (the Postoffice's
 * Alive -> Dead transition is the dedup point, so a closed transport
 * reporting the same death first wins harmlessly).
 *
 * Failure policy: a dead node is *evicted*, never waited for — its
 * in-flight work is dropped through the same accounting path as a
 * staleness eviction, so a crashed client costs one round's
 * contribution, not a hang.
 */
#ifndef AUTOFL_NET_MONITOR_H
#define AUTOFL_NET_MONITOR_H

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/postoffice.h"

namespace autofl::net {

/** Heartbeat watchdog over the Postoffice's alive workers. */
class Monitor
{
  public:
    /** Invoked (on the monitor thread) once per detected death. */
    using OnDead = std::function<void(int node, int silent_ms)>;

    /** Invoked (on the monitor thread) after every sweep. */
    using OnSweep = std::function<void()>;

    /**
     * @param po Membership book; deaths are recorded there.
     * @param timeout_ms Silence threshold; sweeps run every quarter.
     * @param on_dead Death handler (eviction lives in the owner).
     * @param on_sweep Optional per-sweep hook.
     */
    Monitor(Postoffice &po, int timeout_ms, OnDead on_dead,
            OnSweep on_sweep = nullptr);

    /** Stops the sweep thread. */
    ~Monitor();

    Monitor(const Monitor &) = delete;
    Monitor &operator=(const Monitor &) = delete;

    /** Start sweeping (idempotent). */
    void start();

    /** Stop sweeping (idempotent; joins the thread). */
    void stop();

    /** Record a sign of life from @p node (heartbeat or any message). */
    void note_alive(int node);

  private:
    using Clock = std::chrono::steady_clock;

    Postoffice &po_;
    const int timeout_ms_;
    OnDead on_dead_;
    OnSweep on_sweep_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::unordered_map<int, Clock::time_point> last_seen_;
    std::thread sweeper_;
    bool running_ = false;
    bool stop_ = false;

    void sweep_loop();
};

} // namespace autofl::net

#endif // AUTOFL_NET_MONITOR_H
