/**
 * @file
 * ClusterServer: the server node of the distributed parameter-server
 * runtime, a job transport behind PsServer's RoundPipeline (which keeps
 * the store and the aggregator). It speaks the wire.h protocol to
 * worker nodes over any Transport — loopback Vans, Unix sockets or TCP.
 *
 * Round protocol. launch() is the pipeline's launch step: it pins the
 * round's pull snapshot as its base and assigns job i to
 * alive[i % alive.size()] (RoundAssign carries (device, seq) pairs).
 * Every PullReq of the round, ranged or full, answers from the base and
 * every PushDelta is rebuilt against it; receive threads push into the
 * aggregator. Round state is keyed by (round, seq), so several rounds
 * can be in flight. Results are a function of the seed alone:
 * independent of worker count, placement and timing, and equal to the
 * in-process runtime's.
 *
 * Failure semantics. The Monitor declares a silent worker dead
 * (heartbeat timeout), a closed transport declares one dead
 * immediately, and the Monitor's sweep declares heartbeating
 * stragglers dead once a round they owe passes its deadline — in every
 * case the node's in-flight jobs are reported to the aggregator as
 * dropped, which closes their batches and counts them as evicted
 * (PsRoundStats::evicted); the round completes without them. A dead
 * client costs one round's contribution, never a hang.
 */
#ifndef AUTOFL_NET_CLUSTER_H
#define AUTOFL_NET_CLUSTER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/monitor.h"
#include "net/postoffice.h"
#include "net/van.h"
#include "ps/async_aggregator.h"
#include "ps/ps_config.h"
#include "ps/round_pipeline.h"
#include "ps/sharded_store.h"

namespace autofl::net {

/** Server node of the distributed ps runtime. */
class ClusterServer
{
  public:
    /**
     * @param agg The runtime's aggregator; receive threads push and
     *        drop into it. Must outlive this object.
     * @param store The runtime's store; fixes the model dim and the
     *        stripes ranged pulls address. Must outlive this object.
     * @param cfg Runtime knobs; cfg.net sets heartbeats and timeouts.
     *        The monitor starts immediately.
     */
    ClusterServer(AsyncAggregator &agg, const ShardedStore &store,
                  const PsConfig &cfg);

    /** Shuts the cluster down if still running. */
    ~ClusterServer();

    ClusterServer(const ClusterServer &) = delete;
    ClusterServer &operator=(const ClusterServer &) = delete;

    /**
     * Register a worker over an established transport (the loopback
     * path). Assigns the node id and starts its receive thread.
     * Returns the id.
     */
    int add_worker(std::unique_ptr<Transport> van);

    /** Bind cfg.net.listen (socket schemes). False with @p err set. */
    bool start_listening(std::string *err);

    /**
     * Accept and register @p n workers within @p timeout_ms. Returns
     * the number accepted (== n on success).
     */
    int accept_workers(int n, int timeout_ms);

    /**
     * The pipeline's launch step (RoundPipeline::LaunchFn): pin @p base
     * and send the assignments. Each job later reaches the aggregator
     * as a push, or as a drop when its worker dies or misses the round
     * deadline; with no alive workers every job drops at once.
     */
    void launch(uint64_t round, const std::vector<PsRoundJob> &jobs,
                const StoreSnapshot &base);

    /**
     * Membership-wide sync point: broadcast Barrier and wait for every
     * alive worker's ack (deaths shrink the quorum). False on timeout.
     */
    bool barrier(int timeout_ms);

    /**
     * Graceful stop: barrier (bounded), broadcast Shutdown, close
     * every transport and join the receive threads. Idempotent.
     */
    void shutdown();

    Postoffice &postoffice() { return po_; }

    /** Total jobs evicted because their worker died or timed out. */
    uint64_t dead_evictions() const { return dead_evictions_; }

    /**
     * Server-side wire bytes received on the push path (Push +
     * PushDelta frames, summed over every registered worker) — the
     * uplink traffic push compression is allowed to shrink. Pull
     * responses are deliberately excluded.
     */
    uint64_t push_bytes_received() const;

  private:
    struct Peer
    {
        int id = -1;
        std::unique_ptr<Transport> van;
        std::thread rx;
    };

    /** A launched round, until its last job is pushed or dropped. */
    struct RoundState
    {
        StoreSnapshot base;  ///< The round's pinned pull base.
        std::chrono::steady_clock::time_point deadline;
        std::map<uint64_t, int> owner;  ///< seq -> node, jobs still owed.
    };

    PsConfig cfg_;
    AsyncAggregator &agg_;
    const ShardedStore &store_;  ///< Read for its dim and stripes only.
    Postoffice po_;
    Monitor monitor_;
    std::unique_ptr<Listener> listener_;
    std::vector<std::unique_ptr<Peer>> peers_;  ///< Index id-1.
    std::atomic<bool> shutting_down_{false};
    bool shut_ = false;
    std::atomic<uint64_t> dead_evictions_{0};

    // Round state, guarded by round_mu_. No aggregator call and no
    // send is made with round_mu_ held: the aggregator's hooks reach
    // launch(), which takes it.
    mutable std::mutex round_mu_;
    std::map<uint64_t, RoundState> rounds_;

    // Barrier state.
    std::condition_variable barrier_cv_;

    void rx_loop(Peer *peer);
    void handle(Peer *peer, Message &&m);
    bool send_to(int id, Message m);

    /**
     * Accept a push for (m.round, m.seq) from @p node: true once per
     * job the node owes, with the round's pull base copied into
     * @p base. Late pushes of evicted jobs fail.
     */
    bool claim(int node, const Message &m, StoreSnapshot *base);

    /** Monitor sweep: evict every worker owing a job past its deadline. */
    void expire_rounds();

    /**
     * Drop @p id's in-flight jobs from the round. The caller owns the
     * Alive -> Dead transition (Postoffice::mark_dead), so this runs at
     * most once per node.
     */
    void evict_node(int id, const char *why, int silent_ms);
};

} // namespace autofl::net

#endif // AUTOFL_NET_CLUSTER_H
