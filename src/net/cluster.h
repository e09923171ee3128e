/**
 * @file
 * ClusterServer: the server node of the distributed parameter-server
 * runtime. Owns the ShardedStore and the bounded-staleness
 * AsyncAggregator (the same commit engine as the in-process runtime),
 * and speaks the wire.h protocol to worker nodes over any Transport —
 * loopback Vans, Unix sockets or TCP.
 *
 * Round protocol. run_round registers the round with the aggregator —
 * the same structural commit discipline as the in-process runtime, so
 * batch b is seqs [bT, (b+1)T), staleness is the batch index and the
 * pull epoch comes from the plan — and pins that epoch's snapshot as the
 * round's pull base. It then assigns jobs round-robin over the alive
 * workers (RoundAssign carries (device, seq) pairs). Every PullReq of
 * the round, ranged or full, answers from the pinned base and every
 * PushDelta is rebuilt against it, so results are a function of the
 * seed alone: independent of worker count, placement and timing, and
 * equal to the in-process runtime's. The round completes when the
 * aggregator retires it.
 *
 * Failure semantics. The Monitor declares a silent worker dead
 * (heartbeat timeout), a closed transport declares one dead
 * immediately, and the optional round deadline declares heartbeating
 * stragglers dead — in every case the node's in-flight jobs are
 * reported to the aggregator as dropped, which closes their batches and
 * counts them as evicted (PsRoundStats::evicted); the round completes
 * without them. A dead client costs one round's contribution, never a
 * hang.
 */
#ifndef AUTOFL_NET_CLUSTER_H
#define AUTOFL_NET_CLUSTER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "net/monitor.h"
#include "net/postoffice.h"
#include "net/van.h"
#include "ps/async_aggregator.h"
#include "ps/ps_config.h"
#include "ps/sharded_store.h"

namespace autofl::net {

/** One client job of a distributed round. */
struct ClusterJob
{
    int device_id = -1;
};

/** Server node of the distributed ps runtime. */
class ClusterServer
{
  public:
    /**
     * @param init_weights Initial global model; fixes the store dim.
     * @param alg Aggregation algorithm (never FEDL, which runs only
     *        under Sync).
     * @param cfg Runtime knobs: mode/staleness/shards plus cfg.net
     *        (heartbeats, timeouts). The monitor starts immediately.
     */
    ClusterServer(std::vector<float> init_weights, Algorithm alg,
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
     * Run one round of @p jobs across the alive workers. Blocks until
     * the aggregator retires it — every job arrived or dropped — and
     * returns its stats, dead-worker losses counted as `evicted`. With
     * no alive workers the round completes immediately, fully evicted.
     */
    PsRoundStats run_round(const std::vector<ClusterJob> &jobs,
                           uint64_t round);

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

    ShardedStore &store() { return store_; }
    const ShardedStore &store() const { return store_; }
    Postoffice &postoffice() { return po_; }
    AsyncAggregator &aggregator() { return agg_; }

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

    PsConfig cfg_;
    ShardedStore store_;
    AsyncAggregator agg_;
    Postoffice po_;
    Monitor monitor_;
    std::unique_ptr<Listener> listener_;
    std::vector<std::unique_ptr<Peer>> peers_;  ///< Index id-1.
    std::atomic<bool> shutting_down_{false};
    bool shut_ = false;
    std::atomic<uint64_t> dead_evictions_{0};

    // Round state, guarded by round_mu_. No aggregator call is made
    // with round_mu_ held: the aggregator's hooks take it.
    mutable std::mutex round_mu_;
    std::condition_variable round_cv_;
    uint64_t current_round_ = 0;
    std::optional<PsRoundStats> retired_;  ///< Set when the round retires.
    /** node -> seqs it still owes; empty once the round retires. */
    std::map<int, std::vector<uint64_t>> outstanding_;

    /** Published epochs a later round may still pin as its base. */
    std::map<uint64_t, std::shared_ptr<const std::vector<float>>> snapshots_;

    /** The current round's pull base (epoch 0 before any round). */
    StoreSnapshot base_;

    // Barrier state.
    std::condition_variable barrier_cv_;

    void rx_loop(Peer *peer);
    void handle(Peer *peer, Message &&m);
    bool send_to(int id, Message m);

    /**
     * Accept a push for (m.round, m.seq) from @p node: true once per
     * outstanding job of the active round, with the round's pull base
     * copied into @p base. Late pushes of evicted or past rounds fail.
     */
    bool claim(int node, const Message &m, StoreSnapshot *base);

    /**
     * Drop @p id's in-flight jobs from the round. The caller owns the
     * Alive -> Dead transition (Postoffice::mark_dead), so this runs at
     * most once per node.
     */
    void evict_node(int id, const char *why, int silent_ms);
};

} // namespace autofl::net

#endif // AUTOFL_NET_CLUSTER_H
