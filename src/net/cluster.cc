#include "cluster.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <set>

#include "kernels/kernels.h"

namespace autofl::net {

namespace {

/** A push's update: provenance from the message, @p weights as given. */
LocalUpdate
update_from(const Message &m, std::vector<float> weights)
{
    LocalUpdate u;
    u.device_id = m.ints[0];
    u.num_steps = m.ints[1];
    u.num_samples = m.ints[2];
    u.train_loss = m.doubles[0];
    u.train_acc = m.doubles[1];
    u.weights = std::move(weights);
    return u;
}

} // namespace

ClusterServer::ClusterServer(AsyncAggregator &agg, const ShardedStore &store,
                             const PsConfig &cfg)
    : cfg_(cfg), agg_(agg), store_(store),
      monitor_(
          po_, cfg.net.heartbeat_timeout_ms,
          [this](int node, int silent_ms) {
              evict_node(node, "heartbeat timeout", silent_ms);
          },
          [this] { expire_rounds(); })
{
    monitor_.start();
}

ClusterServer::~ClusterServer()
{
    shutdown();
}

int
ClusterServer::add_worker(std::unique_ptr<Transport> van)
{
    const int id = po_.add_worker("");
    auto peer = std::make_unique<Peer>();
    peer->id = id;
    peer->van = std::move(van);
    Peer *p = peer.get();
    peers_.push_back(std::move(peer));
    assert(static_cast<int>(peers_.size()) == id);
    monitor_.note_alive(id);  // The join itself is a sign of life.
    p->rx = std::thread([this, p] { rx_loop(p); });
    return id;
}

bool
ClusterServer::start_listening(std::string *err)
{
    const NetAddress addr = NetAddress::parse(cfg_.net.listen);
    if (!addr.socket_scheme()) {
        if (err)
            *err = "listen address '" + cfg_.net.listen +
                "' is not a socket scheme";
        return false;
    }
    listener_ = Listener::listen(addr, err);
    return listener_ != nullptr;
}

int
ClusterServer::accept_workers(int n, int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    int accepted = 0;
    while (accepted < n && listener_) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (left <= 0)
            break;
        auto van = listener_->accept(static_cast<int>(left));
        if (!van)
            continue;
        add_worker(std::move(van));
        ++accepted;
    }
    return accepted;
}

void
ClusterServer::rx_loop(Peer *peer)
{
    for (;;) {
        Message m;
        const RecvStatus rs = peer->van->recv(&m, -1);
        if (rs == RecvStatus::Ok) {
            monitor_.note_alive(peer->id);
            handle(peer, std::move(m));
            continue;
        }
        if (rs == RecvStatus::Timeout)
            continue;
        // Closed or Error: the node is gone. During shutdown that is
        // the expected teardown; otherwise it is a failure detected
        // faster than any heartbeat timeout.
        if (!shutting_down_ && po_.mark_dead(peer->id)) {
            const std::string why = rs == RecvStatus::Error ?
                "protocol error: " + peer->van->last_error() :
                "connection closed";
            evict_node(peer->id, why.c_str(), 0);
        }
        return;
    }
}

void
ClusterServer::handle(Peer *peer, Message &&m)
{
    switch (m.type) {
      case MsgType::Join: {
          Message ack;
          ack.type = MsgType::JoinAck;
          ack.from = Postoffice::kServerId;
          ack.seq = static_cast<uint64_t>(peer->id);
          peer->van->send(std::move(ack));
          return;
      }
      case MsgType::Heartbeat: {
          Message ack;
          ack.type = MsgType::HeartbeatAck;
          ack.from = Postoffice::kServerId;
          peer->van->send(std::move(ack));
          return;
      }
      case MsgType::PullReq: {
          // Every pull of the round answers from its pinned base, so
          // all of the round's jobs train on the same weights wherever
          // and whenever they run. A pull of a settled round comes from
          // an evicted job; it gets no answer.
          StoreSnapshot base;
          {
              std::lock_guard<std::mutex> lk(round_mu_);
              auto it = rounds_.find(m.round);
              if (it == rounds_.end())
                  return;
              base = it->second.base;
          }
          const std::vector<float> &full = *base.weights;
          Message resp;
          resp.type = MsgType::PullResp;
          resp.from = Postoffice::kServerId;
          resp.round = m.round;
          resp.seq = m.seq;
          resp.clock = base.epoch;
          if (m.ints.size() == 2) {
              // Ranged pull: shard interval [lo, hi) in store stripes.
              const int lo = m.ints[0], hi = m.ints[1];
              if (lo < 0 || hi <= lo || hi > store_.num_shards())
                  return;  // Malformed range; drop, peer will time out.
              const auto [begin, _lo_end] = Postoffice::shard_range(
                  lo, store_.dim(), store_.num_shards());
              const auto [_hi_begin, end] = Postoffice::shard_range(
                  hi - 1, store_.dim(), store_.num_shards());
              resp.ints = {static_cast<int32_t>(begin),
                           static_cast<int32_t>(end)};
              resp.floats.assign(full.begin() + static_cast<long>(begin),
                                 full.begin() + static_cast<long>(end));
          } else {
              resp.ints = {0, static_cast<int32_t>(store_.dim())};
              resp.floats = full;
          }
          peer->van->send(std::move(resp));
          return;
      }
      case MsgType::Push: {
          if (m.floats.size() != store_.dim() || m.ints.size() != 3 ||
              m.doubles.size() != 2) {
              std::fprintf(stderr,
                           "[net] worker %d push malformed "
                           "(%zu floats, dim %zu); dropping\n",
                           peer->id, m.floats.size(), store_.dim());
              return;
          }
          if (!claim(peer->id, m, nullptr))
              return;  // Late push of an evicted job.
          agg_.push(m.round, PsPush{update_from(m, std::move(m.floats)),
                                    m.seq});
          return;
      }
      case MsgType::PushDelta: {
          // Full validation before any commit: every malformed frame —
          // wrong section sizes, unknown codec, truncated scale table,
          // NaN scales, bad sparse indices — is a typed drop, never a
          // crash. Late deltas from evicted rounds fall out of the
          // acceptance check exactly like raw pushes.
          std::vector<float> delta;
          const WireStatus ws = decode_push_delta(m, store_.dim(), &delta);
          if (ws != WireStatus::Ok) {
              std::fprintf(stderr,
                           "[net] worker %d push-delta rejected (%s); "
                           "dropping\n",
                           peer->id, wire_status_name(ws));
              return;
          }
          StoreSnapshot base;
          if (!claim(peer->id, m, &base))
              return;  // Late delta of an evicted job.
          // Reconstruct the absolute weights the worker trained to:
          // the round's pull base plus the decoded delta — the same
          // floats the in-process runtime's decode-before-commit hands
          // its aggregator.
          std::vector<float> weights = *base.weights;
          kernels::vadd(weights.size(), delta.data(), weights.data());
          agg_.push(m.round, PsPush{update_from(m, std::move(weights)),
                                    m.seq});
          return;
      }
      case MsgType::BarrierAck: {
          po_.barrier_ack(peer->id, m.seq);
          std::lock_guard<std::mutex> lk(round_mu_);
          barrier_cv_.notify_all();
          return;
      }
      case MsgType::Bye: {
          po_.mark_left(peer->id);
          // A leave with jobs in flight still evicts them — the work
          // is gone either way; Left just records it was voluntary.
          evict_node(peer->id, "left", 0);
          return;
      }
      default:
          return;  // Worker-bound types are ignored on the server.
    }
}

bool
ClusterServer::send_to(int id, Message m)
{
    if (id < 1 || id > static_cast<int>(peers_.size()))
        return false;
    return peers_[static_cast<size_t>(id - 1)]->van->send(std::move(m));
}

bool
ClusterServer::claim(int node, const Message &m, StoreSnapshot *base)
{
    std::lock_guard<std::mutex> lk(round_mu_);
    auto r = rounds_.find(m.round);
    if (r == rounds_.end())
        return false;
    auto &owner = r->second.owner;
    auto job = owner.find(m.seq);
    if (job == owner.end() || job->second != node)
        return false;
    owner.erase(job);
    if (base)
        *base = r->second.base;
    if (owner.empty())
        rounds_.erase(r);  // Its base is no longer pulled.
    return true;
}

void
ClusterServer::evict_node(int id, const char *why, int silent_ms)
{
    std::vector<std::pair<uint64_t, uint64_t>> lost;  // (round, seq).
    {
        std::lock_guard<std::mutex> lk(round_mu_);
        for (auto r = rounds_.begin(); r != rounds_.end();) {
            auto &owner = r->second.owner;
            for (auto job = owner.begin(); job != owner.end();) {
                if (job->second != id) {
                    ++job;
                    continue;
                }
                lost.emplace_back(r->first, job->first);
                job = owner.erase(job);
            }
            r = owner.empty() ? rounds_.erase(r) : std::next(r);
        }
        // Account before the drops: the last one may retire a round,
        // and callers read dead_evictions() once the round is
        // delivered.
        dead_evictions_ += lost.size();
        barrier_cv_.notify_all();
    }
    for (const auto &[round, seq] : lost)
        agg_.drop(round, seq);
    std::fprintf(stderr,
                 "[net] worker %d gone (%s%s); evicting %zu in-flight "
                 "job%s as stale\n",
                 id, why,
                 silent_ms > 0 ?
                     (" after " + std::to_string(silent_ms) + " ms").c_str() :
                     "",
                 lost.size(), lost.size() == 1 ? "" : "s");
}

void
ClusterServer::launch(uint64_t round, const std::vector<PsRoundJob> &jobs,
                      const StoreSnapshot &base)
{
    const size_t n = jobs.size();
    const std::vector<int> ids = po_.alive_workers();
    if (ids.empty()) {
        std::fprintf(stderr,
                     "[net] round %llu: no alive workers; evicting all %zu "
                     "jobs\n",
                     static_cast<unsigned long long>(round), n);
        dead_evictions_ += n;
        for (uint64_t seq = 0; seq < n; ++seq)
            agg_.drop(round, seq);
        return;
    }
    std::map<int, std::vector<int32_t>> assign;  // node -> [dev, seq, ...].
    {
        std::lock_guard<std::mutex> lk(round_mu_);
        RoundState &st = rounds_[round];
        st.base = base;
        st.deadline = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(cfg_.net.round_timeout_ms);
        for (size_t i = 0; i < n; ++i) {
            const int w = ids[i % ids.size()];
            st.owner[i] = w;
            auto &list = assign[w];
            list.push_back(jobs[i].device_id);
            list.push_back(static_cast<int32_t>(i));
        }
    }
    for (auto &[w, list] : assign) {
        Message m;
        m.type = MsgType::RoundAssign;
        m.from = Postoffice::kServerId;
        m.round = round;
        m.ints = std::move(list);
        if (!send_to(w, std::move(m)))
            po_.mark_dead(w);
    }
    // A failed send, or a death since the membership read: evict.
    for (const auto &[w, _] : assign)
        if (!po_.is_alive(w))
            evict_node(w, "gone at launch", 0);
}

void
ClusterServer::expire_rounds()
{
    if (cfg_.net.round_timeout_ms <= 0)
        return;
    std::set<int> late;
    {
        std::lock_guard<std::mutex> lk(round_mu_);
        const auto now = std::chrono::steady_clock::now();
        for (const auto &[round, st] : rounds_)
            if (st.deadline <= now)
                for (const auto &[seq, w] : st.owner)
                    late.insert(w);
    }
    // Stragglers beyond tolerance: declare dead, evict.
    for (int w : late) {
        po_.mark_dead(w);
        evict_node(w, "round deadline", 0);
    }
}

bool
ClusterServer::barrier(int timeout_ms)
{
    const uint64_t id = po_.open_barrier();
    for (int w : po_.alive_workers()) {
        Message m;
        m.type = MsgType::Barrier;
        m.from = Postoffice::kServerId;
        m.seq = id;
        send_to(w, std::move(m));
    }
    std::unique_lock<std::mutex> lk(round_mu_);
    return barrier_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                                [&] { return po_.barrier_done(); });
}

uint64_t
ClusterServer::push_bytes_received() const
{
    uint64_t bytes = 0;
    for (const auto &p : peers_) {
        bytes += p->van->bytes_received(MsgType::Push) +
            p->van->bytes_received(MsgType::PushDelta);
    }
    return bytes;
}

void
ClusterServer::shutdown()
{
    if (shut_)
        return;
    shut_ = true;

    // Sync point first so workers drain their queues before the
    // Shutdown lands; a dead worker shrinks the quorum, and a timeout
    // just means we proceed to the hard stop.
    if (!peers_.empty())
        barrier(std::max(1000, cfg_.net.heartbeat_timeout_ms));

    shutting_down_ = true;
    for (auto &p : peers_) {
        Message m;
        m.type = MsgType::Shutdown;
        m.from = Postoffice::kServerId;
        p->van->send(std::move(m));
    }
    if (listener_)
        listener_->close();
    for (auto &p : peers_)
        p->van->close();
    for (auto &p : peers_)
        if (p->rx.joinable())
            p->rx.join();
    monitor_.stop();
}

} // namespace autofl::net
