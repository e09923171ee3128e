#include "serve/request_queue.h"

#include <algorithm>
#include <utility>

namespace autofl {

const char *
reply_status_name(ReplyStatus s)
{
    switch (s) {
      case ReplyStatus::Ok:
        return "Ok";
      case ReplyStatus::Shed:
        return "Shed";
      case ReplyStatus::DeadlineExceeded:
        return "DeadlineExceeded";
      case ReplyStatus::NoModel:
        return "NoModel";
      case ReplyStatus::BadRequest:
        return "BadRequest";
      case ReplyStatus::Shutdown:
        return "Shutdown";
    }
    return "?";
}

uint64_t
serve_now_us()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

RequestQueue::RequestQueue(int depth, ShedPolicy policy,
                           int starvation_limit)
    : depth_(static_cast<size_t>(std::max(1, depth))), policy_(policy),
      starvation_limit_(std::max(1, starvation_limit))
{
}

RequestQueue::Push
RequestQueue::push(InferenceRequest &req, uint64_t now_us,
                   InferenceRequest &evicted, bool &has_evicted)
{
    has_evicted = false;
    // Expired-on-arrival is checked before admission control: a dead
    // request must neither occupy a queue slot nor evict viable work.
    if (req.deadline_us != 0 && req.deadline_us <= now_us)
        return Push::Expired;
    if (size() >= depth_) {
        if (policy_ == ShedPolicy::RejectNew)
            return Push::Shed;
        // DropOldest: evict the earliest-admitted waiter across all
        // classes — the request that has already burned the most of its
        // latency budget — handing it back for the caller to complete
        // as Shed outside the owner's lock.
        int victim = -1;
        uint64_t oldest = 0;
        for (int c = 0; c < kPriorityClasses; ++c) {
            if (classes_[c].empty())
                continue;
            const uint64_t s = classes_[c].front().seq;
            if (victim < 0 || s < oldest) {
                victim = c;
                oldest = s;
            }
        }
        evicted = std::move(classes_[victim].front());
        classes_[victim].pop_front();
        has_evicted = true;
    }
    req.seq = next_seq_++;
    classes_[static_cast<int>(req.priority)].push_back(std::move(req));
    return Push::Admitted;
}

int
RequestQueue::pick_class() const
{
    // A class passed over starvation_limit_ times outranks everything
    // above it; among starved classes the lowest-priority (most
    // starved-prone) wins. Otherwise strict priority.
    for (int c = kPriorityClasses - 1; c >= 0; --c)
        if (!classes_[c].empty() && passed_over_[c] >= starvation_limit_)
            return c;
    for (int c = 0; c < kPriorityClasses; ++c)
        if (!classes_[c].empty())
            return c;
    return -1;
}

int
RequestQueue::pop_batch(std::vector<InferenceRequest> &out,
                        std::vector<InferenceRequest> &infeasible,
                        int max_rows, uint64_t now_us, uint64_t estimate_us)
{
    const int want = std::max(1, max_rows);
    int rows = 0;
    while (rows < want) {
        const int c = pick_class();
        if (c < 0)
            break;

        // EDF within the class: earliest non-zero deadline wins;
        // deadline-less requests sort after every deadlined peer. Ties
        // fall to admission order (seq) — the scan keeps the first of
        // equals, and seq grows with admission.
        auto &q = classes_[c];
        size_t best = 0;
        for (size_t i = 1; i < q.size(); ++i) {
            const uint64_t di = q[i].deadline_us == 0
                ? UINT64_MAX
                : q[i].deadline_us;
            const uint64_t db = q[best].deadline_us == 0
                ? UINT64_MAX
                : q[best].deadline_us;
            if (di < db || (di == db && q[i].seq < q[best].seq))
                best = i;
        }
        InferenceRequest req = std::move(q[best]);
        q.erase(q.begin() + static_cast<ptrdiff_t>(best));

        // Starvation accounting per pick: every other class left
        // waiting was passed over once more; the picked class resets.
        for (int o = 0; o < kPriorityClasses; ++o)
            passed_over_[o] = (o == c || classes_[o].empty())
                ? 0
                : passed_over_[o] + 1;

        // Feasibility shed: a request that cannot finish before its
        // deadline — given the model's observed batch infer() time —
        // is never executed. It is removed here (not left queued) so a
        // hopeless request cannot occupy its class's EDF head forever.
        if (req.deadline_us != 0 &&
            req.deadline_us < now_us + estimate_us) {
            infeasible.push_back(std::move(req));
            continue;
        }
        rows += req.samples;
        out.push_back(std::move(req));
    }
    return rows;
}

std::vector<InferenceRequest>
RequestQueue::drain()
{
    std::vector<InferenceRequest> out;
    out.reserve(size());
    for (auto &c : classes_) {
        while (!c.empty()) {
            out.push_back(std::move(c.front()));
            c.pop_front();
        }
    }
    return out;
}

} // namespace autofl
