/**
 * @file
 * RequestQueue: the SLO-aware waiting room of the serving plane.
 *
 * The queue orders work by scheduling class and deadline: strict
 * priority across classes with a starvation bound (a class passed over
 * starvation_limit times wins the next pick regardless), earliest
 * deadline first within a class, FIFO (admission sequence) at equal
 * deadlines. Deadline-less requests (deadline_us == 0) sort after every
 * deadlined peer of their class.
 *
 * Admission is bounded: once `depth` requests wait, the shed policy
 * decides whether the newcomer or the oldest waiter is completed with a
 * typed ReplyStatus::Shed. Requests whose deadline has already passed
 * at push — or provably cannot be met given the model's observed batch
 * service time at pop — are handed back for a typed
 * ReplyStatus::DeadlineExceeded *without ever running*: overload and
 * hopeless deadlines degrade into fast typed rejections, never into
 * wasted inference or an unbounded backlog.
 *
 * Unlike its pre-registry ancestor this class is NOT thread-safe: it is
 * a pure scheduling structure. The multi-model DynamicBatcher owns one
 * mutex + condition variable across all of its per-model queues (a
 * dispatcher must pick a *model* and a *batch* under one lock), so the
 * queue itself stays lock-free and unit-testable synchronously.
 */
#ifndef AUTOFL_SERVE_REQUEST_QUEUE_H
#define AUTOFL_SERVE_REQUEST_QUEUE_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <vector>

#include "serve/serve_config.h"
#include "tensor/tensor.h"

namespace autofl {

/** How one submitted request ended. */
enum class ReplyStatus {
    Ok,       ///< Served: logits (and classes, when asked) are filled.
    Shed,     ///< Rejected by admission control under overload.
    DeadlineExceeded,  ///< Deadline passed/infeasible; never executed.
    NoModel,  ///< No model version published yet at dispatch time.
    BadRequest,  ///< Input shape does not fit the served model.
    Shutdown, ///< The service stopped before the request was served.
};

/** Display name of a reply status. */
const char *reply_status_name(ReplyStatus s);

/** Microseconds on the serving plane's steady clock (deadline base). */
uint64_t serve_now_us();

/** Completion of one submitted inference request. */
struct InferenceReply
{
    ReplyStatus status = ReplyStatus::Shutdown;
    Tensor logits;             ///< {samples, classes} when status == Ok.
    std::vector<int> classes;  ///< Argmax per sample, when requested.
    uint64_t epoch = 0;        ///< Snapshot version that answered.
    int batch_rows = 0;  ///< Samples in the coalesced batch served in.
    /** When the batcher completed the request (sheds stamp too), so an
     *  open-loop load generator can measure completion latency without
     *  polling the future. */
    std::chrono::steady_clock::time_point completed_at;
    bool ok() const { return status == ReplyStatus::Ok; }
};

/** One queued unit of work: model-ready input rows plus its promise. */
struct InferenceRequest
{
    Tensor rows;      ///< Model-ready input (layout per Dataset::batch_x).
    int samples = 1;  ///< Sample count along the workload's batch axis.
    bool want_classes = false;  ///< Also argmax the logits per sample.
    uint64_t deadline_us = 0;   ///< Absolute serve_now_us() deadline; 0 = none.
    Priority priority = Priority::Normal;  ///< Scheduling class.
    uint64_t seq = 0;  ///< Admission order, assigned by push (FIFO tie-break).
    std::promise<InferenceReply> promise;
};

/** Serving-plane counters (monotone; snapshot via DynamicBatcher). */
struct ServeStats
{
    uint64_t submitted = 0;  ///< submit() calls observed.
    uint64_t admitted = 0;   ///< Requests that entered the queue.
    uint64_t shed = 0;       ///< Typed rejections (either shed policy).
    uint64_t deadline_shed = 0;  ///< DeadlineExceeded (expired/infeasible).
    uint64_t completed = 0;  ///< Requests answered with Ok.
    uint64_t batches = 0;    ///< Coalesced engine batches dispatched.
    uint64_t batched_rows = 0;  ///< Total rows across those batches.

    /** Mean rows per dispatched batch (the coalescing win). */
    double
    mean_batch_rows() const
    {
        return batches ? static_cast<double>(batched_rows) /
                static_cast<double>(batches)
                       : 0.0;
    }
};

/**
 * Bounded priority/EDF queue of inference requests. NOT thread-safe —
 * the owning batcher serializes access (see file comment).
 */
class RequestQueue
{
  public:
    /**
     * @param depth Admission bound (>= 1).
     * @param policy What to do with new work once depth requests wait.
     * @param starvation_limit Picks a class may be passed over (>= 1).
     */
    RequestQueue(int depth, ShedPolicy policy, int starvation_limit);

    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;
    RequestQueue(RequestQueue &&) = default;

    /** Outcome of a push attempt. */
    enum class Push {
        Admitted,  ///< @p req entered the queue (possibly evicting).
        Shed,      ///< Queue full under RejectNew: @p req stays with the
                   ///< caller, who completes its promise as Shed.
        Expired,   ///< deadline_us <= now at arrival: @p req stays with
                   ///< the caller, who completes it as DeadlineExceeded.
    };

    /**
     * Try to enqueue @p req; consumes it only when admitted (stamping
     * req.seq). Expired-on-arrival requests are refused before
     * admission control runs — they could never be served in time, so
     * they must not evict viable work. Under DropOldest a full queue
     * admits @p req by evicting the earliest-admitted waiter into
     * @p evicted (set @p has_evicted) for the caller to complete as
     * Shed outside the owner's lock.
     */
    Push push(InferenceRequest &req, uint64_t now_us,
              InferenceRequest &evicted, bool &has_evicted);

    /**
     * Build the next batch: repeatedly pick the scheduling-next request
     * (starvation-bounded strict priority, EDF within class, FIFO at
     * equal deadlines) until @p max_rows samples are gathered or the
     * queue empties. A picked request whose deadline cannot be met —
     * deadline_us != 0 and deadline_us < now_us + estimate_us, where
     * the estimate is the model's observed batch infer() time — goes to
     * @p infeasible instead of @p out (shed before executing, counted
     * by the caller as DeadlineExceeded).
     * @return Rows gathered into @p out.
     */
    int pop_batch(std::vector<InferenceRequest> &out,
                  std::vector<InferenceRequest> &infeasible, int max_rows,
                  uint64_t now_us, uint64_t estimate_us);

    /** Remove every queued request (owner completes them as Shutdown). */
    std::vector<InferenceRequest> drain();

    /** Requests currently waiting. */
    size_t
    size() const
    {
        size_t n = 0;
        for (const auto &c : classes_)
            n += c.size();
        return n;
    }

    bool empty() const { return size() == 0; }

    /** Total samples currently waiting (for coalescing decisions). */
    int
    queued_rows() const
    {
        int n = 0;
        for (const auto &c : classes_)
            for (const auto &e : c)
                n += e.samples;
        return n;
    }

  private:
    /** Class index of the scheduling-next request; -1 when empty. */
    int pick_class() const;

    const size_t depth_;
    const ShedPolicy policy_;
    const int starvation_limit_;

    /** Waiting requests per class, in admission order. */
    std::deque<InferenceRequest> classes_[kPriorityClasses];
    /** Consecutive picks each non-empty class was passed over. */
    int passed_over_[kPriorityClasses] = {0, 0, 0};
    uint64_t next_seq_ = 1;
};

} // namespace autofl

#endif // AUTOFL_SERVE_REQUEST_QUEUE_H
