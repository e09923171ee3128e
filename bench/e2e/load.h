/**
 * @file
 * Serving load for the end-to-end benchmark: one open-loop generator
 * (requests sent on a fixed schedule whatever the replies do, timed
 * from when each was due) and one closed-loop client (a fixed number
 * of requests kept in flight). Both run on the calling thread, so the
 * whole load comes from at most one generator thread.
 */
#ifndef AUTOFL_BENCH_E2E_LOAD_H
#define AUTOFL_BENCH_E2E_LOAD_H

#include <atomic>
#include <functional>
#include <future>
#include <vector>

#include "serve/request_queue.h"
#include "trace.h"

namespace e2e {

/** Submission entry point of the serving plane under test. */
using SubmitFn = std::function<std::future<autofl::InferenceReply>(
    autofl::Tensor, autofl::SubmitOptions)>;

/** Per-request record of an open-loop phase. Times are seconds from
 *  the first due time. */
struct OpenLoopStats
{
    uint64_t sent = 0;
    uint64_t not_ok = 0;         ///< Replies with a status other than Ok.
    uint64_t past_deadline = 0;  ///< Ok, but after the deadline.
    double elapsed_s = 0.0;      ///< Span of the send schedule.
    /// Ok replies within the deadline, due -> completion, in send order.
    std::vector<double> latency_ms;
    std::vector<double> latency_due_s;  ///< Due time of each latency sample.
    std::vector<int> batch_rows;        ///< Batch each Ok reply rode in.
    std::vector<double> send_due_s;     ///< Due time of every request.
    std::vector<double> late_us;        ///< Per request: send - due.
    std::vector<double> submit_us;      ///< Per request: time in submit().
};

/**
 * Send request i at t0 + i / rate_qps, cycling through @p rows, until
 * @p seconds pass or @p stop turns true. Each request carries the
 * absolute deadline due + @p deadline_us. Every 64th request is
 * recorded as a span in @p tracer.
 */
OpenLoopStats open_loop(const SubmitFn &submit,
                        const std::vector<autofl::Tensor> &rows,
                        double rate_qps, double seconds,
                        uint64_t deadline_us, Tracer &tracer,
                        const std::atomic<bool> *stop = nullptr);

/** Result of a closed-loop phase. */
struct ClosedLoopStats
{
    uint64_t sent = 0;
    uint64_t not_ok = 0;  ///< Replies with a status other than Ok.
    std::vector<double> window_qps;  ///< Ok replies per second per window.
};

/**
 * Keep @p inflight requests outstanding: wait for the oldest, send a
 * new one. After @p warmup_s, count Ok replies in windows of
 * @p window_s for @p seconds.
 */
ClosedLoopStats closed_loop(const SubmitFn &submit,
                            const std::vector<autofl::Tensor> &rows,
                            int inflight, double warmup_s, double seconds,
                            double window_s);

/**
 * The @p pct percentile of each window of @p window_s, over the samples
 * taken (@p at_s) from @p from_s on. A stall of the host then disturbs
 * the windows it falls in instead of every statistic of the phase.
 */
std::vector<double> window_percentiles(const std::vector<double> &values,
                                       const std::vector<double> &at_s,
                                       double from_s, double window_s,
                                       double pct);

/** Median of a sample (0 when empty). */
double median(std::vector<double> v);

} // namespace e2e

#endif // AUTOFL_BENCH_E2E_LOAD_H
