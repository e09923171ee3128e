#include "load.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>

#include "util/stats.h"

namespace e2e {

namespace {

constexpr int kTraceEvery = 64;  ///< Sampled request spans per phase.

/**
 * Wait until @p t_ns: sleep while far away, spin the last stretch, so
 * sub-100 µs send gaps stay on schedule without a busy core at low
 * rates.
 */
void
wait_until_ns(int64_t t_ns)
{
    constexpr int64_t kSpinNs = 100'000;
    const int64_t ahead = t_ns - now_ns();
    if (ahead > kSpinNs)
        std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
    while (now_ns() < t_ns) {
    }
}

int64_t
to_ns(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

} // namespace

double
median(std::vector<double> v)
{
    return autofl::percentile(std::move(v), 50.0);
}

OpenLoopStats
open_loop(const SubmitFn &submit, const std::vector<autofl::Tensor> &rows,
          double rate_qps, double seconds, uint64_t deadline_us,
          Tracer &tracer, const std::atomic<bool> *stop)
{
    struct Pending
    {
        int64_t due_ns = 0;
        uint64_t deadline_us = 0;
        std::future<autofl::InferenceReply> reply;
    };
    OpenLoopStats out;
    const double period_ns = 1e9 / rate_qps;
    const auto limit = static_cast<uint64_t>(rate_qps * seconds);
    // Reserved up front: growing the records mid-phase would copy them
    // on the generator's clock and make peak RSS depend on timing.
    for (auto *v : {&out.latency_ms, &out.latency_due_s, &out.send_due_s,
                    &out.late_us, &out.submit_us})
        v->reserve(limit);
    out.batch_rows.reserve(limit);
    const int64_t t0 = now_ns() + 1'000'000;
    std::deque<Pending> pending;  // Sent, reply not yet consumed.
    uint64_t consumed = 0;
    auto consume_front = [&] {
        Pending &p = pending.front();
        const autofl::InferenceReply r = p.reply.get();
        const int64_t completed = to_ns(r.completed_at);
        if (tracer.enabled() && consumed % kTraceEvery == 0)
            tracer.record_async("serve.request", p.due_ns, completed,
                                static_cast<int64_t>(consumed));
        ++consumed;
        if (!r.ok()) {
            ++out.not_ok;
        } else if (p.deadline_us != 0 &&
                   static_cast<uint64_t>(completed / 1000) > p.deadline_us) {
            ++out.past_deadline;
        } else {
            out.latency_ms.push_back(
                static_cast<double>(completed - p.due_ns) / 1e6);
            out.latency_due_s.push_back(static_cast<double>(p.due_ns - t0) /
                                        1e9);
            out.batch_rows.push_back(r.batch_rows);
        }
        pending.pop_front();
    };
    auto ready = [](const Pending &p) {
        return p.reply.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready;
    };

    for (uint64_t i = 0; i < limit; ++i) {
        if (stop && stop->load(std::memory_order_acquire))
            break;
        const int64_t due =
            t0 + static_cast<int64_t>(static_cast<double>(i) * period_ns);
        wait_until_ns(due);
        autofl::SubmitOptions opts;
        if (deadline_us > 0)
            opts.deadline_us = static_cast<uint64_t>(due / 1000) + deadline_us;
        const auto &row = rows[i % rows.size()];
        const int64_t sent = now_ns();
        std::future<autofl::InferenceReply> reply;
        if (tracer.enabled() && i % kTraceEvery == 0) {
            auto span = tracer.layer("serve.submit", static_cast<int64_t>(i));
            reply = submit(row, opts);
        } else {
            reply = submit(row, opts);
        }
        const int64_t done = now_ns();
        out.send_due_s.push_back(static_cast<double>(due - t0) / 1e9);
        out.late_us.push_back(static_cast<double>(sent - due) / 1e3);
        out.submit_us.push_back(static_cast<double>(done - sent) / 1e3);
        pending.push_back({due, opts.deadline_us, std::move(reply)});
        ++out.sent;
        out.elapsed_s = static_cast<double>(due - t0) / 1e9 + 1.0 / rate_qps;
        // Consume finished replies as we go so memory holds only the
        // requests in flight, not the whole phase.
        while (!pending.empty() && ready(pending.front()))
            consume_front();
    }
    while (!pending.empty())
        consume_front();
    return out;
}

ClosedLoopStats
closed_loop(const SubmitFn &submit, const std::vector<autofl::Tensor> &rows,
            int inflight, double warmup_s, double seconds, double window_s)
{
    ClosedLoopStats out;
    std::deque<std::future<autofl::InferenceReply>> queue;
    const int windows = std::max(1, static_cast<int>(seconds / window_s));
    std::vector<uint64_t> per_window(static_cast<size_t>(windows), 0);
    size_t next_row = 0;
    auto send = [&] {
        queue.push_back(submit(rows[next_row++ % rows.size()], {}));
        ++out.sent;
    };
    for (int i = 0; i < inflight; ++i)
        send();
    const int64_t t0 = now_ns() + static_cast<int64_t>(warmup_s * 1e9);
    const auto window_ns = static_cast<int64_t>(window_s * 1e9);
    const int64_t end = t0 + window_ns * windows;
    while (true) {
        const autofl::InferenceReply r = queue.front().get();
        queue.pop_front();
        const int64_t t = to_ns(r.completed_at);
        if (!r.ok())
            ++out.not_ok;
        else if (t >= t0 && t < end)
            ++per_window[static_cast<size_t>((t - t0) / window_ns)];
        if (now_ns() >= end)
            break;
        send();
    }
    while (!queue.empty()) {  // Drain: count, but outside the windows.
        if (!queue.front().get().ok())
            ++out.not_ok;
        queue.pop_front();
    }
    for (uint64_t n : per_window)
        out.window_qps.push_back(static_cast<double>(n) * 1e9 /
                                 static_cast<double>(window_ns));
    return out;
}

std::vector<double>
window_percentiles(const std::vector<double> &values,
                   const std::vector<double> &at_s, double from_s,
                   double window_s, double pct)
{
    std::vector<std::vector<double>> buckets;
    for (size_t i = 0; i < values.size(); ++i) {
        if (at_s[i] < from_s)
            continue;
        const auto w = static_cast<size_t>((at_s[i] - from_s) / window_s);
        if (w >= buckets.size())
            buckets.resize(w + 1);
        buckets[w].push_back(values[i]);
    }
    std::vector<double> out;
    for (auto &b : buckets)
        if (!b.empty())
            out.push_back(autofl::percentile(std::move(b), pct));
    return out;
}

} // namespace e2e
