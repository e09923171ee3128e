/**
 * @file
 * Span recorder for the end-to-end benchmark's traced runs.
 *
 * The benchmark wraps a span around each of its own calls into a
 * layer of the library (policies, sim, fl, ps, serve, nn, kernels,
 * store, data). Spans go into a buffer reserved up front, so recording
 * never allocates, and are written once at exit as Chrome Trace Event
 * JSON, which Perfetto and chrome://tracing open directly.
 *
 * A disabled recorder (capacity 0, the untimed-overhead mode the
 * end-to-end metrics are measured in) hands out inert scopes that read
 * no clock.
 */
#ifndef AUTOFL_BENCH_E2E_TRACE_H
#define AUTOFL_BENCH_E2E_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/** Nanoseconds on the steady clock. */
int64_t now_ns();

/** One recorded span. Names are string literals (never freed). */
struct Span
{
    const char *name = nullptr;
    int64_t start_ns = 0;
    int64_t dur_ns = -1;  ///< -1 while the span is still open.
    int32_t parent = -1;  ///< Index of the enclosing span on this thread.
    int32_t tid = 0;      ///< Small per-thread id (0 = first thread seen).
    int64_t id = -1;      ///< Round or request id; -1 when none.
    bool layer = false;   ///< A call into a library layer (vs. grouping).
    bool async = false;   ///< Spans threads (request due -> completion).
};

class Tracer
{
  public:
    /** @param capacity Spans reserved; 0 disables recording. */
    explicit Tracer(size_t capacity);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return !spans_.empty(); }

    /** RAII span on the calling thread; nests under its open spans. */
    class Scope
    {
      public:
        Scope() = default;
        Scope(Tracer *t, const char *name, bool layer, int64_t id);
        ~Scope() { end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close the span now (idempotent). */
        void end();

      private:
        Tracer *t_ = nullptr;
        int32_t index_ = -1;
        int32_t prev_ = -1;
    };

    /** A span around a call into a library layer. */
    Scope
    layer(const char *name, int64_t id = -1)
    {
        return enabled() ? Scope(this, name, true, id) : Scope();
    }

    /** A grouping span (a round, a phase) that attributes no time. */
    Scope
    group(const char *name, int64_t id = -1)
    {
        return enabled() ? Scope(this, name, false, id) : Scope();
    }

    /**
     * Record a span whose end is known only later (a request from its
     * due time to its reply, a pipelined round from submit to result).
     */
    void record_async(const char *name, int64_t start_ns, int64_t end_ns,
                      int64_t id);

    size_t recorded() const;
    size_t dropped() const { return dropped_.load(); }

    /**
     * Share of the traced wall time of @p tid covered by its outermost
     * layer spans: the stages must add up to the wall time they claim
     * to explain.
     */
    double coverage(int32_t tid = 0) const;

    /**
     * Write the Chrome Trace Event JSON file. @p meta lands in
     * "otherData" as string pairs. False when the file cannot be
     * written.
     */
    bool write_chrome_json(
        const std::string &path,
        const std::vector<std::pair<std::string, std::string>> &meta) const;

  private:
    int32_t claim();

    std::vector<Span> spans_;
    std::atomic<size_t> next_{0};
    std::atomic<size_t> dropped_{0};
};

/**
 * Measured cost of recording one span (begin + end), for the
 * trace.overhead_frac estimate: spans recorded x this cost / wall.
 */
double span_cost_ns();

} // namespace e2e

#endif // AUTOFL_BENCH_E2E_TRACE_H
