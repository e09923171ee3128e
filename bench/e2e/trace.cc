#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace e2e {

namespace {

/** Small dense per-thread ids, in order of first use. */
int32_t
thread_tid()
{
    static std::atomic<int32_t> next{0};
    thread_local const int32_t tid = next.fetch_add(1);
    return tid;
}

/** Innermost open span of this thread (index into its tracer). */
thread_local int32_t tl_open = -1;

} // namespace

int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Tracer(size_t capacity) : spans_(capacity)
{
    thread_tid();  // The constructing (main) thread becomes tid 0.
}

int32_t
Tracer::claim()
{
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return -1;
    }
    return static_cast<int32_t>(i);
}

Tracer::Scope::Scope(Tracer *t, const char *name, bool layer, int64_t id)
    : t_(t), prev_(tl_open)
{
    index_ = t->claim();
    if (index_ < 0)
        return;
    Span &s = t->spans_[static_cast<size_t>(index_)];
    s.name = name;
    s.parent = prev_;
    s.tid = thread_tid();
    s.id = id;
    s.layer = layer;
    tl_open = index_;
    s.start_ns = now_ns();
}

void
Tracer::Scope::end()
{
    if (!t_ || index_ < 0)
        return;
    Span &s = t_->spans_[static_cast<size_t>(index_)];
    s.dur_ns = now_ns() - s.start_ns;
    tl_open = prev_;
    index_ = -1;
}

void
Tracer::record_async(const char *name, int64_t start_ns, int64_t end_ns,
                     int64_t id)
{
    if (!enabled())
        return;
    const int32_t i = claim();
    if (i < 0)
        return;
    Span &s = spans_[static_cast<size_t>(i)];
    s.name = name;
    s.start_ns = start_ns;
    s.dur_ns = std::max<int64_t>(0, end_ns - start_ns);
    s.tid = thread_tid();
    s.id = id;
    s.async = true;
}

size_t
Tracer::recorded() const
{
    return std::min(next_.load(), spans_.size());
}

double
Tracer::coverage(int32_t tid) const
{
    const size_t n = recorded();
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    int64_t covered = 0;
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        if (s.async || s.tid != tid || s.dur_ns < 0)
            continue;
        lo = std::min(lo, s.start_ns);
        hi = std::max(hi, s.start_ns + s.dur_ns);
        if (!s.layer)
            continue;
        bool outermost = true;
        for (int32_t p = s.parent; p >= 0;
             p = spans_[static_cast<size_t>(p)].parent) {
            if (spans_[static_cast<size_t>(p)].layer) {
                outermost = false;
                break;
            }
        }
        if (outermost)
            covered += s.dur_ns;
    }
    return hi > lo ? static_cast<double>(covered) /
            static_cast<double>(hi - lo)
                   : 0.0;
}

bool
Tracer::write_chrome_json(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const size_t n = recorded();
    int64_t t0 = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i < n; ++i)
        t0 = std::min(t0, spans_[i].start_ns);

    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {");
    for (size_t i = 0; i < meta.size(); ++i) {
        std::fprintf(f, "%s\"%s\": \"%s\"", i ? ", " : "",
                     meta[i].first.c_str(), meta[i].second.c_str());
    }
    std::fprintf(f, "},\n\"traceEvents\": [\n");
    bool first = true;
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        if (s.dur_ns < 0)
            continue;  // Never closed (cannot happen after a clean run).
        const double ts = static_cast<double>(s.start_ns - t0) / 1e3;
        const double dur = static_cast<double>(s.dur_ns) / 1e3;
        const char *cat = s.async ? "request" : s.layer ? "layer" : "group";
        if (s.async) {
            // Async begin/end pairs: overlapping requests get their own
            // rows instead of breaking the per-thread nesting.
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                         "\"b\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d, "
                         "\"id\": %lld},\n"
                         "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                         "\"e\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d, "
                         "\"id\": %lld}",
                         first ? "" : ",\n", s.name, cat, ts, s.tid,
                         static_cast<long long>(s.id), s.name, cat,
                         ts + dur, s.tid, static_cast<long long>(s.id));
        } else {
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                         "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                         "\"tid\": %d, \"args\": {\"id\": %lld, "
                         "\"parent\": %d}}",
                         first ? "" : ",\n", s.name, cat, ts, dur, s.tid,
                         static_cast<long long>(s.id), s.parent);
        }
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

double
span_cost_ns()
{
    constexpr int kSpans = 20000;
    Tracer probe(kSpans);
    const int64_t t0 = now_ns();
    for (int i = 0; i < kSpans; ++i)
        auto s = probe.layer("cost", i);
    return static_cast<double>(now_ns() - t0) / kSpans;
}

} // namespace e2e
