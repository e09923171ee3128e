/**
 * @file
 * SLO-scheduling tests for the serving plane: the RequestQueue's
 * deadline/priority semantics exercised synchronously (expired-on-
 * arrival refusal, EDF-within-class with FIFO tie-break, the starvation
 * bound, infeasibility shedding at pop, DropOldest eviction order), and
 * the concurrent guarantees through DynamicBatcher / ServingGateway
 * (expired requests complete DeadlineExceeded without ever executing,
 * low-priority progress under sustained high-priority load, weighted
 * slot sharing keeping an overloaded neighbor from starving an
 * entitled model). Runs under TSan in CI.
 */
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/dynamic_batcher.h"
#include "serve/model_service.h"
#include "serve/request_queue.h"
#include "serve/serving_gateway.h"
#include "test_util.h"

namespace autofl {
namespace {

using testing::random_weights;
using testing::small_test_set;

// ------------------------------------------------- queue unit tests --
// The queue is a pure scheduling structure (its owner serializes), so
// its contract is testable synchronously with a fake clock.

InferenceRequest
req(uint64_t deadline_us, Priority prio = Priority::Normal, int samples = 1)
{
    InferenceRequest r;
    r.samples = samples;
    r.deadline_us = deadline_us;
    r.priority = prio;
    return r;
}

/** Push expecting admission; fails the test on any other outcome. */
void
admit(RequestQueue &q, InferenceRequest r, uint64_t now)
{
    InferenceRequest evicted;
    bool has_evicted = false;
    ASSERT_EQ(q.push(r, now, evicted, has_evicted),
              RequestQueue::Push::Admitted);
    ASSERT_FALSE(has_evicted);
}

TEST(RequestQueueSlo, ExpiredOnArrivalIsRefusedBeforeAdmission)
{
    RequestQueue q(2, ShedPolicy::DropOldest, 8);
    const uint64_t now = 1000;
    admit(q, req(now + 50), now);
    admit(q, req(now + 60), now);  // Queue now full.

    // An expired newcomer is refused up front — and must NOT evict a
    // viable waiter under DropOldest (it could never be served anyway).
    InferenceRequest dead = req(now);  // deadline <= now.
    InferenceRequest evicted;
    bool has_evicted = false;
    EXPECT_EQ(q.push(dead, now, evicted, has_evicted),
              RequestQueue::Push::Expired);
    EXPECT_FALSE(has_evicted);
    EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueueSlo, EdfWithinClassFifoAtEqualDeadlines)
{
    RequestQueue q(16, ShedPolicy::RejectNew, 8);
    const uint64_t now = 1000;
    // Arrival order: 300, 100, 0 (none), 200, 200, 100.
    admit(q, req(now + 300), now);
    admit(q, req(now + 100, Priority::Normal, 2), now);  // First at 100.
    admit(q, req(0), now);  // Deadline-less sorts after every deadline.
    admit(q, req(now + 200, Priority::Normal, 3), now);  // First at 200.
    admit(q, req(now + 200, Priority::Normal, 4), now);  // Second at 200.
    admit(q, req(now + 100, Priority::Normal, 5), now);  // Second at 100.

    std::vector<InferenceRequest> out, infeasible;
    q.pop_batch(out, infeasible, 1000, now, 0);
    ASSERT_EQ(out.size(), 6u);
    // EDF order; FIFO (admission seq) breaks the 100/100 and 200/200
    // ties; the deadline-less request comes last.
    const std::vector<uint64_t> want_deadline = {
        now + 100, now + 100, now + 200, now + 200, now + 300, 0};
    const std::vector<int> want_samples = {2, 5, 3, 4, 1, 1};
    for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].deadline_us, want_deadline[i]) << i;
        EXPECT_EQ(out[i].samples, want_samples[i]) << i;
    }
}

TEST(RequestQueueSlo, StrictPriorityWithStarvationBound)
{
    // starvation_limit = 2: Low may be passed over twice, then wins.
    RequestQueue q(32, ShedPolicy::RejectNew, 2);
    const uint64_t now = 1000;
    for (int i = 0; i < 6; ++i)
        admit(q, req(now + 100 + static_cast<uint64_t>(i), Priority::High),
              now);
    admit(q, req(now + 1, Priority::Low), now);
    admit(q, req(now + 2, Priority::Low), now);

    std::vector<InferenceRequest> out, infeasible;
    std::vector<Priority> picks;
    while (!q.empty()) {
        out.clear();
        infeasible.clear();
        q.pop_batch(out, infeasible, 1, now, 0);
        ASSERT_EQ(out.size(), 1u);
        picks.push_back(out[0].priority);
    }
    // High, High, then the starved Low breaks through; repeat; the
    // tail is the remaining High requests.
    const std::vector<Priority> want = {
        Priority::High, Priority::High, Priority::Low,
        Priority::High, Priority::High, Priority::Low,
        Priority::High, Priority::High};
    EXPECT_EQ(picks, want);
}

TEST(RequestQueueSlo, InfeasibleDeadlinesShedAtPopNeverServed)
{
    RequestQueue q(16, ShedPolicy::RejectNew, 8);
    const uint64_t now = 1000;
    admit(q, req(now + 50), now);   // Infeasible under estimate 100.
    admit(q, req(now + 500), now);  // Feasible.
    admit(q, req(0), now);          // No deadline: always feasible.

    std::vector<InferenceRequest> out, infeasible;
    q.pop_batch(out, infeasible, 1000, now, /*estimate_us=*/100);
    ASSERT_EQ(infeasible.size(), 1u);
    EXPECT_EQ(infeasible[0].deadline_us, now + 50);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].deadline_us, now + 500);
    EXPECT_EQ(out[1].deadline_us, 0u);
}

TEST(RequestQueueSlo, DropOldestEvictsEarliestAdmittedAcrossClasses)
{
    RequestQueue q(2, ShedPolicy::DropOldest, 8);
    const uint64_t now = 1000;
    admit(q, req(now + 10, Priority::High, 7), now);  // Oldest admitted.
    admit(q, req(now + 20, Priority::Low, 8), now);

    InferenceRequest incoming = req(now + 30, Priority::Normal, 9);
    InferenceRequest evicted;
    bool has_evicted = false;
    ASSERT_EQ(q.push(incoming, now, evicted, has_evicted),
              RequestQueue::Push::Admitted);
    ASSERT_TRUE(has_evicted);
    // The globally earliest-admitted waiter goes, regardless of class.
    EXPECT_EQ(evicted.samples, 7);
    EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueueSlo, DrainReturnsEveryClass)
{
    RequestQueue q(16, ShedPolicy::RejectNew, 8);
    const uint64_t now = 1000;
    admit(q, req(now + 10, Priority::High), now);
    admit(q, req(now + 10, Priority::Normal), now);
    admit(q, req(now + 10, Priority::Low), now);
    const auto leftovers = q.drain();
    EXPECT_EQ(leftovers.size(), 3u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.queued_rows(), 0);
}

// -------------------------------------------- batcher-level (threads) --

TEST(BatcherSlo, ExpiredRequestCompletesDeadlineExceededNeverExecutes)
{
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 4);
    ServeConfig cfg;
    cfg.workers = 1;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 11));

    SubmitOptions dead;
    dead.deadline_us = ModelService::now_us() - 1;  // Already past.
    const InferenceReply r =
        ms.submit(test.batch_x({0}), true, dead).get();
    EXPECT_EQ(r.status, ReplyStatus::DeadlineExceeded);
    EXPECT_EQ(r.classes.size(), 0u);

    // ...while a generous deadline is served normally.
    SubmitOptions slack;
    slack.deadline_us = ModelService::now_us() + 10'000'000;
    EXPECT_TRUE(ms.submit(test.batch_x({1}), true, slack).get().ok());

    const ServeStats st = ms.serving_stats();
    EXPECT_EQ(st.submitted, 2u);
    EXPECT_EQ(st.deadline_shed, 1u);
    EXPECT_EQ(st.completed, 1u);
    // The expired request never reached the engine: exactly the served
    // row was batched.
    EXPECT_EQ(st.batched_rows, 1u);
}

TEST(BatcherSlo, LowPriorityProgressesUnderSustainedHighLoad)
{
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 8);
    ServeConfig cfg;
    cfg.workers = 1;          // One dispatcher: priorities truly compete.
    cfg.batch_size = 1;       // Every dispatch is one scheduling pick.
    cfg.batch_timeout_us = 0;
    cfg.queue_depth = 512;
    cfg.starvation_limit = 4;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 13));

    // A generator keeps high-priority work queued until every
    // low-priority request has completed: without the starvation bound
    // the low futures would never resolve.
    std::atomic<bool> low_done{false};
    std::thread flood([&] {
        SubmitOptions high;
        high.priority = Priority::High;
        std::vector<std::future<InferenceReply>> inflight;
        while (!low_done.load()) {
            inflight.push_back(ms.submit(test.batch_x({0}), false, high));
            if (inflight.size() > 64) {  // Bound memory; keep queue warm.
                for (auto &f : inflight)
                    f.wait();
                inflight.clear();
            }
        }
        for (auto &f : inflight)
            f.wait();
    });

    SubmitOptions low;
    low.priority = Priority::Low;
    std::vector<std::future<InferenceReply>> lows;
    for (int i = 0; i < 4; ++i)
        lows.push_back(ms.submit(test.batch_x({i}), false, low));
    int served = 0;
    for (auto &f : lows) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "low-priority request starved";
        served += f.get().ok() ? 1 : 0;
    }
    low_done.store(true);
    flood.join();
    ms.stop_serving();
    EXPECT_EQ(served, 4);
}

// ----------------------------------------- gateway isolation (threads) --

TEST(GatewaySlo, OverloadedNeighborCannotStarveEntitledModel)
{
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 8);
    ServeConfig base;
    base.workers = 2;  // Shared pool; each model's guarantee is 1.
    ServeConfig per_model = base;
    per_model.batch_size = 1;
    per_model.batch_timeout_us = 0;
    per_model.queue_depth = 512;

    ModelService a(w, per_model), b(w, per_model);
    a.publish(random_weights(w, 21));
    b.publish(random_weights(w, 22));

    ServingGateway gw(base);
    gw.add_service("a", a, &per_model);
    gw.add_service("b", b, &per_model);
    gw.start();

    // Flood B until A's requests are done: with weighted slot sharing A
    // keeps its guaranteed dispatcher, so its requests complete while
    // B's backlog persists.
    std::atomic<bool> a_done{false};
    std::atomic<int> b_submitted{0};
    std::thread flood([&] {
        std::vector<std::future<InferenceReply>> inflight;
        while (!a_done.load()) {
            inflight.push_back(gw.submit("b", test.batch_x({0})));
            b_submitted.fetch_add(1);
            if (inflight.size() > 64) {
                for (auto &f : inflight)
                    f.wait();
                inflight.clear();
            }
        }
        for (auto &f : inflight)
            f.wait();
    });
    // Let B build a real backlog before A's traffic arrives.
    while (b_submitted.load() < 32)
        std::this_thread::yield();

    std::vector<std::future<InferenceReply>> as;
    for (int i = 0; i < 8; ++i)
        as.push_back(gw.submit("a", test.batch_x({i}), true));
    int served = 0;
    for (auto &f : as) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "model A starved by overloaded neighbor";
        served += f.get().ok() ? 1 : 0;
    }
    a_done.store(true);
    flood.join();

    EXPECT_EQ(served, 8);
    const ServeStats sa = gw.stats("a");
    EXPECT_EQ(sa.completed, 8u);
    EXPECT_EQ(sa.shed, 0u);
    EXPECT_GT(gw.stats("b").completed, 0u);
    gw.stop_serving();
}

} // namespace
} // namespace autofl
