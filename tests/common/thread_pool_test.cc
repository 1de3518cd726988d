/**
 * @file
 * Tests for the fork/join worker pool behind the parallel cluster
 * engine: the barrier contract (every task of an epoch completes
 * before ParallelFor returns, and epochs never overlap), exception
 * propagation from workers, pool reuse across many epochs, the
 * degenerate zero-task / one-task / one-thread paths, and the
 * per-thread profile. This file is part of the TSan CI net (`common.` filter).
 */
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pod {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4, 7}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(97);
        for (auto& h : hits) h.store(0);
        pool.ParallelFor(97, [&](int i) {
            hits[static_cast<size_t>(i)].fetch_add(1);
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPoolTest, BarrierCompletesEpochBeforeReturning)
{
    // The determinism-critical property (docs/DESIGN.md S8): when
    // ParallelFor returns, every task has fully executed and its
    // writes are visible to the caller — so a later epoch can never
    // observe or race a predecessor's in-flight task.
    ThreadPool pool(4);
    std::vector<int> values(64, 0);  // plain ints: visibility is the
                                     // barrier's job, not atomics'
    for (int epoch = 1; epoch <= 8; ++epoch) {
        pool.ParallelFor(64, [&, epoch](int i) {
            // Each task sees the *previous* epoch fully applied.
            EXPECT_EQ(values[static_cast<size_t>(i)], epoch - 1);
            values[static_cast<size_t>(i)] = epoch;
        });
        long sum = std::accumulate(values.begin(), values.end(), 0l);
        EXPECT_EQ(sum, 64l * epoch);
    }
}

TEST(ThreadPoolTest, TaskOrderWithinOneThreadIsIndexOrder)
{
    // With a single executing thread the claim order is the index
    // order — the inline degenerate path the serial engines rely on.
    ThreadPool pool(1);
    std::vector<int> order;
    pool.ParallelFor(16, [&](int i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, PropagatesWorkerExceptionAndStaysUsable)
{
    ThreadPool pool(3);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        pool.ParallelFor(32,
                         [&](int i) {
                             if (i == 7) {
                                 throw std::runtime_error("task 7");
                             }
                             completed.fetch_add(1);
                         }),
        std::runtime_error);
    // The failing epoch still ran its other tasks to the barrier...
    EXPECT_EQ(completed.load(), 31);
    // ...and the pool is reusable afterwards.
    std::atomic<int> after{0};
    pool.ParallelFor(8, [&](int) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPoolTest, PropagatesExceptionFromInlinePath)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.ParallelFor(
                     4, [](int) { throw std::logic_error("inline"); }),
                 std::logic_error);
}

TEST(ThreadPoolTest, ReuseAcrossManyEpochsIsDeterministic)
{
    // A simulation issues hundreds of thousands of barriers on one
    // pool; accumulate a per-slot sum over many epochs and check the
    // closed form — any lost wakeup, double-claim or skipped index
    // breaks it.
    ThreadPool pool(4);
    constexpr int kSlots = 33;
    constexpr int kEpochs = 500;
    std::vector<long> sums(kSlots, 0);
    for (int e = 0; e < kEpochs; ++e) {
        pool.ParallelFor(kSlots, [&](int i) {
            sums[static_cast<size_t>(i)] += i + 1;
        });
    }
    for (int i = 0; i < kSlots; ++i) {
        EXPECT_EQ(sums[static_cast<size_t>(i)],
                  static_cast<long>(kEpochs) * (i + 1));
    }
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.ParallelFor(0, [&](int) { ran = true; });
    EXPECT_FALSE(ran);
    pool.ParallelFor(-3, [&](int) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleTaskRunsInlineOnCaller)
{
    ThreadPool pool(4);
    std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.ParallelFor(1, [&](int) { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, MoreThreadsThanTasks)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(3, [&](int i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ResolveThreadsClampsToHardware)
{
    EXPECT_EQ(ThreadPool::ResolveThreads(3), 3);
    EXPECT_GE(ThreadPool::ResolveThreads(0), 1);
    EXPECT_GE(ThreadPool::ResolveThreads(-1), 1);
}

TEST(ThreadPoolTest, RejectsNonPositiveThreadCount)
{
    EXPECT_DEATH(ThreadPool(0), "at least one thread");
}

TEST(ThreadPoolTest, ProfilingCountsTasksAndBusyTime)
{
    ThreadPool pool(4);
    pool.EnableProfiling(true);
    std::atomic<long> total{0};
    pool.ParallelFor(64, [&](int i) { total.fetch_add(i); });
    pool.ParallelFor(64, [&](int i) { total.fetch_add(i); });

    const auto& profile = pool.Profile();
    ASSERT_EQ(profile.size(), 4u);
    long tasks = 0;
    for (const auto& stat : profile) {
        tasks += stat.tasks;
        EXPECT_GE(stat.busy, 0.0);
        EXPECT_GE(stat.barrier_wait, 0.0);
    }
    EXPECT_EQ(tasks, 128);

    pool.ResetProfile();
    for (const auto& stat : pool.Profile()) {
        EXPECT_EQ(stat.tasks, 0);
        EXPECT_DOUBLE_EQ(stat.busy, 0.0);
        EXPECT_DOUBLE_EQ(stat.barrier_wait, 0.0);
    }
}

TEST(ThreadPoolTest, ProfilingAttributesBarrierWaitToFastThreads)
{
    // One deliberately slow task: the other executing threads finish
    // their (empty) share early and must be charged barrier-wait time
    // roughly matching the straggler — the imbalance the cluster's
    // longest-first advance dispatch is measured against.
    ThreadPool pool(2);
    pool.EnableProfiling(true);
    pool.ParallelFor(2, [&](int i) {
        if (i == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    const auto& profile = pool.Profile();
    ASSERT_EQ(profile.size(), 2u);
    double total_busy = 0.0;
    double total_wait = 0.0;
    for (const auto& stat : profile) {
        total_busy += stat.busy;
        total_wait += stat.barrier_wait;
    }
    // The straggler contributes >= 20 ms busy; the other thread waits
    // for it (timing slop keeps the bound loose).
    EXPECT_GE(total_busy, 0.015);
    EXPECT_GE(total_wait, 0.010);
}

TEST(ThreadPoolTest, ProfilingOffRecordsNothing)
{
    ThreadPool pool(2);
    pool.ParallelFor(8, [](int) {});
    for (const auto& stat : pool.Profile()) {
        EXPECT_EQ(stat.tasks, 0);
        EXPECT_DOUBLE_EQ(stat.busy, 0.0);
        EXPECT_DOUBLE_EQ(stat.barrier_wait, 0.0);
    }
}

TEST(ThreadPoolTest, ProfilingInlinePathChargesCaller)
{
    ThreadPool pool(1);
    pool.EnableProfiling(true);
    pool.ParallelFor(5, [](int) {});
    const auto& profile = pool.Profile();
    ASSERT_EQ(profile.size(), 1u);
    EXPECT_EQ(profile[0].tasks, 5);
    EXPECT_GE(profile[0].busy, 0.0);
}

TEST(ThreadPoolTest, ProfileSnapshotIsImmutableAcrossLaterEpochs)
{
    // Profile() returns a copy taken under the pool mutex: a snapshot
    // held across later rounds must stay frozen (a by-reference
    // accessor would be a live view that the next epoch's worker
    // folds mutate under the reader).
    ThreadPool pool(4);
    pool.EnableProfiling(true);
    pool.ParallelFor(8, [](int) {});
    const std::vector<telemetry::ThreadStat> snapshot = pool.Profile();
    long snap_tasks = 0;
    for (const auto& stat : snapshot) snap_tasks += stat.tasks;
    EXPECT_EQ(snap_tasks, 8);

    for (int e = 0; e < 50; ++e) pool.ParallelFor(16, [](int) {});
    long snap_tasks_after = 0;
    for (const auto& stat : snapshot) snap_tasks_after += stat.tasks;
    EXPECT_EQ(snap_tasks_after, 8);

    long live_tasks = 0;
    for (const auto& stat : pool.Profile()) live_tasks += stat.tasks;
    EXPECT_EQ(live_tasks, 8 + 50 * 16);
}

}  // namespace
}  // namespace pod
