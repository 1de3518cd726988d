/**
 * @file
 * Implementation of the persistent fork/join pool.
 */
#include "common/thread_pool.h"

#include "common/logging.h"

namespace pod {

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads)
{
    POD_CHECK_ARG(num_threads >= 1,
                  "thread pool needs at least one thread");
    profile_.assign(static_cast<size_t>(num_threads),
                    telemetry::ThreadStat{});
    finish_time_.assign(static_cast<size_t>(num_threads), 0.0);
    workers_.reserve(static_cast<size_t>(num_threads - 1));
    for (int i = 0; i < num_threads - 1; ++i) {
        workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
}

int
ThreadPool::ResolveThreads(int requested)
{
    if (requested >= 1) return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

void
ThreadPool::EnableProfiling(bool on)
{
    // The mutex pairs this write with the workers' epoch-wait
    // acquisition; the contract (call between ParallelFor rounds from
    // the driving thread) rules out mid-epoch toggles.
    std::lock_guard<std::mutex> lock(mu_);
    profiling_ = on;
}

std::vector<telemetry::ThreadStat>
ThreadPool::Profile() const
{
    // Copy under mu_: a by-reference view handed out between epochs
    // would be mutated by the next epoch's worker folds while the
    // holder reads it. A locked snapshot makes any interleaving of
    // reads and rounds safe.
    std::lock_guard<std::mutex> lock(mu_);
    return profile_;
}

void
ThreadPool::ResetProfile()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& stat : profile_) stat = telemetry::ThreadStat{};
}

void
ThreadPool::RunTasks(int slot)
{
    // Dynamic index claiming in ascending order: a "task" here is
    // advancing one replica for a whole time window (coarse and
    // uneven), so a shared claim counter keeps every thread busy
    // while any index is unclaimed, and callers that list long tasks
    // first get longest-first list scheduling.
    const bool prof = profiling_;
    double busy = 0.0;
    long tasks = 0;
    int i;
    while ((i = next_.fetch_add(1, std::memory_order_relaxed)) <
           count_) {
        const double t0 = prof ? telemetry::WallSeconds() : 0.0;
        try {
            (*task_)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!error_) error_ = std::current_exception();
        }
        if (prof) {
            busy += telemetry::WallSeconds() - t0;
            ++tasks;
        }
    }
    if (prof) {
        // Timestamp the moment this thread ran out of work; after the
        // barrier the caller turns it into barrier-wait time.
        const double finished = telemetry::WallSeconds();
        const auto s = static_cast<size_t>(slot);
        std::lock_guard<std::mutex> lock(mu_);
        profile_[s].busy += busy;
        profile_[s].tasks += tasks;
        finish_time_[s] = finished;
    }
}

void
ThreadPool::WorkerLoop(int slot)
{
    long seen_epoch = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [&] {
                return stop_ || epoch_ != seen_epoch;
            });
            if (stop_) return;
            seen_epoch = epoch_;
        }
        RunTasks(slot);
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++workers_done_;
        }
        done_cv_.notify_one();
    }
}

void
ThreadPool::ParallelFor(int count, const std::function<void(int)>& task)
{
    if (count <= 0) return;
    if (num_threads_ == 1 || count == 1) {
        // Inline degenerate path: no synchronization, exceptions
        // propagate directly. Everything is caller busy time.
        const bool prof = profiling_;
        const double t0 = prof ? telemetry::WallSeconds() : 0.0;
        for (int i = 0; i < count; ++i) task(i);
        if (prof) {
            profile_[0].busy += telemetry::WallSeconds() - t0;
            profile_[0].tasks += count;
        }
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        task_ = &task;
        count_ = count;
        next_.store(0, std::memory_order_relaxed);
        workers_done_ = 0;
        error_ = nullptr;
        ++epoch_;
    }
    work_cv_.notify_all();

    RunTasks(0);  // the caller is one of the executing threads

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait(lock, [&] {
            return workers_done_ ==
                   static_cast<int>(workers_.size());
        });
        task_ = nullptr;
        error = error_;
        error_ = nullptr;
        if (profiling_) {
            // Every executing thread has stamped finish_time_ by now
            // (workers increment workers_done_ only after RunTasks);
            // the gap to the epoch's end is its barrier wait.
            const double epoch_end = telemetry::WallSeconds();
            for (size_t s = 0; s < profile_.size(); ++s) {
                profile_[s].barrier_wait += epoch_end - finish_time_[s];
            }
        }
    }
    if (error) std::rethrow_exception(error);
}

}  // namespace pod
