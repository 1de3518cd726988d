/**
 * @file
 * A small persistent worker pool with one fork/join entry point,
 * `ParallelFor` (one indivisible task per index, claimed dynamically
 * in index order) — the execution substrate of the parallel cluster
 * engine (docs/DESIGN.md S8).
 *
 * Design constraints, in order:
 *  1. Determinism-friendly: ParallelFor is a barrier. Every task of
 *     one call completes (and its writes are visible to the caller)
 *     before the call returns, no task of a later call can overlap a
 *     task of an earlier one, and each index runs exactly once on
 *     one thread. Callers that give each index a disjoint slice of
 *     state therefore get bit-identical results at any thread count,
 *     including 1.
 *  2. Reusable across epochs: workers are spawned once and parked on
 *     a condition variable between calls, so a simulation issuing
 *     hundreds of thousands of small barriers pays wakeup cost, not
 *     thread-spawn cost.
 *  3. Honest failure: an exception thrown by any task is captured and
 *     rethrown from the entry point on the calling thread after the
 *     barrier (first-capture wins; the remaining indices still run,
 *     keeping the pool reusable afterwards).
 */
#ifndef POD_COMMON_THREAD_POOL_H
#define POD_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/telemetry/profiler.h"

namespace pod {

/**
 * Persistent fork/join worker pool.
 *
 * `num_threads` counts *executing* threads: the calling thread
 * participates in every ParallelFor, so a pool of N spawns N-1
 * workers. A pool of 1 spawns none and runs every task inline on the
 * caller — the degenerate path the serial engines use, with zero
 * synchronization.
 *
 * Not itself thread-safe: one thread drives a given pool (concurrent
 * ParallelFor calls on one pool are a caller bug).
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads total executing threads, >= 1. Values above
     *        the hardware concurrency are allowed (useful for
     *        schedule-stress tests) but oversubscribe.
     */
    explicit ThreadPool(int num_threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int NumThreads() const { return num_threads_; }

    /**
     * Run task(0) .. task(count - 1), each exactly once, distributed
     * over the pool; returns only when all have completed (the
     * barrier). Indices are claimed dynamically in ascending order
     * from one shared counter, so a caller that lists its longest
     * tasks first gets greedy longest-first list scheduling; which
     * thread runs which index is unspecified — tasks must not depend
     * on each other. Rethrows the first exception a task raised.
     */
    void ParallelFor(int count, const std::function<void(int)>& task);

    /**
     * Convenience clamp for a thread-count knob: 0 (or less) means
     * "all hardware threads", and the result is always >= 1 even when
     * hardware_concurrency() reports 0 (permitted by the standard).
     */
    static int ResolveThreads(int requested);

    /**
     * Toggle per-thread wall-clock profiling (docs/OBSERVABILITY.md).
     * When on, every epoch splits each executing thread's time into
     * task execution (`busy`) and end-of-epoch idle (`barrier_wait` —
     * from its last task finishing to the epoch's last task
     * finishing). When off (default), no clock is read.
     * Call only between epochs, from the driving thread.
     */
    void EnableProfiling(bool on);

    /**
     * Snapshot of the per-executing-thread profile accumulated since
     * the last ResetProfile(); index 0 is the calling thread.
     * All-zero unless EnableProfiling(true).
     *
     * Returned by value, copied under the pool mutex: a by-reference
     * view would be mutated by the workers' end-of-epoch folds, so
     * holding it across a later ParallelFor round would be a data
     * race. The snapshot is coherent (taken between the epoch's
     * final fold and the next epoch's first).
     */
    std::vector<telemetry::ThreadStat> Profile() const;

    void ResetProfile();

  private:
    void WorkerLoop(int slot);

    /** Claim indices until the epoch's range is exhausted. */
    void RunTasks(int slot);

    const int num_threads_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;   ///< workers wait for an epoch
    std::condition_variable done_cv_;   ///< caller waits for workers

    // Epoch state (guarded by mu_ except where noted).
    const std::function<void(int)>* task_ = nullptr;
    int count_ = 0;
    std::atomic<int> next_{0};          ///< next unclaimed index
    int workers_done_ = 0;              ///< workers finished this epoch
    long epoch_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;

    // Profiling state (see EnableProfiling). `finish_time_[slot]` is
    // written by its owning thread under mu_ during the epoch and
    // read by the caller after the barrier.
    bool profiling_ = false;
    std::vector<telemetry::ThreadStat> profile_;
    std::vector<double> finish_time_;

    std::vector<std::thread> workers_;
};

}  // namespace pod

#endif  // POD_COMMON_THREAD_POOL_H
