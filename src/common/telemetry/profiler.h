/**
 * @file
 * Wall-clock profiling primitives for the parallel execution
 * substrate (docs/OBSERVABILITY.md): per-phase timers for the cluster
 * plan/advance/route loop and per-thread busy vs barrier-wait
 * accounting for the worker pool.
 *
 * These measure *host* time, not sim time, so they are inherently
 * non-deterministic and are kept strictly out of the sim-time trace:
 * they surface through the metric registry under `profile.*` names
 * and through printed summaries. Profiling is opt-in; when off, the
 * pool and cluster loop skip every clock read (a single branch), so
 * the exact-golden nets and the --long-smoke budget are unaffected.
 */
#ifndef POD_COMMON_TELEMETRY_PROFILER_H
#define POD_COMMON_TELEMETRY_PROFILER_H

#include <string>
#include <vector>

#include "common/telemetry/registry.h"

namespace pod::telemetry {

/** Monotonic wall clock in seconds (steady_clock). */
double WallSeconds();

/** Accumulated wall time of one named phase. */
struct PhaseStat
{
    double seconds = 0.0;
    long count = 0;

    void
    Accumulate(double start_seconds)
    {
        seconds += WallSeconds() - start_seconds;
        ++count;
    }
};

/**
 * One executing thread's split of an epoch-structured parallel
 * region: `busy` is time spent running claimed tasks, `barrier_wait`
 * is time between finishing its last task and the epoch's last task
 * completing; together they cover the thread's epoch residency.
 * `tasks` counts task executions.
 *
 * New fields go after `tasks`: aggregate initialization
 * (`ThreadStat{busy, wait, tasks}`) is part of the de-facto API.
 */
struct ThreadStat
{
    double busy = 0.0;
    double barrier_wait = 0.0;
    long tasks = 0;
    /** Always 0: the pool no longer steals work. Kept only because
     * perfbench/workloads.cc still reads them. */
    double steal_busy = 0.0;
    long steals = 0;
};

/** Profile of one ClusterEngine run (docs/DESIGN.md S8 loop). */
struct ClusterProfile
{
    /** Parallel-advance phase, pool barrier included. */
    PhaseStat advance;

    /** Serial snapshot + route phase. */
    PhaseStat route;

    /** Whole Run() call. */
    PhaseStat run;

    /** ParallelFor rounds actually dispatched (pre-scan hits skip). */
    long pool_rounds = 0;

    /** Per-executing-thread busy/wait, index 0 = the caller. */
    std::vector<ThreadStat> threads;

    /**
     * Publish under `<prefix>advance.seconds`,
     * `<prefix>thread<i>.busy_seconds`, ... plus pool-wide rollups
     * (`<prefix>pool.busy_seconds`, `.barrier_wait_seconds`,
     * `.barrier_wait_fraction`, `.tasks`) summed over threads
     * (docs/OBSERVABILITY.md naming scheme; prefix normally
     * "profile.").
     */
    void FillRegistry(MetricRegistry& registry,
                      const std::string& prefix) const;

    /** Multi-line human-readable summary. */
    std::string Summary() const;
};

}  // namespace pod::telemetry

#endif  // POD_COMMON_TELEMETRY_PROFILER_H
