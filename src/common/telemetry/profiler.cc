/**
 * @file
 * Implementation of the wall-clock profiling helpers.
 */
#include "common/telemetry/profiler.h"

#include <chrono>
#include <cstdio>

namespace pod::telemetry {

double
WallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
ClusterProfile::FillRegistry(MetricRegistry& registry,
                             const std::string& prefix) const
{
    registry.SetGauge(prefix + "advance.seconds", advance.seconds);
    registry.AddCounter(prefix + "advance.rounds", advance.count);
    registry.SetGauge(prefix + "route.seconds", route.seconds);
    registry.AddCounter(prefix + "route.rounds", route.count);
    registry.SetGauge(prefix + "run.seconds", run.seconds);
    registry.AddCounter(prefix + "pool.rounds", pool_rounds);
    double pool_busy = 0.0;
    double pool_wait = 0.0;
    long pool_tasks = 0;
    for (size_t i = 0; i < threads.size(); ++i) {
        const std::string base = prefix + "thread" + std::to_string(i);
        registry.SetGauge(base + ".busy_seconds", threads[i].busy);
        registry.SetGauge(base + ".barrier_wait_seconds",
                          threads[i].barrier_wait);
        registry.AddCounter(base + ".tasks", threads[i].tasks);
        pool_busy += threads[i].busy;
        pool_wait += threads[i].barrier_wait;
        pool_tasks += threads[i].tasks;
    }
    if (!threads.empty()) {
        const double pool_total = pool_busy + pool_wait;
        registry.SetGauge(prefix + "pool.busy_seconds", pool_busy);
        registry.SetGauge(prefix + "pool.barrier_wait_seconds",
                          pool_wait);
        registry.SetGauge(
            prefix + "pool.barrier_wait_fraction",
            pool_total > 0.0 ? pool_wait / pool_total : 0.0);
        registry.AddCounter(prefix + "pool.tasks", pool_tasks);
    }
}

std::string
ClusterProfile::Summary() const
{
    std::string out;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "run %.3fs: advance %.3fs over %ld rounds "
                  "(%ld dispatched to the pool), route %.3fs over %ld "
                  "rounds\n",
                  run.seconds, advance.seconds, advance.count,
                  pool_rounds, route.seconds, route.count);
    out += buf;
    for (size_t i = 0; i < threads.size(); ++i) {
        const ThreadStat& t = threads[i];
        double total = t.busy + t.barrier_wait;
        std::snprintf(buf, sizeof(buf),
                      "  thread %zu%s: busy %.3fs, barrier wait %.3fs "
                      "(%.1f%% idle), %ld tasks\n",
                      i, i == 0 ? " (caller)" : "", t.busy,
                      t.barrier_wait,
                      total > 0.0 ? 100.0 * t.barrier_wait / total : 0.0,
                      t.tasks);
        out += buf;
    }
    return out;
}

}  // namespace pod::telemetry
