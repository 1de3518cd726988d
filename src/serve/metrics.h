/**
 * @file
 * Serving metrics: TTFT, TBT, request latency, stalls, throughput
 * (the paper's Tables 5-7 and Figs. 12/15 reporting).
 */
#ifndef POD_SERVE_METRICS_H
#define POD_SERVE_METRICS_H

#include <string>
#include <vector>

#include "common/stats.h"
#include "common/telemetry/registry.h"
#include "serve/counters.h"
#include "serve/request.h"

namespace pod::serve {

/**
 * Aggregate report of one serving run. The inherited engine counters
 * (serve/counters.h) come from ServingEngine::Counters().
 */
struct MetricsReport : EngineCounters
{
    std::string system = "system";
    std::string workload = "workload";

    int num_requests = 0;

    /** Wall time from start to last completion (seconds). */
    double makespan = 0.0;

    /** Offline throughput metric (paper Fig. 12). */
    double requests_per_minute = 0.0;

    long iterations = 0;

    /** Time-to-first-token samples (seconds). */
    SampleStats ttft;

    /**
     * Time-between-tokens samples (seconds), across all requests, in
     * emission order (replica-major in a fleet report).
     */
    SampleStats tbt;

    /** End-to-end request latency samples (seconds). */
    SampleStats latency;

    /** Fraction of requests with at least one TBT > 200 ms. */
    double frac_stalled_200ms = 0.0;

    /** Fraction of requests with at least one TBT > 500 ms. */
    double frac_stalled_500ms = 0.0;

    /** Mean tokens per scheduled batch. */
    double mean_batch_tokens = 0.0;

    /** Total preemption events (sum of per-request preempt counts). */
    long preemptions = 0;

    /** Requests preempted at least once. */
    int requests_preempted = 0;
};

/** One replica's final request states and its engine's TBT gaps. */
struct ReplicaRecords
{
    const std::vector<RequestState>* states = nullptr;
    const SampleStats* tbt = nullptr;
};

/**
 * Build a report from several replicas' records, pooled in the given
 * order (replica-major; states in state order, TBT runs in emission
 * order) without copying the states — the fleet report of a cluster
 * run.
 */
MetricsReport CollectMetrics(const std::vector<ReplicaRecords>& replicas,
                             double makespan, long iterations,
                             double total_batch_tokens);

/** Build a report from one engine's final states and TBT gaps. */
MetricsReport CollectMetrics(const std::vector<RequestState>& states,
                             const SampleStats& tbt, double makespan,
                             long iterations, double total_batch_tokens);

/**
 * Publish a report into a metric registry under `prefix` (e.g.
 * "serve." -> "serve.latency.p99_seconds"), following the
 * docs/OBSERVABILITY.md naming scheme. Counts become counters,
 * scalars gauges, the engine counters their listed kinds
 * (FillCounters); the TTFT/TBT/latency sample sets are summarized as
 * count/mean/p50/p99/max gauges.
 */
void FillRegistry(const MetricsReport& report,
                  telemetry::MetricRegistry& registry,
                  const std::string& prefix = "serve.");

/**
 * Publish SampleStats summary gauges (`<prefix>.count/.mean_seconds/
 * .p50_seconds/.p99_seconds/.max_seconds`). Shared by the serve and
 * cluster registry bridges.
 */
void FillSampleStats(const SampleStats& stats,
                     telemetry::MetricRegistry& registry,
                     const std::string& prefix);

}  // namespace pod::serve

#endif  // POD_SERVE_METRICS_H
