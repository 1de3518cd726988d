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
 * Aggregate report of one serving run, or of a fleet (the sum of its
 * replicas' reports, operator+=). Only raw totals are stored; every
 * ratio is computed from them. The inherited engine counters
 * (serve/counters.h) come from ServingEngine::Counters().
 */
struct MetricsReport : EngineCounters
{
    std::string system = "system";
    std::string workload = "workload";

    int num_requests = 0;

    /** Wall time from start to last completion (seconds). */
    double makespan = 0.0;

    long iterations = 0;

    /** Tokens processed across all scheduled batches. */
    double batch_tokens = 0.0;

    /** Time-to-first-token samples (seconds). */
    SampleStats ttft;

    /**
     * Time-between-tokens samples (seconds), across all requests, in
     * emission order (replica-major in a fleet report).
     */
    SampleStats tbt;

    /** End-to-end request latency samples (seconds). */
    SampleStats latency;

    /** Requests with at least one TBT > 200 ms. */
    int requests_stalled_200ms = 0;

    /** Requests with at least one TBT > 500 ms. */
    int requests_stalled_500ms = 0;

    /** Total preemption events (sum of per-request preempt counts). */
    long preemptions = 0;

    /** Requests preempted at least once. */
    int requests_preempted = 0;

    /** Offline throughput metric (paper Fig. 12); 0 at makespan 0. */
    double RequestsPerMinute() const;

    /** Mean tokens per scheduled batch; 0 when no iteration ran. */
    double MeanBatchTokens() const;

    /** Fraction of requests with at least one TBT > 200 ms. */
    double FracStalled200ms() const;

    /** Fraction of requests with at least one TBT > 500 ms. */
    double FracStalled500ms() const;

    /**
     * Pool another run's report into this one: counts and counters
     * add, the makespan is the later of the two, and the sample sets
     * append `other`'s after this one's (replica-major when a fleet
     * sums its replicas in index order). Names are kept.
     */
    MetricsReport& operator+=(const MetricsReport& other);
};

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
