/**
 * @file
 * Fleet-level serving metrics: per-replica and aggregate latency /
 * throughput reports, load-imbalance coefficients and per-replica KV
 * utilization, layered on serve/metrics.* (docs/DESIGN.md S8).
 */
#ifndef POD_CLUSTER_CLUSTER_METRICS_H
#define POD_CLUSTER_CLUSTER_METRICS_H

#include <string>
#include <vector>

#include "serve/metrics.h"

namespace pod::cluster {

/** Per-replica utilization accumulated while the cluster ran. */
struct ReplicaUtilization
{
    /** Peak KV pool utilization observed after any iteration. */
    double kv_peak = 0.0;

    /** Mean KV pool utilization over the replica's iterations. */
    double kv_mean = 0.0;

    /** Total time the replica spent executing iterations (s). */
    double busy_time = 0.0;

    /** Requests routed to this replica. */
    int requests_routed = 0;

    /** Tokens the replica processed across all iterations. */
    double tokens_processed = 0.0;
};

/**
 * Aggregate report of one cluster serving run. The inherited engine
 * counters are the sums of the per-replica reports' counters.
 */
struct ClusterMetricsReport : serve::EngineCounters
{
    std::string router = "router";
    std::string workload = "workload";
    int num_replicas = 0;

    /**
     * Fleet-wide metrics over every request: TTFT/TBT/latency samples
     * pooled across replicas, requests_per_minute over the fleet
     * makespan (the time the last replica finished).
     */
    serve::MetricsReport fleet;

    /** Per-replica reports, indexed by replica id. */
    std::vector<serve::MetricsReport> per_replica;

    /** Per-replica utilization, indexed by replica id. */
    std::vector<ReplicaUtilization> utilization;

    /**
     * Load-imbalance coefficient: the coefficient of variation
     * (stddev / mean) of per-replica routed-request counts. 0 means a
     * perfectly even split.
     */
    double request_imbalance_cv = 0.0;

    /**
     * Coefficient of variation of per-replica processed-token counts
     * — the imbalance measure that matters under heavy-tailed prompt
     * lengths, where request counts can balance while token load
     * does not.
     */
    double token_imbalance_cv = 0.0;

    /** Fleet-wide preemption events (sum over per_replica). */
    long preemptions = 0;

    /**
     * Signatures held by the fleet's shared attention cost tables,
     * summed over tables (one per cost identity, docs/DESIGN.md
     * S5.4): the distinct signatures the fleet simulated. Each table
     * holds the union of its replicas' memo-cache keys, so the value
     * does not depend on the thread schedule.
     */
    long attn_table_entries = 0;
};

/**
 * Coefficient of variation (population stddev / mean) of a sample
 * set; 0 for empty input or zero mean.
 */
double CoefficientOfVariation(const std::vector<double>& values);

/**
 * Publish a cluster report into a metric registry under `prefix`
 * (default "cluster."): the fleet rollup under `<prefix>fleet.`, each
 * replica's report under `<prefix>replica<r>.` plus its utilization
 * gauges, and the imbalance rollups and engine counters at the top
 * level. Names follow docs/OBSERVABILITY.md; enumeration via
 * MetricRegistry::Rows() is name-sorted and deterministic.
 */
void FillRegistry(const ClusterMetricsReport& report,
                  telemetry::MetricRegistry& registry,
                  const std::string& prefix = "cluster.");

}  // namespace pod::cluster

#endif  // POD_CLUSTER_CLUSTER_METRICS_H
