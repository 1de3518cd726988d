/**
 * @file
 * Implementation of fleet-level metric helpers.
 */
#include "cluster/cluster_metrics.h"

#include "common/stats.h"

namespace pod::cluster {

double
CoefficientOfVariation(const std::vector<double>& values)
{
    SampleStats stats;
    stats.AddAll(values);
    double mean = stats.Mean();
    if (mean == 0.0) return 0.0;
    return stats.Stddev() / mean;
}

void
FillRegistry(const ClusterMetricsReport& report,
             telemetry::MetricRegistry& registry,
             const std::string& prefix)
{
    registry.AddCounter(prefix + "replicas", report.num_replicas);
    registry.SetGauge(prefix + "imbalance.requests_cv",
                      report.request_imbalance_cv);
    registry.SetGauge(prefix + "imbalance.tokens_cv",
                      report.token_imbalance_cv);
    registry.AddCounter(prefix + "preempt.total", report.preemptions);
    registry.SetGauge(prefix + "attn_table.entries",
                      static_cast<double>(report.attn_table_entries));
    serve::FillCounters(report, registry, prefix);

    serve::FillRegistry(report.fleet, registry, prefix + "fleet.");

    for (size_t r = 0; r < report.per_replica.size(); ++r) {
        const std::string rp =
            prefix + "replica" + std::to_string(r) + ".";
        const serve::MetricsReport& replica = report.per_replica[r];
        serve::FillRegistry(replica, registry, rp);
        if (r < report.utilization.size()) {
            const ReplicaUtilization& u = report.utilization[r];
            registry.SetGauge(rp + "kv.peak_utilization", u.kv_peak);
            registry.SetGauge(rp + "kv.mean_utilization", u.kv_mean);
            registry.SetGauge(rp + "busy_seconds", u.busy_time);
            registry.AddCounter(rp + "routed", replica.num_requests);
            registry.SetGauge(rp + "tokens_processed",
                              replica.batch_tokens);
        }
    }
}

}  // namespace pod::cluster
