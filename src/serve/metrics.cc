/**
 * @file
 * Implementation of serving metrics collection.
 */
#include "serve/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace pod::serve {

MetricsReport
CollectMetrics(const std::vector<const std::vector<RequestState>*>& replicas,
               double makespan, long iterations, double total_batch_tokens)
{
    size_t num_states = 0;
    for (const auto* states : replicas) num_states += states->size();

    MetricsReport report;
    report.num_requests = static_cast<int>(num_states);
    report.makespan = makespan;
    report.iterations = iterations;
    if (makespan > 0.0) {
        report.requests_per_minute =
            static_cast<double>(num_states) / makespan * 60.0;
    }
    if (iterations > 0) {
        report.mean_batch_tokens =
            total_batch_tokens / static_cast<double>(iterations);
    }

    int stalled_200 = 0;
    int stalled_500 = 0;
    for (const auto* states : replicas) {
        for (const auto& state : *states) {
            POD_ASSERT(state.Finished());
            report.preemptions += state.preempt_count;
            if (state.preempt_count > 0) ++report.requests_preempted;
            report.ttft.Add(state.first_token_time -
                            state.request.arrival_time);
            report.latency.Add(state.finish_time -
                               state.request.arrival_time);
            double max_tbt = 0.0;
            for (double gap : state.tbt) {
                report.tbt.Add(gap);
                max_tbt = std::max(max_tbt, gap);
            }
            if (max_tbt > 0.2) ++stalled_200;
            if (max_tbt > 0.5) ++stalled_500;
        }
    }
    if (num_states > 0) {
        report.frac_stalled_200ms =
            static_cast<double>(stalled_200) / num_states;
        report.frac_stalled_500ms =
            static_cast<double>(stalled_500) / num_states;
    }
    return report;
}

MetricsReport
CollectMetrics(const std::vector<RequestState>& states, double makespan,
               long iterations, double total_batch_tokens)
{
    return CollectMetrics(
        std::vector<const std::vector<RequestState>*>{&states}, makespan,
        iterations, total_batch_tokens);
}

void
FillSampleStats(const SampleStats& stats,
                telemetry::MetricRegistry& registry,
                const std::string& prefix)
{
    registry.SetGauge(prefix + ".count",
                      static_cast<double>(stats.Count()));
    registry.SetGauge(prefix + ".mean_seconds", stats.Mean());
    registry.SetGauge(prefix + ".p50_seconds", stats.Percentile(50.0));
    registry.SetGauge(prefix + ".p99_seconds", stats.Percentile(99.0));
    registry.SetGauge(prefix + ".max_seconds", stats.Max());
}

void
FillRegistry(const MetricsReport& report,
             telemetry::MetricRegistry& registry,
             const std::string& prefix)
{
    registry.AddCounter(prefix + "requests", report.num_requests);
    registry.AddCounter(prefix + "iterations", report.iterations);
    registry.AddCounter(prefix + "preempt.total", report.preemptions);
    registry.AddCounter(prefix + "preempt.requests",
                        report.requests_preempted);
    registry.SetGauge(prefix + "makespan_seconds", report.makespan);
    registry.SetGauge(prefix + "requests_per_minute",
                      report.requests_per_minute);
    registry.SetGauge(prefix + "batch_tokens.mean",
                      report.mean_batch_tokens);
    registry.SetGauge(prefix + "stalled.frac_200ms",
                      report.frac_stalled_200ms);
    registry.SetGauge(prefix + "stalled.frac_500ms",
                      report.frac_stalled_500ms);
    FillCounters(report, registry, prefix);
    FillSampleStats(report.ttft, registry, prefix + "ttft");
    FillSampleStats(report.tbt, registry, prefix + "tbt");
    FillSampleStats(report.latency, registry, prefix + "latency");
}

}  // namespace pod::serve
