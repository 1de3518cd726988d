/**
 * @file
 * Implementation of serving metrics collection.
 */
#include "serve/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace pod::serve {

namespace {

double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

}  // namespace

double
MetricsReport::RequestsPerMinute() const
{
    return makespan > 0.0
               ? static_cast<double>(num_requests) / makespan * 60.0
               : 0.0;
}

double
MetricsReport::MeanBatchTokens() const
{
    return Ratio(batch_tokens, static_cast<double>(iterations));
}

double
MetricsReport::FracStalled200ms() const
{
    return Ratio(requests_stalled_200ms, num_requests);
}

double
MetricsReport::FracStalled500ms() const
{
    return Ratio(requests_stalled_500ms, num_requests);
}

MetricsReport&
MetricsReport::operator+=(const MetricsReport& other)
{
    EngineCounters::operator+=(other);
    num_requests += other.num_requests;
    makespan = std::max(makespan, other.makespan);
    iterations += other.iterations;
    batch_tokens += other.batch_tokens;
    ttft.Append(other.ttft);
    tbt.Append(other.tbt);
    latency.Append(other.latency);
    requests_stalled_200ms += other.requests_stalled_200ms;
    requests_stalled_500ms += other.requests_stalled_500ms;
    preemptions += other.preemptions;
    requests_preempted += other.requests_preempted;
    return *this;
}

MetricsReport
CollectMetrics(const std::vector<RequestState>& states,
               const SampleStats& tbt, double makespan, long iterations,
               double total_batch_tokens)
{
    MetricsReport report;
    report.num_requests = static_cast<int>(states.size());
    report.makespan = makespan;
    report.iterations = iterations;
    report.batch_tokens = total_batch_tokens;
    for (const auto& state : states) {
        POD_ASSERT(state.Finished());
        report.preemptions += state.preempt_count;
        if (state.preempt_count > 0) ++report.requests_preempted;
        report.ttft.Add(state.first_token_time - state.request.arrival_time);
        report.latency.Add(state.finish_time - state.request.arrival_time);
        if (state.max_tbt > 0.2) ++report.requests_stalled_200ms;
        if (state.max_tbt > 0.5) ++report.requests_stalled_500ms;
    }
    report.tbt.Append(tbt);
    return report;
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
                      report.RequestsPerMinute());
    registry.SetGauge(prefix + "batch_tokens.mean",
                      report.MeanBatchTokens());
    registry.SetGauge(prefix + "stalled.frac_200ms",
                      report.FracStalled200ms());
    registry.SetGauge(prefix + "stalled.frac_500ms",
                      report.FracStalled500ms());
    FillCounters(report, registry, prefix);
    FillSampleStats(report.ttft, registry, prefix + "ttft");
    FillSampleStats(report.tbt, registry, prefix + "tbt");
    FillSampleStats(report.latency, registry, prefix + "latency");
}

}  // namespace pod::serve
