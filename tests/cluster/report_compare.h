/**
 * @file
 * Exact (bit-identical) comparison helpers for cluster runs, shared
 * by the parallel regression and randomized equivalence suites.
 *
 * Every floating-point comparison is EXPECT_EQ — exact equality, no
 * tolerance. The parallel engine's claim is not "close to serial",
 * it is "the same computation" (docs/DESIGN.md S8), so any ULP of
 * drift is a real scheduling/ordering bug and must fail.
 */
#ifndef POD_TESTS_CLUSTER_REPORT_COMPARE_H
#define POD_TESTS_CLUSTER_REPORT_COMPARE_H

#include <gtest/gtest.h>

#include "cluster/cluster_engine.h"
#include "cluster/cluster_metrics.h"
#include "serve/metrics.h"
#include "serve/request.h"

namespace pod::cluster::test {

inline void
ExpectSamplesEqual(const SampleStats& expected, const SampleStats& got,
                   const char* what)
{
    ASSERT_EQ(expected.Count(), got.Count()) << what;
    const auto& a = expected.Runs();
    const auto& b = got.Runs();
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].value, b[i].value) << what << " run " << i;
        EXPECT_EQ(a[i].count, b[i].count) << what << " run " << i;
    }
}

/** Every engine counter (serve/counters.h), exactly. */
inline void
ExpectCountersEqual(const serve::EngineCounters& expected,
                    const serve::EngineCounters& got, const char* what)
{
#define POD_EXPECT_COUNTER_EQ(type, field, name, kind)                      \
    EXPECT_EQ(expected.field, got.field) << what << " " << #field;
    POD_ENGINE_COUNTERS(POD_EXPECT_COUNTER_EQ)
#undef POD_EXPECT_COUNTER_EQ
}

inline void
ExpectMetricsEqual(const serve::MetricsReport& expected,
                   const serve::MetricsReport& got, const char* what)
{
    EXPECT_EQ(expected.num_requests, got.num_requests) << what;
    EXPECT_EQ(expected.makespan, got.makespan) << what;
    EXPECT_EQ(expected.RequestsPerMinute(), got.RequestsPerMinute())
        << what;
    EXPECT_EQ(expected.iterations, got.iterations) << what;
    EXPECT_EQ(expected.batch_tokens, got.batch_tokens) << what;
    ExpectSamplesEqual(expected.ttft, got.ttft, what);
    ExpectSamplesEqual(expected.tbt, got.tbt, what);
    ExpectSamplesEqual(expected.latency, got.latency, what);
    EXPECT_EQ(expected.requests_stalled_200ms, got.requests_stalled_200ms)
        << what;
    EXPECT_EQ(expected.requests_stalled_500ms, got.requests_stalled_500ms)
        << what;
    EXPECT_EQ(expected.FracStalled200ms(), got.FracStalled200ms())
        << what;
    EXPECT_EQ(expected.FracStalled500ms(), got.FracStalled500ms())
        << what;
    EXPECT_EQ(expected.MeanBatchTokens(), got.MeanBatchTokens()) << what;
    EXPECT_EQ(expected.preemptions, got.preemptions) << what;
    EXPECT_EQ(expected.preemptions_recompute, got.preemptions_recompute)
        << what;
    EXPECT_EQ(expected.preemptions_swap, got.preemptions_swap) << what;
    EXPECT_EQ(expected.requests_preempted, got.requests_preempted)
        << what;
    EXPECT_EQ(expected.swap_time_total, got.swap_time_total) << what;
}

/** Field-by-field equality of two whole cluster reports. */
inline void
ExpectReportsEqual(const ClusterMetricsReport& expected,
                   const ClusterMetricsReport& got)
{
    EXPECT_EQ(expected.router, got.router);
    EXPECT_EQ(expected.num_replicas, got.num_replicas);
    ExpectMetricsEqual(expected.fleet, got.fleet, "fleet");
    ASSERT_EQ(expected.per_replica.size(), got.per_replica.size());
    for (size_t r = 0; r < expected.per_replica.size(); ++r) {
        SCOPED_TRACE(::testing::Message() << "replica " << r);
        ExpectMetricsEqual(expected.per_replica[r], got.per_replica[r],
                           "per_replica");
        ExpectCountersEqual(expected.per_replica[r], got.per_replica[r],
                            "per_replica");
    }
    ASSERT_EQ(expected.utilization.size(), got.utilization.size());
    for (size_t r = 0; r < expected.utilization.size(); ++r) {
        SCOPED_TRACE(::testing::Message() << "utilization " << r);
        const ReplicaUtilization& a = expected.utilization[r];
        const ReplicaUtilization& b = got.utilization[r];
        EXPECT_EQ(a.kv_peak, b.kv_peak);
        EXPECT_EQ(a.kv_mean, b.kv_mean);
        EXPECT_EQ(a.busy_time, b.busy_time);
    }
    EXPECT_EQ(expected.request_imbalance_cv, got.request_imbalance_cv);
    EXPECT_EQ(expected.token_imbalance_cv, got.token_imbalance_cv);
    EXPECT_EQ(expected.preemptions, got.preemptions);
    EXPECT_EQ(expected.attn_table_entries, got.attn_table_entries);
    ExpectCountersEqual(expected, got, "cluster");
}

/**
 * Per-request completion records: every replica must hold the same
 * requests in the same submission order with identical lifecycle
 * outcomes and token timings, and record the same TBT run sequence.
 */
inline void
ExpectStatesEqual(const ClusterEngine& expected,
                  const ClusterEngine& got)
{
    ASSERT_EQ(expected.NumReplicas(), got.NumReplicas());
    for (int r = 0; r < expected.NumReplicas(); ++r) {
        SCOPED_TRACE(::testing::Message() << "replica " << r);
        const auto& a = expected.Replica(r).States();
        const auto& b = got.Replica(r).States();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << "request slot " << i << " (id "
                         << a[i].request.id << ")");
            EXPECT_EQ(a[i].request.id, b[i].request.id);
            EXPECT_EQ(a[i].phase, b[i].phase);
            EXPECT_EQ(a[i].prefilled, b[i].prefilled);
            EXPECT_EQ(a[i].decoded, b[i].decoded);
            EXPECT_EQ(a[i].recompute_extra, b[i].recompute_extra);
            EXPECT_EQ(a[i].preempt_count, b[i].preempt_count);
            EXPECT_EQ(a[i].first_token_time, b[i].first_token_time);
            EXPECT_EQ(a[i].last_token_time, b[i].last_token_time);
            EXPECT_EQ(a[i].finish_time, b[i].finish_time);
            EXPECT_EQ(a[i].max_tbt, b[i].max_tbt);
        }
        ExpectSamplesEqual(expected.Replica(r).Tbt(), got.Replica(r).Tbt(),
                           "replica tbt");
    }
}

}  // namespace pod::cluster::test

#endif  // POD_TESTS_CLUSTER_REPORT_COMPARE_H
