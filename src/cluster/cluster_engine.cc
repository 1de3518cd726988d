/**
 * @file
 * Implementation of the phase-structured cluster run loop
 * (docs/DESIGN.md S8): plan arrivals, advance replicas in parallel
 * to the arrival horizon, route at the barrier.
 */
#include "cluster/cluster_engine.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <string>

#include "common/logging.h"

namespace pod::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * SplitMix64 finalizer: derives statistically independent per-replica
 * seeds from (cluster seed, replica index). A plain `seed + index`
 * would hand adjacent mt19937_64 engines correlated states.
 */
uint64_t
DeriveSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + (index + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

}  // namespace

ClusterConfig
ClusterConfig::Homogeneous(const serve::ServingConfig& base,
                           int num_replicas)
{
    POD_CHECK_ARG(num_replicas >= 1, "fleet needs at least one replica");
    ClusterConfig config;
    config.replicas.assign(static_cast<size_t>(num_replicas), base);
    return config;
}

ClusterEngine::ClusterEngine(ClusterConfig config,
                             SchedulerFactory make_scheduler,
                             std::unique_ptr<Router> router,
                             int num_threads)
    : seed_(config.seed),
      router_(std::move(router)),
      pool_(ThreadPool::ResolveThreads(num_threads))
{
    POD_CHECK_ARG(!config.replicas.empty(),
                  "fleet needs at least one replica");
    POD_CHECK_ARG(make_scheduler != nullptr,
                  "cluster needs a scheduler factory");
    POD_CHECK_ARG(router_ != nullptr, "cluster needs a router");
    replicas_.reserve(config.replicas.size());
    replica_rngs_.reserve(config.replicas.size());
    for (size_t i = 0; i < config.replicas.size(); ++i) {
        auto scheduler = make_scheduler(static_cast<int>(i));
        POD_CHECK_ARG(scheduler != nullptr,
                      "scheduler factory returned null");
        replicas_.emplace_back(config.replicas[i], std::move(scheduler));
        replica_rngs_.emplace_back(DeriveSeed(seed_, i));
    }
}

const serve::ServingEngine&
ClusterEngine::Replica(int index) const
{
    POD_CHECK_ARG(index >= 0 &&
                      index < static_cast<int>(replicas_.size()),
                  "replica index out of range");
    return replicas_[static_cast<size_t>(index)];
}

Rng&
ClusterEngine::ReplicaRng(int index)
{
    POD_CHECK_ARG(index >= 0 &&
                      index < static_cast<int>(replica_rngs_.size()),
                  "replica index out of range");
    return replica_rngs_[static_cast<size_t>(index)];
}

void
ClusterEngine::EnableTracing(size_t reserve_events)
{
    if (!recorders_.empty()) return;
    recorders_.reserve(replicas_.size() + 1);
    recorders_.emplace_back(0, "cluster", reserve_events);
    for (size_t r = 0; r < replicas_.size(); ++r) {
        recorders_.emplace_back(
            static_cast<int>(r) + 1,
            "replica" + std::to_string(r) + " (" +
                replicas_[r].Config().gpu.name + ")",
            reserve_events);
        // The vector never grows past this reserve, so the pointer
        // handed to the engine stays valid for the engine's lifetime.
        replicas_[r].SetTraceRecorder(&recorders_[r + 1]);
    }
}

void
ClusterEngine::WriteChromeTrace(std::ostream& out) const
{
    std::vector<const telemetry::TraceRecorder*> recorders;
    recorders.reserve(recorders_.size());
    for (const auto& recorder : recorders_) {
        recorders.push_back(&recorder);
    }
    telemetry::WriteChromeTrace(out, recorders);
}

void
ClusterEngine::EnableProfiling(bool on)
{
    profiling_ = on;
    pool_.EnableProfiling(on);
}

void
ClusterEngine::AdvanceReplica(size_t r, double horizon,
                              ReplicaAccum& accum)
{
    // Strictly-before: an event *at* the horizon belongs after the
    // routing decision, matching the serial loop's
    // `arrival_time <= t_step` routing condition. The replica touches
    // only its own engine, RNG stream and accumulator, so this body
    // is race-free and schedule-independent by construction.
    serve::ServingEngine& replica = replicas_[r];
    while (replica.NextEventTime() < horizon) {
        serve::StepResult result = replica.Step();
        if (!result.progressed) continue;
        accum.busy_time += result.duration;
        accum.tokens_processed += result.batch_tokens;
        accum.kv_peak = std::max(accum.kv_peak, result.kv_utilization);
        accum.kv_util_sum += result.kv_utilization;
        accum.kv_util_samples += 1;
    }
}

ClusterMetricsReport
ClusterEngine::Run(std::vector<serve::Request> requests)
{
    POD_CHECK_ARG(!requests.empty(), "need at least one request");
    std::sort(requests.begin(), requests.end(), serve::ArrivalOrder);

    const size_t num_replicas = replicas_.size();
    for (auto& replica : replicas_) replica.Reset();
    router_->Reset();
    for (auto& recorder : recorders_) recorder.Clear();
    const bool prof = profiling_;
    if (prof) {
        profile_ = telemetry::ClusterProfile{};
        pool_.ResetProfile();
    }
    const double run_start = prof ? telemetry::WallSeconds() : 0.0;
    // Reseed the replica streams serially, in replica-index order,
    // before any worker runs: stream state is a function of
    // (cluster seed, replica index) alone, never of which thread
    // advanced which replica last run.
    for (size_t r = 0; r < num_replicas; ++r) {
        replica_rngs_[r] = Rng(DeriveSeed(seed_, r));
    }

    std::vector<ReplicaAccum> accum(num_replicas);
    std::vector<serve::ReplicaSnapshot> snapshots(num_replicas);
    size_t next_arrival = 0;

    // Per-event probes are O(1) per replica (PR 3), so the serial
    // phases cost O(R) per arrival; all Step() work — the actual
    // simulation cost — happens inside the parallel-advance phase.
    while (true) {
        // ---- Phase 1: plan arrivals (the time horizon). ----
        const double horizon = next_arrival < requests.size()
                                   ? requests[next_arrival].arrival_time
                                   : kInf;

        // ---- Phase 2: parallel advance to the horizon. ----
        // Cheap serial pre-scan: most arrivals land with no replica
        // event before them (e.g. offline traces queue everything at
        // t=0), and skipping the pool round keeps routing-bound
        // phases at O(R) instead of a barrier per request.
        advance_order_.clear();
        for (size_t r = 0; r < num_replicas; ++r) {
            if (replicas_[r].NextEventTime() < horizon) {
                advance_order_.push_back(r);
            }
        }
        if (!advance_order_.empty()) {
            const double t0 = prof ? telemetry::WallSeconds() : 0.0;
            // Longest first: the pool claims indices in list order,
            // so the biggest pending backlog starts first instead of
            // last (greedy list scheduling, docs/DESIGN.md S8.4).
            // Stable, so ties keep replica order. A scheduling hint
            // only: it decides which thread advances a replica, never
            // what the replica computes.
            std::stable_sort(advance_order_.begin(), advance_order_.end(),
                             [&](size_t a, size_t b) {
                                 return replicas_[a].PendingWorkTokens() >
                                        replicas_[b].PendingWorkTokens();
                             });
            pool_.ParallelFor(
                static_cast<int>(advance_order_.size()), [&](int i) {
                    const size_t r =
                        advance_order_[static_cast<size_t>(i)];
                    AdvanceReplica(r, horizon, accum[r]);
                });
            if (prof) {
                profile_.advance.Accumulate(t0);
                ++profile_.pool_rounds;
            }
        }

        // ---- Phase 3: barrier route. ----
        // Every replica's next event is now >= horizon, which is the
        // serial loop's routing condition (route every arrival not
        // later than the earliest replica event, so no replica forms
        // a batch an unrouted request could have joined).
        if (next_arrival >= requests.size()) break;  // fleet drained
        const double route_start = prof ? telemetry::WallSeconds() : 0.0;
        const serve::Request& request = requests[next_arrival];
        for (size_t r = 0; r < num_replicas; ++r) {
            snapshots[r] = replicas_[r].Snapshot();
            snapshots[r].replica_id = static_cast<int>(r);
        }
        int pick = router_->Route(request, snapshots);
        POD_CHECK_ARG(pick >= 0 &&
                          pick < static_cast<int>(num_replicas),
                      "router returned an invalid replica index");
        if (!recorders_.empty()) {
            // Routing happens serially at the barrier, so the router
            // recorder has exactly one writer.
            recorders_[0].Instant(telemetry::EventKind::kRoute,
                                  request.arrival_time,
                                  telemetry::TraceRecorder::kEngineTrack,
                                  request.id, pick);
        }
        replicas_[static_cast<size_t>(pick)].Submit(request);
        accum[static_cast<size_t>(pick)].requests_routed += 1;
        if (prof) profile_.route.Accumulate(route_start);
        ++next_arrival;
    }

    POD_ASSERT(next_arrival == requests.size());
    for (auto& replica : replicas_) POD_ASSERT(replica.Done());

    // ---- assemble the report (serial; after the final barrier) ----
    std::vector<ReplicaUtilization> util(num_replicas);
    for (size_t r = 0; r < num_replicas; ++r) {
        util[r].busy_time = accum[r].busy_time;
        util[r].tokens_processed = accum[r].tokens_processed;
        util[r].kv_peak = accum[r].kv_peak;
        util[r].requests_routed = accum[r].requests_routed;
    }

    ClusterMetricsReport report;
    report.router = router_->Name();
    report.num_replicas = static_cast<int>(num_replicas);
    report.utilization = std::move(util);

    std::vector<serve::RequestState> fleet_states;
    fleet_states.reserve(requests.size());
    double fleet_makespan = 0.0;
    long fleet_iterations = 0;
    double fleet_tokens = 0.0;
    std::vector<double> request_counts;
    std::vector<double> token_counts;
    request_counts.reserve(num_replicas);
    token_counts.reserve(num_replicas);

    for (size_t r = 0; r < num_replicas; ++r) {
        const serve::ServingEngine& replica = replicas_[r];
        report.per_replica.push_back(replica.Report());
        report.utilization[r].kv_mean =
            accum[r].kv_util_samples > 0
                ? accum[r].kv_util_sum /
                      static_cast<double>(accum[r].kv_util_samples)
                : 0.0;
        report += report.per_replica[r];
        report.preemptions += report.per_replica[r].preemptions;
        fleet_states.insert(fleet_states.end(),
                            replica.States().begin(),
                            replica.States().end());
        fleet_makespan = std::max(fleet_makespan, replica.Now());
        fleet_iterations += replica.Iterations();
        fleet_tokens += replica.TotalBatchTokens();
        request_counts.push_back(
            static_cast<double>(report.utilization[r].requests_routed));
        token_counts.push_back(
            report.utilization[r].tokens_processed);
    }

    report.fleet = serve::CollectMetrics(fleet_states, fleet_makespan,
                                         fleet_iterations, fleet_tokens);
    report.fleet.system = router_->Name();
    // CollectMetrics recovers the per-request preemption counts from
    // the pooled states; every engine counter lives only in the
    // engines, so the fleet takes the rollup.
    static_cast<serve::EngineCounters&>(report.fleet) = report;
    report.request_imbalance_cv = CoefficientOfVariation(request_counts);
    report.token_imbalance_cv = CoefficientOfVariation(token_counts);
    if (prof) {
        profile_.run.Accumulate(run_start);
        profile_.threads = pool_.Profile();
    }
    return report;
}

}  // namespace pod::cluster
