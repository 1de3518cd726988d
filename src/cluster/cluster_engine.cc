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
    : router_(std::move(router)),
      pool_(ThreadPool::ResolveThreads(num_threads))
{
    POD_CHECK_ARG(!config.replicas.empty(),
                  "fleet needs at least one replica");
    POD_CHECK_ARG(make_scheduler != nullptr,
                  "cluster needs a scheduler factory");
    POD_CHECK_ARG(router_ != nullptr, "cluster needs a router");
    replicas_.reserve(config.replicas.size());
    // One attention cost table per cost identity: replica i joins the
    // table of the first earlier replica with the same identity.
    std::vector<size_t> table_of(config.replicas.size());
    for (size_t i = 0; i < config.replicas.size(); ++i) {
        table_of[i] = attn_tables_.size();
        for (size_t j = 0; j < i; ++j) {
            if (config.replicas[j].SameAttnCost(config.replicas[i])) {
                table_of[i] = table_of[j];
                break;
            }
        }
        if (table_of[i] == attn_tables_.size()) {
            attn_tables_.push_back(
                std::make_shared<serve::AttnCostTable>());
        }
        auto scheduler = make_scheduler(static_cast<int>(i));
        POD_CHECK_ARG(scheduler != nullptr,
                      "scheduler factory returned null");
        replicas_.emplace_back(config.replicas[i], std::move(scheduler),
                               attn_tables_[table_of[i]]);
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

void
ClusterEngine::EnableTracing()
{
    if (!recorders_.empty()) return;
    recorders_.reserve(replicas_.size() + 1);
    recorders_.emplace_back(0, "cluster");
    for (size_t r = 0; r < replicas_.size(); ++r) {
        recorders_.emplace_back(
            static_cast<int>(r) + 1,
            "replica" + std::to_string(r) + " (" +
                replicas_[r].Config().gpu.name + ")");
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
ClusterEngine::AdvanceReplica(size_t r, double horizon)
{
    // Strictly-before: an event *at* the horizon belongs after the
    // routing decision, matching the serial loop's
    // `arrival_time <= t_step` routing condition. The replica touches
    // only its own engine, so this body is race-free and
    // schedule-independent by construction.
    serve::ServingEngine& replica = replicas_[r];
    while (replica.NextEventTime() < horizon) replica.Step();
}

ClusterMetricsReport
ClusterEngine::Run(std::vector<serve::Request> requests)
{
    POD_CHECK_ARG(!requests.empty(), "need at least one request");
    // ArrivalOrder is total (ties by id), so skipping the sort of an
    // already-sorted trace changes nothing.
    if (!std::is_sorted(requests.begin(), requests.end(),
                        serve::ArrivalOrder)) {
        std::sort(requests.begin(), requests.end(), serve::ArrivalOrder);
    }

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

    // A snapshot and a next-event time are functions of their
    // engine's state alone, which only Step() and Submit() change, so
    // both are kept across arrivals and re-taken only after their
    // replica advanced or took a Submit().
    std::vector<serve::ReplicaSnapshot> snapshots(num_replicas);
    std::vector<double> next_event(num_replicas);
    const auto refresh = [&](size_t r) {
        snapshots[r] = replicas_[r].Snapshot();
        snapshots[r].replica_id = static_cast<int>(r);
        next_event[r] = replicas_[r].NextEventTime();
    };
    for (size_t r = 0; r < num_replicas; ++r) refresh(r);
    size_t next_arrival = 0;

    // Per-event probes are O(1) per replica (PR 3) and only changed
    // replicas are probed, so the serial phases cost O(changed
    // replicas) per arrival plus an O(R) scan of cached times; all
    // Step() work — the actual simulation cost — happens inside the
    // parallel-advance phase.
    while (true) {
        // ---- Phase 1: plan arrivals (the time horizon). ----
        const double horizon = next_arrival < requests.size()
                                   ? requests[next_arrival].arrival_time
                                   : kInf;

        // ---- Phase 2: parallel advance to the horizon. ----
        // Cheap serial pre-scan of the cached next-event times: most
        // arrivals land with no replica event before them (e.g.
        // offline traces queue everything at t=0), and skipping the
        // pool round keeps routing-bound phases free of a barrier per
        // request.
        advance_order_.clear();
        for (size_t r = 0; r < num_replicas; ++r) {
            if (next_event[r] < horizon) advance_order_.push_back(r);
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
                    AdvanceReplica(r, horizon);
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
        for (size_t r : advance_order_) refresh(r);
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
        refresh(static_cast<size_t>(pick));
        if (prof) profile_.route.Accumulate(route_start);
        ++next_arrival;
    }

    POD_ASSERT(next_arrival == requests.size());
    for (auto& replica : replicas_) POD_ASSERT(replica.Done());

    // ---- assemble the report (serial; after the final barrier) ----
    ClusterMetricsReport report;
    report.router = router_->Name();
    report.num_replicas = static_cast<int>(num_replicas);
    report.per_replica.reserve(num_replicas);
    report.utilization.reserve(num_replicas);
    std::vector<double> request_counts;
    std::vector<double> token_counts;
    request_counts.reserve(num_replicas);
    token_counts.reserve(num_replicas);

    // The fleet report is the sum of the replica reports. Its sample
    // sets are sized once up front: growing them replica by replica
    // would hold two copies at every reallocation and raise the peak
    // RSS of large fleets.
    size_t ttft_runs = 0, tbt_runs = 0, latency_runs = 0;
    for (const serve::ServingEngine& replica : replicas_) {
        report.per_replica.push_back(replica.Report());
        const serve::MetricsReport& m = report.per_replica.back();
        ttft_runs += m.ttft.Runs().size();
        tbt_runs += m.tbt.Runs().size();
        latency_runs += m.latency.Runs().size();
        report.utilization.push_back({replica.KvPeakUtilization(),
                                      replica.KvMeanUtilization(),
                                      replica.BusySeconds()});
    }
    report.fleet.ttft.Reserve(ttft_runs);
    report.fleet.tbt.Reserve(tbt_runs);
    report.fleet.latency.Reserve(latency_runs);
    for (const serve::MetricsReport& m : report.per_replica) {
        report.fleet += m;
        request_counts.push_back(static_cast<double>(m.num_requests));
        token_counts.push_back(m.batch_tokens);
    }
    report.fleet.system = router_->Name();
    static_cast<serve::EngineCounters&>(report) = report.fleet;
    report.preemptions = report.fleet.preemptions;
    for (const auto& table : attn_tables_) {
        report.attn_table_entries += static_cast<long>(table->Size());
    }
    report.request_imbalance_cv = CoefficientOfVariation(request_counts);
    report.token_imbalance_cv = CoefficientOfVariation(token_counts);
    if (prof) {
        profile_.run.Accumulate(run_start);
        profile_.threads = pool_.Profile();
    }
    return report;
}

}  // namespace pod::cluster
