/**
 * @file
 * Data-parallel cluster serving: N replica ServingEngines advanced
 * over one shared arrival stream, with arriving requests assigned to
 * replicas by a pluggable Router (docs/DESIGN.md S8).
 *
 * Each replica is a full ServingEngine — its own scheduler, KV
 * manager and attention memo cache — so fleets may mix GPU specs,
 * tensor-parallel degrees and scheduler policies freely.
 *
 * Execution is phase-structured (docs/DESIGN.md S8): replicas only
 * interact at routing events, so between consecutive arrivals every
 * replica's Step()s are independent and are advanced on a persistent
 * worker pool (common/thread_pool.h) behind a deterministic barrier
 * — conservative time-window parallel discrete-event simulation.
 * Results are bit-identical to the serial loop at every thread
 * count; tests/cluster/parallel_regression_test.cc and the
 * randomized equivalence stress test pin that claim.
 */
#ifndef POD_CLUSTER_CLUSTER_ENGINE_H
#define POD_CLUSTER_CLUSTER_ENGINE_H

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "cluster/cluster_metrics.h"
#include "cluster/router.h"
#include "common/rng.h"
#include "common/telemetry/profiler.h"
#include "common/telemetry/trace.h"
#include "common/thread_pool.h"
#include "serve/engine.h"

namespace pod::cluster {

/** Fleet composition: one ServingConfig per replica. */
struct ClusterConfig
{
    std::vector<serve::ServingConfig> replicas;

    /**
     * Cluster-level seed. Every replica-scoped RNG stream is derived
     * from this deterministically by replica index (see
     * ClusterEngine::ReplicaRng), never from thread identity, so
     * stochastic policies stay reproducible under parallel execution.
     */
    uint64_t seed = 0x9E3779B97F4A7C15ull;

    /** N identical replicas of one base config. */
    static ClusterConfig Homogeneous(const serve::ServingConfig& base,
                                     int num_replicas);
};

/**
 * Builds the scheduler for one replica (each replica needs its own
 * instance; schedulers are stateless today but own their knobs).
 */
using SchedulerFactory =
    std::function<std::unique_ptr<serve::Scheduler>(int replica_index)>;

/**
 * Owns the replica engines and simulates the fleet.
 *
 * The run loop is organized as three phases per arrival
 * (docs/DESIGN.md S8):
 *
 *  1. *Plan arrivals*: the next trace arrival defines the time
 *     horizon T (+inf once the trace is drained).
 *  2. *Parallel advance*: every replica whose NextEventTime() is
 *     strictly before T is advanced Step() by Step() up to T on the
 *     worker pool, one task per replica, dispatched longest-first by
 *     pending work tokens (docs/DESIGN.md S8.4).
 *     Replicas never read each other's state, so any thread schedule
 *     produces the same per-replica result; metrics fold into
 *     per-replica buffers, so no write is shared either.
 *  3. *Barrier route*: after the pool barrier, every replica's
 *     NextEventTime() is >= T — exactly the serial loop's routing
 *     condition — so the router sees the same ReplicaSnapshots the
 *     serial loop would and the arrival is routed identically.
 *
 * Arrivals are always routed before any replica *forms a batch* they
 * could have joined (iterations are non-preemptive, so an arrival
 * landing mid-iteration could not have joined it anyway). Snapshots
 * are end-of-last-iteration views: for an arrival that lands inside
 * another replica's in-flight iteration, that replica's snapshot can
 * lead the arrival instant by up to one iteration (~tens of ms) —
 * the standard iteration-level simplification, mirroring a router
 * that polls replica state at batch boundaries.
 *
 * With num_threads == 1 the pool runs inline and the loop *is* the
 * serial discrete-event loop, just phase-factored.
 */
class ClusterEngine
{
  public:
    /**
     * @param config fleet composition (>= 1 replica).
     * @param make_scheduler called once per replica index.
     * @param router routing policy (consulted once per request).
     * @param num_threads executing threads for the parallel-advance
     *        phase; 1 (default) is the serial loop, 0 means all
     *        hardware threads. Thread count never changes results,
     *        only wall-clock time.
     */
    ClusterEngine(ClusterConfig config, SchedulerFactory make_scheduler,
                  std::unique_ptr<Router> router, int num_threads = 1);

    /**
     * Simulate all requests to completion across the fleet.
     * Requests are sorted by arrival internally.
     */
    ClusterMetricsReport Run(std::vector<serve::Request> requests);

    int NumReplicas() const
    {
        return static_cast<int>(replicas_.size());
    }

    /** Executing threads used by the parallel-advance phase. */
    int NumThreads() const { return pool_.NumThreads(); }

    const serve::ServingEngine& Replica(int index) const;

    const Router& RouterPolicy() const { return *router_; }

    /**
     * The replica-scoped RNG stream (docs/DESIGN.md S8). This is the
     * only sanctioned randomness source for per-replica policy code
     * under parallel execution: each stream is owned by exactly one
     * replica (so one worker thread at a time), and Run() reseeds all
     * streams serially in replica-index order from
     * ClusterConfig::seed before the first phase — never from the
     * thread schedule. Routers run in the serial barrier-route phase
     * and must not draw from these.
     */
    Rng& ReplicaRng(int index);

    // ---- observability (docs/OBSERVABILITY.md) ----

    /**
     * Allocate per-replica sim-time trace recorders (pid 0 = the
     * router, pid r+1 = replica r) and attach them to the engines.
     * Each recorder is written only by the worker advancing its
     * replica, so tracing adds no synchronization; buffers are cleared
     * at the start of every Run(). Idempotent.
     */
    void EnableTracing(size_t reserve_events = 4096);

    bool TracingEnabled() const { return !recorders_.empty(); }

    /**
     * Merge all recorders into one Chrome trace-event JSON document.
     * Deterministic: identical bytes at every thread count (the trace
     * is a function of the simulated scenario alone).
     */
    void WriteChromeTrace(std::ostream& out) const;

    /** Recorders (index 0 = router, r+1 = replica r); empty unless
     * EnableTracing() was called. */
    const std::vector<telemetry::TraceRecorder>& Recorders() const
    {
        return recorders_;
    }

    /**
     * Toggle wall-clock phase/thread profiling of the run loop (host
     * time; see common/telemetry/profiler.h — kept out of the
     * sim-time trace). Off by default: no clock reads on the hot path.
     */
    void EnableProfiling(bool on);

    /** Profile of the most recent Run() (empty unless enabled). */
    const telemetry::ClusterProfile& Profile() const
    {
        return profile_;
    }

  private:
    /** Per-replica metric accumulation, private to one worker during
     * the parallel-advance phase and folded into the report after the
     * final barrier. Padded so neighbouring replicas' buffers never
     * share a cache line. */
    struct alignas(64) ReplicaAccum
    {
        double busy_time = 0.0;
        double tokens_processed = 0.0;
        double kv_peak = 0.0;
        double kv_util_sum = 0.0;
        long kv_util_samples = 0;
        int requests_routed = 0;
    };

    /**
     * Phase 2: advance one replica toward (strictly before) the
     * horizon, folding step results into its accumulator.
     */
    void AdvanceReplica(size_t r, double horizon, ReplicaAccum& accum);

    uint64_t seed_;
    std::vector<serve::ServingEngine> replicas_;
    std::unique_ptr<Router> router_;
    std::vector<Rng> replica_rngs_;
    ThreadPool pool_;
    /** Replicas with pre-horizon work this round, longest first;
     * kept across rounds to reuse its storage. */
    std::vector<size_t> advance_order_;

    /** [0] = router recorder, [r+1] = replica r's recorder. Sized
     * once by EnableTracing(); engines hold stable pointers in. */
    std::vector<telemetry::TraceRecorder> recorders_;

    bool profiling_ = false;
    telemetry::ClusterProfile profile_;
};

}  // namespace pod::cluster

#endif  // POD_CLUSTER_CLUSTER_ENGINE_H
