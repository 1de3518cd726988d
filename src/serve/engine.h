/**
 * @file
 * The serving engine: an iteration-level simulator of hybrid-batch
 * LLM inference (Sarathi-Serve / vLLM execution loop).
 *
 * Each iteration: the scheduler forms a batch; linear-op time comes
 * from the roofline model at the batch's exact token count; attention
 * time comes from the kernel simulator through the configured backend
 * (FA kernels for the vLLM/Sarathi baselines, the fused kernel for
 * Sarathi+POD), memoized over bucketed batch signatures so
 * thousand-request traces stay tractable (docs/DESIGN.md S5.4).
 *
 * KV allocation is pluggable (docs/DESIGN.md S2): the scheduler
 * admits, grows and evicts through a KvAllocator, and the engine
 * applies the lifecycle consequences — recompute-preempted requests
 * re-run their prefill, swap-preempted requests charge PCIe transfer
 * time both ways. The conservative policy (default) reproduces the
 * pre-redesign behaviour bit-identically.
 *
 * Queue and KV occupancy are tracked incrementally (PR 3): running
 * counters maintained at Submit/admission/preemption/progress
 * transitions plus a finished-prefix index over the request states
 * make Snapshot() and NextEventTime() O(1) and keep each scheduling
 * pass O(active requests), so cost scales with in-flight work rather
 * than trace length (docs/DESIGN.md S8).
 */
#ifndef POD_SERVE_ENGINE_H
#define POD_SERVE_ENGINE_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/telemetry/trace.h"
#include "core/attention.h"
#include "gpusim/gpu_spec.h"
#include "model/model_config.h"
#include "serve/kv_allocator.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/scheduler.h"

namespace pod::serve {

/** Serving system configuration. */
struct ServingConfig
{
    model::ModelConfig model = model::ModelConfig::Llama3_8B();
    gpusim::GpuSpec gpu = gpusim::GpuSpec::A100Sxm80GB();
    int tensor_parallel = 1;

    /** Attention backend (kPod for Sarathi+POD). */
    core::Backend backend = core::Backend::kFaSerial;

    /** Attention run options (POD policy etc.). */
    core::AttnRunOptions attn_options;

    /** KV block size in tokens. */
    int kv_block_size = 16;

    /**
     * KV allocation policy (docs/DESIGN.md S2). kConservative
     * reserves prompt + maximum output up front and never preempts;
     * kWatermark models vLLM's watermark admission + preemption.
     */
    KvPolicy kv_policy = KvPolicy::kConservative;

    /**
     * Fraction of the KV pool kept free across admissions
     * (kWatermark only; vLLM's `watermark`).
     */
    double kv_watermark = 0.01;

    /** How preemption victims are evicted (kWatermark only). */
    PreemptMode kv_preempt_mode = PreemptMode::kRecompute;

    /**
     * Shared-prefix KV reuse (docs/DESIGN.md S2.6): wrap the KV
     * policy in the radix prefix cache so admissions serve cached
     * prompt blocks instead of re-prefilling them. Only requests
     * with hashable prompts (Request::prompt) can hit; off (the
     * default) is bit-identical to the unwrapped policy. Requires
     * kRecompute preemption under kWatermark.
     */
    bool prefix_cache_enabled = false;

    /** Fraction of HBM usable for weights + KV. */
    double memory_fraction = 0.9;

    /**
     * Fixed non-GPU time per iteration (scheduler, Python runtime,
     * sampling) -- matches the serving stacks the paper builds on.
     */
    double iteration_overhead = 300e-6;

    /** Bucketing for the attention memo cache. */
    int chunk_bucket = 64;
    int kv_bucket = 1024;
    int decode_bs_bucket = 8;
    int context_bucket = 1024;

    /**
     * Attention memo cache on/off (docs/DESIGN.md S5.4). Bucketing
     * happens before the lookup, so cached and uncached runs are
     * bit-identical — the cache only saves re-simulating a bucketed
     * signature. Off = every lookup simulates (and counts as a miss);
     * the knob exists so the cache's value stays measurable as the
     * analytic core gets cheaper (docs/EXPERIMENTS.md).
     */
    bool attn_cache_enabled = true;

    /** KV pool capacity in tokens (per GPU). */
    long KvTokenCapacity() const;
};

/**
 * Point-in-time view of one replica's queue and KV occupancy,
 * consumed by the cluster layer's routing policies
 * (docs/DESIGN.md S8). All token/request counts refer to requests
 * submitted to this engine, whether or not they have arrived yet.
 * Assembled from running counters in O(1).
 */
struct ReplicaSnapshot
{
    /** Index in the owning cluster (-1 for a standalone engine). */
    int replica_id = -1;

    /** GPU preset serving this replica. */
    std::string gpu_name;

    /** Replica-local clock (end of its last iteration). */
    double now = 0.0;

    int submitted = 0;
    int finished = 0;

    /** Arrived (arrival_time <= now) but never admitted. */
    int waiting = 0;

    /** Admitted and unfinished (holding KV blocks). */
    int running = 0;

    /** Currently preempted (evicted, awaiting re-admission). */
    int preempted = 0;

    /** All unfinished submitted requests (includes future arrivals). */
    int outstanding = 0;

    /** Unprocessed prefill tokens across unfinished requests
     * (includes context a recompute preemption re-runs). */
    long prefill_tokens_pending = 0;

    /** Remaining output tokens across running requests. */
    long decode_tokens_pending = 0;

    /** Fraction of the KV pool reserved by running requests. */
    double kv_utilization = 0.0;

    /**
     * Reserved blocks plus the blocks every not-yet-admitted or
     * currently-preempted request will need, as a fraction of the
     * pool. Can exceed 1 under overload; the least-KV-pressure
     * router minimizes this. Counting preempted requests matters:
     * their evictions just lowered kv_utilization, but their
     * re-admission demand is still queued on this replica.
     */
    double kv_pressure = 0.0;

    /**
     * Free-pool fraction above the allocator's admission watermark
     * (negative when decode growth ate into the reserve). Equals the
     * free fraction under the conservative policy (watermark 0).
     */
    double kv_watermark_headroom = 0.0;

    long kv_free_blocks = 0;
    long kv_total_blocks = 0;

    long iterations = 0;
};

/** Outcome of one ServingEngine::Step() call. */
struct StepResult
{
    /**
     * True if a batch executed. False means the clock only jumped
     * forward to the next queued arrival (no work was runnable).
     */
    bool progressed = false;

    /** Clock when the batch was formed. */
    double start = 0.0;

    /** Iteration latency (0 for an idle jump). */
    double duration = 0.0;

    /** New tokens processed this iteration. */
    int batch_tokens = 0;

    /** Requests that finished this iteration. */
    int completed = 0;

    /** Requests preempted this iteration. */
    int preempted = 0;

    /** Swap transfer time included in `duration` (seconds). */
    double swap_time = 0.0;

    /** KV pool utilization after the step. */
    double kv_utilization = 0.0;
};

/**
 * Runs requests through a scheduler and reports metrics.
 *
 * Two driving modes share one execution path:
 *  - Run(): the classic single-replica mode — sorts a whole trace,
 *    steps to completion, returns the report.
 *  - Reset()/Submit()/Step(): incremental mode for the cluster layer,
 *    which routes requests to replicas mid-simulation and advances
 *    each replica one iteration at a time.
 */
class ServingEngine
{
  public:
    ServingEngine(ServingConfig config,
                  std::unique_ptr<Scheduler> scheduler);

    /**
     * Simulate all requests to completion.
     * Requests are sorted by arrival internally. Equivalent to
     * Reset() + Submit() in arrival order + Step() until Done().
     */
    MetricsReport Run(std::vector<Request> requests);

    /** Clear all request state and rebuild the KV allocator. */
    void Reset();

    /**
     * Add a request to the replica's queue. Submissions must be
     * ordered by arrival time (the admission scan relies on it).
     */
    void Submit(const Request& request);

    /**
     * Advance one scheduler iteration: form a batch at the current
     * clock, apply the scheduler's lifecycle transitions (admissions,
     * restores, preemptions), charge the iteration latency plus any
     * swap transfer time, apply prefill/decode progress. With no
     * runnable work, jumps the clock to the next queued arrival
     * instead (progressed=false). Fatal if called with nothing left
     * to do — guard with Done() / NextEventTime().
     */
    StepResult Step();

    /** All submitted requests finished (true when none submitted). */
    bool Done() const { return finished_ == states_.size(); }

    /**
     * Time of this replica's next actionable event: `Now()` if work
     * is runnable (including preempted requests awaiting
     * re-admission), the earliest queued future arrival otherwise,
     * or +infinity when the queue is drained. O(1).
     */
    double NextEventTime() const;

    /** Queue/KV occupancy view for routing decisions. O(1). */
    ReplicaSnapshot Snapshot() const;

    /**
     * Unprocessed prefill tokens plus remaining decode tokens across
     * unfinished requests — the cluster layer's relative cost
     * estimate for this replica's remaining window (longest-first
     * advance dispatch, docs/DESIGN.md S8.4).
     * Scheduling hint only: the value never feeds back into any
     * simulated quantity. O(1).
     */
    long PendingWorkTokens() const
    {
        return prefill_tokens_pending_ + decode_tokens_pending_;
    }

    /** Metrics over the completed run; requires Done(). */
    MetricsReport Report() const;

    /** Replica-local clock. */
    double Now() const { return now_; }

    long Iterations() const { return iterations_; }

    /** Total new tokens processed across all iterations. */
    double TotalBatchTokens() const { return total_batch_tokens_; }

    const std::vector<RequestState>& States() const { return states_; }

    /** The active KV allocation policy. */
    const KvAllocator& Allocator() const { return *kv_; }

    /**
     * Engine counters since the last Reset() (serve/counters.h);
     * attn_cache_entries and the prefix-cache block gauges are
     * current sizes.
     */
    EngineCounters Counters() const;

    /**
     * Per-layer attention time of a hybrid batch signature: total
     * chunk tokens, max chunk context, decode count and mean decode
     * context. The signature is bucketed (ServingConfig::*_bucket)
     * and the simulated time memoized per bucketed signature.
     */
    double CachedAttnLayerTime(int chunk_len, int kv_len, int decode_bs,
                               int mean_context);

    /** Attention memo-cache entries (the cache survives Reset()). */
    size_t AttnCacheSize() const { return attn_cache_.size(); }

    /** Attention memo-cache hits since the last Reset(). */
    long AttnCacheHits() const { return counters_.attn_cache_hits; }

    /** Memo-cache misses (kernel simulations) since the last Reset(). */
    long AttnCacheMisses() const { return counters_.attn_cache_misses; }

    const ServingConfig& Config() const { return config_; }

    /**
     * Attach (or detach, with nullptr) a sim-time trace recorder
     * (docs/OBSERVABILITY.md). While attached, the engine records the
     * request-lifecycle event taxonomy — arrival, admission, prefill
     * chunks, decode tokens, preemption/restore, completion — plus
     * one iteration span per Step() onto the recorder, all stamped
     * with sim time. Null (the default) is the zero-cost path: every
     * emission site is a single pointer test. The recorder is not
     * cleared by Reset(); the owner decides when a new capture
     * starts.
     */
    void SetTraceRecorder(telemetry::TraceRecorder* recorder)
    {
        trace_ = recorder;
    }

    const telemetry::TraceRecorder* Trace() const { return trace_; }

  private:
    /** A bucketed attention signature: the memo-cache key. */
    struct AttnSignature
    {
        int chunk = 0;
        int kv = 0;
        int decode_bs = 0;
        int context = 0;

        bool
        operator==(const AttnSignature& o) const
        {
            return chunk == o.chunk && kv == o.kv &&
                   decode_bs == o.decode_bs && context == o.context;
        }
    };

    struct AttnSignatureHash
    {
        size_t operator()(const AttnSignature& sig) const;
    };

    /** Iteration latency for a scheduled batch. */
    double IterationTime(const ScheduledBatch& batch,
                         const std::vector<RequestState>& states);

    /**
     * Fold scheduler admissions into the running counters. The FCFS
     * admission scan only ever admits a prefix of the unadmitted
     * queue, so the decision's admission list pops queue heads in
     * O(newly admitted).
     */
    void ApplyAdmissions(const SchedulingDecision& decision);

    /**
     * Fold restores and preemptions into the running counters
     * (O(transitions), the preemption analogue of ApplyAdmissions)
     * and return the swap transfer time these transitions charge.
     */
    double ApplyLifecycleTransitions(const SchedulingDecision& decision,
                                     StepResult& result);

    /** Transition one request to kFinished and release its KV. */
    void FinishRequest(RequestState& state, StepResult& result);

    /** Advance the arrived-mark past entries with arrival <= now. */
    void SyncArrivals();

    ServingConfig config_;
    std::unique_ptr<Scheduler> scheduler_;

    /** Sim-time event sink; nullptr (default) disables tracing. */
    telemetry::TraceRecorder* trace_ = nullptr;

    std::unordered_map<AttnSignature, double, AttnSignatureHash>
        attn_cache_;

    /** Counters since Reset(); the prefix-cache fields and
     * attn_cache_entries are filled in by Counters(). */
    EngineCounters counters_;

    // ---- stepping state (valid between Reset() and Done()) ----
    std::vector<RequestState> states_;
    std::unique_ptr<KvAllocator> kv_;
    double now_ = 0.0;
    long iterations_ = 0;
    double total_batch_tokens_ = 0.0;
    size_t finished_ = 0;

    /** KV bytes one token occupies on this GPU (swap sizing). */
    double kv_bytes_per_token_ = 0.0;

    /** Swap roofline: min(PCIe, HBM) bandwidth in bytes/s. */
    double swap_bandwidth_ = 1.0;

    // ---- incremental queue/KV accounting (PR 3) ----
    /** states_[i] for i < active_begin_ are all finished. */
    size_t active_begin_ = 0;

    /** One past the highest index ever admitted (FCFS watermark);
     *  bounds the scheduler's batch-building scans. */
    size_t admitted_end_ = 0;

    /**
     * Indices of never-admitted requests in submission (= arrival)
     * order. FCFS admission pops a prefix; entries before
     * arrived_mark_ have arrival_time <= now_.
     */
    std::vector<int> unadmitted_;
    size_t unadmitted_head_ = 0;
    size_t arrived_mark_ = 0;

    /** Admitted and unfinished requests. */
    int running_ = 0;

    /** Currently preempted requests (evicted, not finished). */
    int preempted_now_ = 0;

    /** Unprocessed prefill tokens across unfinished requests. */
    long prefill_tokens_pending_ = 0;

    /** Remaining output tokens across running requests. */
    long decode_tokens_pending_ = 0;

    /** KV blocks the unadmitted queue will eventually reserve. */
    long pending_unadmitted_blocks_ = 0;

    /**
     * KV blocks currently-preempted requests will re-reserve on
     * re-admission (swap footprints / recompute prefill targets).
     * Folded into kv_pressure so routing still sees a thrashing
     * replica's latent demand after its evictions freed the pool.
     */
    long pending_preempted_blocks_ = 0;
};

}  // namespace pod::serve

#endif  // POD_SERVE_ENGINE_H
