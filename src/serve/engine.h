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
 * thousand-request traces stay tractable (docs/DESIGN.md S5.4). A
 * cluster hands replicas of one cost identity a shared second-level
 * table, so a fleet simulates each signature once.
 *
 * KV allocation goes through one KvAllocator (docs/DESIGN.md S2)
 * built from the config's policy, watermark, preemption mode and
 * prefix-cache switch: the scheduler admits, grows and evicts through
 * it, and the engine applies the lifecycle consequences —
 * recompute-preempted requests re-run their prefill, swap-preempted
 * requests charge PCIe transfer time both ways. The conservative
 * policy (default) reproduces the pre-redesign behaviour
 * bit-identically.
 *
 * Queue and KV occupancy are tracked incrementally (PR 3): running
 * counters maintained at Submit/admission/preemption/progress
 * transitions make Snapshot() and NextEventTime() O(1), and the
 * scheduler's own queues keep each scheduling pass O(scheduled
 * requests), so cost scales with in-flight work rather than trace
 * length (docs/DESIGN.md S8).
 */
#ifndef POD_SERVE_ENGINE_H
#define POD_SERVE_ENGINE_H

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/telemetry/trace.h"
#include "core/attention.h"
#include "gpusim/gpu_spec.h"
#include "model/iteration_cost.h"
#include "model/model_config.h"
#include "serve/attn_cost_table.h"
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
     * Shared-prefix KV reuse (docs/DESIGN.md S2.6): the allocator
     * keeps a radix prefix cache so admissions serve cached prompt
     * blocks instead of re-prefilling them. Only requests with
     * hashable prompts (Request::prompt) can hit; an opaque-prompt
     * run is bit-identical with it on or off. Requires kRecompute
     * preemption under kWatermark.
     */
    bool prefix_cache_enabled = false;

    /** Fraction of HBM usable for weights + KV. */
    double memory_fraction = 0.9;

    /** Bucketing for the attention memo cache (docs/DESIGN.md S5.4). */
    int chunk_bucket = 64;
    int kv_bucket = 1024;
    int decode_bs_bucket = 8;
    int context_bucket = 1024;

    /** KV pool capacity in tokens (per GPU). */
    long KvTokenCapacity() const;

    /**
     * Attention cost identity: true when both configs simulate every
     * bucketed signature to the same cost — equal per-GPU head shape,
     * GPU spec, backend and attention options. Bucket sizes are not
     * part of it (the memo key is already the bucketed signature),
     * nor is anything outside the attention kernel (KV policy,
     * scheduler, linear-op model). Replicas with the same identity
     * may share one AttnCostTable.
     */
    bool SameAttnCost(const ServingConfig& other) const;
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
    /**
     * @param shared_costs optional second-level attention cost table
     *        shared with engines of the same cost identity
     *        (ServingConfig::SameAttnCost); nullptr (the default)
     *        keeps every simulated cost private to this engine.
     */
    ServingEngine(ServingConfig config,
                  std::unique_ptr<Scheduler> scheduler,
                  std::shared_ptr<AttnCostTable> shared_costs = nullptr);

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

    /** Sim time spent executing iterations since Reset() (seconds). */
    double BusySeconds() const { return busy_seconds_; }

    /** Peak KV pool utilization after any iteration since Reset(). */
    double KvPeakUtilization() const { return kv_peak_; }

    /** Mean KV pool utilization after each iteration; 0 before any. */
    double KvMeanUtilization() const
    {
        return iterations_ > 0
                   ? kv_util_sum_ / static_cast<double>(iterations_)
                   : 0.0;
    }

    const std::vector<RequestState>& States() const { return states_; }

    /**
     * Every inter-token gap (TBT sample) since Reset(), in emission
     * order: iteration by iteration, prefill-completed tokens before
     * decodes. Requests that also emitted in the previous iteration
     * share one gap, so the run-length set holds about one run per
     * iteration rather than one sample per token.
     */
    const SampleStats& Tbt() const { return tbt_; }

    /** The KV allocator (rebuilt by Reset()). */
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
     * and the simulated time memoized per bucketed signature: a
     * local miss is served from the shared table when one is
     * attached and holds the signature, and simulated otherwise.
     */
    double CachedAttnLayerTime(int chunk_len, int kv_len, int decode_bs,
                               int mean_context);

    /** The local memo cache: per-layer time per bucketed signature. */
    using AttnMemo =
        std::unordered_map<AttnSignature, double, AttnSignatureHash>;

    /** Local memo-cache contents (the cache survives Reset()). */
    const AttnMemo& AttnCache() const { return attn_cache_; }

    /** Attention memo-cache entries (the cache survives Reset()). */
    size_t AttnCacheSize() const { return attn_cache_.size(); }

    /** Attention memo-cache hits since the last Reset(). */
    long AttnCacheHits() const { return counters_.attn_cache_hits; }

    /**
     * Memo-cache misses since the last Reset(): first lookups of a
     * signature on this replica, served from the shared table or
     * simulated.
     */
    long AttnCacheMisses() const { return counters_.attn_cache_misses; }

    /** The shared cost table, or nullptr when costs are private. */
    const AttnCostTable* SharedAttnCosts() const
    {
        return shared_costs_.get();
    }

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
    /** Iteration cost of a scheduled batch (model::ComposeIteration). */
    model::IterationBreakdown IterationCost(
        const ScheduledBatch& batch,
        const std::vector<RequestState>& states);

    /**
     * Fold scheduler admissions into the running counters. The FCFS
     * admission scan only ever admits the next never-admitted
     * indices, from `first` (admitted_end_ before the scheduling
     * pass) on, in O(newly admitted).
     */
    void ApplyAdmissions(const SchedulingDecision& decision, size_t first);

    /**
     * Fold restores and preemptions into the running counters
     * (O(transitions), the preemption analogue of ApplyAdmissions)
     * and return the swap transfer time these transitions charge.
     */
    double ApplyLifecycleTransitions(const SchedulingDecision& decision);

    /** Record one output token's gap since the request's last token. */
    void RecordTbt(RequestState& state);

    /** Transition one request to kFinished and release its KV. */
    void FinishRequest(RequestState& state);

    /** Advance the arrived-mark past entries with arrival <= now. */
    void SyncArrivals();

    ServingConfig config_;
    std::unique_ptr<Scheduler> scheduler_;

    /** Sim-time event sink; nullptr (default) disables tracing. */
    telemetry::TraceRecorder* trace_ = nullptr;

    AttnMemo attn_cache_;

    /** Second-level cost table shared across replicas (may be null). */
    std::shared_ptr<AttnCostTable> shared_costs_;

    /** Counters since Reset(); the prefix-cache fields and
     * attn_cache_entries are filled in by Counters(). */
    EngineCounters counters_;

    // ---- stepping state (valid between Reset() and Done()) ----
    std::vector<RequestState> states_;
    std::optional<KvAllocator> kv_;
    double now_ = 0.0;
    long iterations_ = 0;
    double total_batch_tokens_ = 0.0;
    /** Sum of iteration latencies, peak and summed post-iteration KV
     * utilization; iterations_ counts the summed samples. */
    double busy_seconds_ = 0.0;
    double kv_peak_ = 0.0;
    double kv_util_sum_ = 0.0;
    size_t finished_ = 0;

    /** Inter-token gaps since Reset() (Tbt()). */
    SampleStats tbt_;

    /** KV bytes one token occupies on this GPU (swap sizing). */
    double kv_bytes_per_token_ = 0.0;

    /** Swap roofline: min(PCIe, HBM) bandwidth in bytes/s. */
    double swap_bandwidth_ = 1.0;

    // ---- incremental queue/KV accounting (PR 3) ----
    /** One past the highest index ever admitted (FCFS watermark):
     *  states from here on were never admitted. Reset() zeroes it,
     *  which tells the scheduler to drop its queues
     *  (Scheduler::Next). */
    size_t admitted_end_ = 0;

    /** States before this index have arrival_time <= now_. */
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
