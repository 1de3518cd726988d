/**
 * @file
 * Implementation of the serving engine.
 *
 * The incremental accounting invariants (PR 3, extended for the
 * lifecycle redesign):
 *  - States are kept in submission (= arrival) order, and the FCFS
 *    admission scan admits a consecutive prefix (head-of-line
 *    blocking stops it), so the never-admitted requests are exactly
 *    the indices from `admitted_end_` on. Preempted requests left
 *    that range at their first admission; their transitions flow
 *    through the SchedulingDecision lists instead.
 *  - `arrived_mark_` splits the never-admitted range into arrived
 *    (<= now) and future entries; the clock is monotonic, so it only
 *    moves forward.
 *  - Token/block counters are integer sums updated at transitions
 *    (Submit, admission, restore, preemption, chunk/decode progress,
 *    finish), so the O(1) Snapshot() is exactly the value a full
 *    rescan computes.
 * Every invariant is pinned by the bit-identical regression tests in
 * tests/serve/serve_regression_test.cc (conservative policy) and the
 * brute-force invariant tests in tests/serve/serve_incremental_test.cc
 * and tests/serve/preemption_test.cc (watermark policy).
 */
#include "serve/engine.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/math_util.h"
#include "model/iteration_cost.h"

namespace pod::serve {

namespace {

/** Round v up to a positive multiple of bucket. */
int
BucketUp(int v, int bucket)
{
    if (v <= 0) return 0;
    return RoundUp(v, bucket);
}

/** Simulate one bucketed signature's per-layer attention. */
AttnCost
SimulateAttn(const ServingConfig& config, const AttnSignature& key)
{
    kernels::HybridBatch batch;
    batch.shape = config.model.ShapePerGpu(config.tensor_parallel);
    if (key.chunk > 0) {
        batch.prefills.push_back(
            kernels::PrefillItem{key.chunk, std::max(key.kv, key.chunk)});
    }
    if (key.decode_bs > 0) {
        batch.decode = kernels::DecodeItem::Uniform(key.decode_bs,
                                                    key.context);
    }
    core::AttnRunResult result = core::RunAttention(
        config.backend, batch, config.gpu, config.attn_options);
    return AttnCost{result.total_time, result.analytic_fastpath_events,
                    result.oracle_fallback_events};
}

}  // namespace

long
ServingConfig::KvTokenCapacity() const
{
    double usable = gpu.hbm_capacity * memory_fraction -
                    model.WeightBytesPerGpu(tensor_parallel);
    POD_CHECK_ARG(usable > 0, "model weights exceed usable GPU memory");
    return static_cast<long>(
        usable / model.KvBytesPerTokenPerGpu(tensor_parallel));
}

bool
ServingConfig::SameAttnCost(const ServingConfig& other) const
{
    // Exactly the inputs SimulateAttn passes to RunAttention besides
    // the signature.
    return model.ShapePerGpu(tensor_parallel) ==
               other.model.ShapePerGpu(other.tensor_parallel) &&
           gpu == other.gpu && backend == other.backend &&
           attn_options.pod == other.attn_options.pod &&
           attn_options.sim == other.attn_options.sim;
}

ServingEngine::ServingEngine(ServingConfig config,
                             std::unique_ptr<Scheduler> scheduler,
                             std::shared_ptr<AttnCostTable> shared_costs)
    : config_(std::move(config)),
      scheduler_(std::move(scheduler)),
      shared_costs_(std::move(shared_costs))
{
    POD_CHECK_ARG(scheduler_ != nullptr, "engine needs a scheduler");
    config_.model.Validate(config_.tensor_parallel);
    config_.gpu.Validate();
    Reset();
}

double
ServingEngine::CachedAttnLayerTime(int chunk_len, int kv_len,
                                   int decode_bs, int mean_context)
{
    // Bucket the signature.
    int chunk = BucketUp(chunk_len, config_.chunk_bucket);
    int kv = BucketUp(std::max(kv_len, chunk_len), config_.kv_bucket);
    int dbs = decode_bs <= config_.decode_bs_bucket
                  ? decode_bs
                  : BucketUp(decode_bs, config_.decode_bs_bucket);
    int ctx = BucketUp(std::max(mean_context, 1), config_.context_bucket);
    if (chunk == 0) kv = 0;
    if (dbs == 0) ctx = 0;
    if (chunk == 0 && dbs == 0) return 0.0;

    const AttnSignature key{chunk, kv, dbs, ctx};
    auto it = attn_cache_.find(key);
    if (it != attn_cache_.end()) {
        ++counters_.attn_cache_hits;
        return it->second;
    }
    ++counters_.attn_cache_misses;

    // The simulated cost is a pure function of the bucketed signature
    // (and the cost identity the shared table is keyed under), so
    // memoizing it at either level is bit-invisible to results. A
    // shared hit charges the stored sim-core events, so every counter
    // reads as if this replica had simulated. The simulation runs
    // outside the table's lock; a racing replica computes the same
    // value and the first insert wins.
    std::optional<AttnCost> cost;
    if (shared_costs_) cost = shared_costs_->Find(key);
    if (!cost) {
        cost = SimulateAttn(config_, key);
        if (shared_costs_) shared_costs_->Insert(key, *cost);
    }
    counters_.sim_fastpath_events += cost->analytic_fastpath_events;
    counters_.sim_fallback_events += cost->oracle_fallback_events;
    attn_cache_[key] = cost->total_time;
    return cost->total_time;
}

model::IterationBreakdown
ServingEngine::IterationCost(const ScheduledBatch& batch,
                             const std::vector<RequestState>& states)
{
    // Attention signature: total chunk tokens, max chunk context,
    // decode count and mean decode context.
    int chunk_total = 0;
    int kv_max = 0;
    for (const auto& p : batch.prefills) {
        chunk_total += p.chunk_len;
        kv_max = std::max(kv_max, p.kv_len_after);
    }
    long ctx_sum = 0;
    for (int idx : batch.decodes) {
        ctx_sum += states[static_cast<size_t>(idx)].ContextLen();
    }
    int dbs = static_cast<int>(batch.decodes.size());
    int mean_ctx =
        dbs > 0 ? static_cast<int>(ctx_sum / dbs) : 0;

    double attn_layer =
        CachedAttnLayerTime(chunk_total, kv_max, dbs, mean_ctx);

    // Logits for every decode plus prefills completing this iteration.
    int logit_tokens = dbs;
    for (const auto& p : batch.prefills) {
        const RequestState& state = states[static_cast<size_t>(
            p.req_index)];
        if (state.prefilled + p.chunk_len >= state.PrefillTarget()) {
            ++logit_tokens;
        }
    }

    return model::ComposeIteration(config_.model, config_.gpu,
                                   config_.tensor_parallel,
                                   batch.TotalTokens(), logit_tokens,
                                   attn_layer);
}

void
ServingEngine::Reset()
{
    states_.clear();
    now_ = 0.0;
    iterations_ = 0;
    total_batch_tokens_ = 0.0;
    busy_seconds_ = 0.0;
    kv_peak_ = 0.0;
    kv_util_sum_ = 0.0;
    finished_ = 0;
    tbt_.Clear();
    admitted_end_ = 0;
    arrived_mark_ = 0;
    running_ = 0;
    preempted_now_ = 0;
    prefill_tokens_pending_ = 0;
    decode_tokens_pending_ = 0;
    pending_unadmitted_blocks_ = 0;
    pending_preempted_blocks_ = 0;
    counters_ = EngineCounters{};
    long kv_tokens = config_.KvTokenCapacity();
    kv_.emplace(config_.kv_policy,
                std::max<long>(1, kv_tokens / config_.kv_block_size),
                config_.kv_block_size, config_.kv_watermark,
                config_.kv_preempt_mode, config_.prefix_cache_enabled);
    kv_bytes_per_token_ =
        config_.model.KvBytesPerTokenPerGpu(config_.tensor_parallel);
    swap_bandwidth_ =
        std::min(config_.gpu.pcie_bandwidth, config_.gpu.hbm_bandwidth);
}

void
ServingEngine::Submit(const Request& request)
{
    POD_CHECK_ARG(request.prefill_tokens > 0, "request needs a prompt");
    POD_CHECK_ARG(request.decode_tokens >= 1,
                  "request needs at least one output token");
    POD_CHECK_ARG(states_.empty() ||
                      request.arrival_time >=
                          states_.back().request.arrival_time,
                  "submissions must be ordered by arrival time");
    RequestState state;
    state.request = request;
    states_.push_back(state);

    if (trace_) {
        trace_->Instant(telemetry::EventKind::kArrival,
                        request.arrival_time,
                        telemetry::TraceRecorder::RequestTrack(request.id),
                        request.prefill_tokens, request.decode_tokens);
    }

    prefill_tokens_pending_ += request.prefill_tokens;
    pending_unadmitted_blocks_ +=
        kv_->BlocksFor(request.prefill_tokens + request.decode_tokens);
    SyncArrivals();
}

void
ServingEngine::SyncArrivals()
{
    while (arrived_mark_ < states_.size() &&
           states_[arrived_mark_].request.arrival_time <= now_) {
        ++arrived_mark_;
    }
}

void
ServingEngine::ApplyAdmissions(const SchedulingDecision& decision,
                               size_t first)
{
    for (const auto& a : decision.admissions) {
        const int idx = a.req_index;
        // FCFS admissions are exactly the next never-admitted indices,
        // and the scheduler advanced admitted_end_ past them.
        POD_ASSERT(static_cast<size_t>(idx) == first++);
        const RequestState& state = states_[static_cast<size_t>(idx)];
        if (trace_) {
            trace_->Instant(
                telemetry::EventKind::kAdmit, now_,
                telemetry::TraceRecorder::RequestTrack(state.request.id),
                state.PrefillTarget());
        }
        ++running_;
        decode_tokens_pending_ += state.request.decode_tokens;
        // Prompt tokens served from the prefix cache never execute.
        prefill_tokens_pending_ -= a.cached_tokens;
        pending_unadmitted_blocks_ -=
            kv_->BlocksFor(state.request.prefill_tokens +
                           state.request.decode_tokens);
    }
    POD_ASSERT(first == admitted_end_);
    // Admission never outruns arrival (FCFS stops at future requests).
    if (arrived_mark_ < admitted_end_) arrived_mark_ = admitted_end_;
}

double
ServingEngine::ApplyLifecycleTransitions(
    const SchedulingDecision& decision)
{
    double swap_bytes = 0.0;

    for (const auto& t : decision.restores) {
        RequestState& state = states_[static_cast<size_t>(t.req_index)];
        if (trace_) {
            trace_->Instant(
                telemetry::EventKind::kRestore, now_,
                telemetry::TraceRecorder::RequestTrack(state.request.id),
                t.blocks, t.mode == PreemptMode::kSwap ? 1 : 0);
        }
        ++running_;
        --preempted_now_;
        decode_tokens_pending_ +=
            state.request.decode_tokens - state.decoded;
        // The restore reserved exactly the blocks the preemption
        // queued as latent demand (swap footprint / prefill target).
        // A prefix hit covers part of the target from cache, so the
        // reservation shrank by exactly the cached blocks.
        prefill_tokens_pending_ -= t.cached_tokens;
        pending_preempted_blocks_ -=
            t.blocks + kv_->BlocksFor(t.cached_tokens);
        if (t.mode == PreemptMode::kSwap) {
            swap_bytes += static_cast<double>(t.blocks) *
                          kv_->BlockSize() * kv_bytes_per_token_;
        }
    }

    for (const auto& t : decision.preemptions) {
        RequestState& state = states_[static_cast<size_t>(t.req_index)];
        if (trace_) {
            trace_->Instant(
                t.mode == PreemptMode::kRecompute
                    ? telemetry::EventKind::kPreemptRecompute
                    : telemetry::EventKind::kPreemptSwap,
                now_,
                telemetry::TraceRecorder::RequestTrack(state.request.id),
                t.blocks);
        }
        --running_;
        ++preempted_now_;
        ++state.preempt_count;
        decode_tokens_pending_ -=
            state.request.decode_tokens - state.decoded;
        if (t.mode == PreemptMode::kRecompute) {
            ++counters_.preemptions_recompute;
            // The context (prompt + generated tokens) must be
            // re-prefilled; fold the restored work into the pending
            // prefill counter.
            prefill_tokens_pending_ -=
                state.PrefillTarget() - state.prefilled;
            state.recompute_extra = state.decoded;
            state.prefilled = 0;
            prefill_tokens_pending_ +=
                state.PrefillTarget() - state.prefilled;
            // Re-admission will reserve the new prefill target.
            pending_preempted_blocks_ +=
                kv_->BlocksFor(state.PrefillTarget());
        } else {
            ++counters_.preemptions_swap;
            // Swap-in will restore the evicted footprint verbatim.
            pending_preempted_blocks_ += t.blocks;
            swap_bytes += static_cast<double>(t.blocks) *
                          kv_->BlockSize() * kv_bytes_per_token_;
        }
    }

    // Roofline of the host transfer: the slower of the PCIe link and
    // HBM feeding it (in practice PCIe-bound).
    double swap_time = swap_bytes / swap_bandwidth_;
    counters_.swap_time_total += swap_time;
    return swap_time;
}

void
ServingEngine::RecordTbt(RequestState& state)
{
    const double gap = now_ - state.last_token_time;
    tbt_.Add(gap);
    state.max_tbt = std::max(state.max_tbt, gap);
}

void
ServingEngine::FinishRequest(RequestState& state)
{
    if (trace_) {
        trace_->Instant(
            telemetry::EventKind::kFinish, now_,
            telemetry::TraceRecorder::RequestTrack(state.request.id),
            state.decoded);
    }
    state.phase = Phase::kFinished;
    state.finish_time = now_;
    kv_->Release(state.request.id);
    ++finished_;
    --running_;
}

StepResult
ServingEngine::Step()
{
    POD_ASSERT(kv_.has_value());  // the constructor calls Reset()
    StepResult result;
    result.start = now_;

    // active_begin = 0 is always valid; the schedulers keep their own
    // queues and read it only on the reset admitted_end_ == 0 signals.
    const size_t admitted_before = admitted_end_;
    SchedulingDecision decision =
        scheduler_->Next(now_, states_, *kv_, 0, admitted_end_);
    ApplyAdmissions(decision, admitted_before);
    const double swap_time = ApplyLifecycleTransitions(decision);
    result.swap_time = swap_time;
    const ScheduledBatch& batch = decision.batch;
    if (batch.Empty()) {
        // An empty batch implies no lifecycle activity: admitted and
        // restored requests always contribute work, and preemption
        // only happens while scheduling decodes.
        POD_ASSERT(decision.admissions.empty() &&
                   decision.restores.empty() &&
                   decision.preemptions.empty());
        POD_ASSERT(preempted_now_ == 0);
        // Nothing runnable: jump to the next queued arrival (the
        // first unadmitted entry beyond the arrived mark).
        POD_ASSERT_MSG(arrived_mark_ < states_.size(),
                       "scheduler stuck with %zu unfinished requests",
                       states_.size() - finished_);
        now_ = states_[arrived_mark_].request.arrival_time;
        SyncArrivals();
        result.kv_utilization = kv_->Utilization();
        return result;
    }

    // Swap transfers serialize with the iteration (vLLM blocks on
    // them), so they stretch this iteration's latency. Zero under
    // the conservative policy.
    const model::IterationBreakdown cost = IterationCost(batch, states_);
    counters_.sim_attn_seconds += cost.attn_total;
    counters_.sim_linear_seconds += cost.linear;
    counters_.sim_logits_seconds += cost.logits;
    counters_.sim_overhead_seconds += cost.overhead;
    double dt = cost.total + swap_time;
    now_ += dt;
    ++iterations_;
    total_batch_tokens_ += batch.TotalTokens();
    if (trace_) {
        trace_->Span(telemetry::EventKind::kIteration, result.start, dt,
                     telemetry::TraceRecorder::kEngineTrack,
                     batch.TotalTokens(),
                     static_cast<int64_t>(batch.decodes.size()));
    }

    // Apply prefill progress.
    for (const auto& p : batch.prefills) {
        RequestState& state = states_[static_cast<size_t>(p.req_index)];
        if (trace_) {
            trace_->Span(
                telemetry::EventKind::kPrefillChunk, result.start, dt,
                telemetry::TraceRecorder::RequestTrack(state.request.id),
                p.chunk_len, p.kv_len_after);
        }
        state.prefilled += p.chunk_len;
        prefill_tokens_pending_ -= p.chunk_len;
        counters_.prefill_tokens_processed += p.chunk_len;
        POD_ASSERT(state.prefilled <= state.PrefillTarget());
        if (state.PrefillDone()) {
            // The prompt's KV is fully on-device now: a caching
            // allocator promotes its blocks into the prefix cache
            // (no-op for cacheless policies).
            kv_->OnPrefillComplete(state);
            // The completing iteration emits one output token: the
            // first for a fresh prompt, the next for a request whose
            // context a recompute preemption restored.
            if (state.decoded == 0) {
                state.decoded = 1;
                state.first_token_time = now_;
            } else {
                state.decoded += 1;
                RecordTbt(state);
            }
            decode_tokens_pending_ -= 1;
            counters_.decode_tokens_processed += 1;
            state.last_token_time = now_;
            if (state.decoded >= state.request.decode_tokens) {
                FinishRequest(state);
            }
        }
    }

    // Apply decode progress.
    for (int idx : batch.decodes) {
        RequestState& state = states_[static_cast<size_t>(idx)];
        state.decoded += 1;
        if (trace_) {
            trace_->Instant(
                telemetry::EventKind::kDecodeToken, now_,
                telemetry::TraceRecorder::RequestTrack(state.request.id),
                state.decoded);
        }
        decode_tokens_pending_ -= 1;
        counters_.decode_tokens_processed += 1;
        RecordTbt(state);
        state.last_token_time = now_;
        if (state.decoded >= state.request.decode_tokens) {
            FinishRequest(state);
        }
    }

    SyncArrivals();

    result.progressed = true;
    result.duration = dt;
    result.kv_utilization = kv_->Utilization();
    busy_seconds_ += dt;
    kv_peak_ = std::max(kv_peak_, result.kv_utilization);
    kv_util_sum_ += result.kv_utilization;
    return result;
}

double
ServingEngine::NextEventTime() const
{
    if (running_ > 0) return now_;
    if (preempted_now_ > 0) return now_;  // awaiting re-admission
    if (arrived_mark_ > admitted_end_) return now_;  // waiting work
    if (arrived_mark_ < states_.size()) {
        return states_[arrived_mark_].request.arrival_time;
    }
    return std::numeric_limits<double>::infinity();
}

ReplicaSnapshot
ServingEngine::Snapshot() const
{
    POD_ASSERT(kv_.has_value());  // the constructor calls Reset()
    ReplicaSnapshot snap;
    snap.gpu_name = config_.gpu.name;
    snap.now = now_;
    snap.submitted = static_cast<int>(states_.size());
    snap.finished = static_cast<int>(finished_);
    snap.outstanding = snap.submitted - snap.finished;
    snap.waiting = static_cast<int>(arrived_mark_ - admitted_end_);
    snap.running = running_;
    snap.preempted = preempted_now_;
    snap.prefill_tokens_pending = prefill_tokens_pending_;
    snap.decode_tokens_pending = decode_tokens_pending_;
    snap.iterations = iterations_;
    snap.kv_utilization = kv_->Utilization();
    snap.kv_free_blocks = kv_->FreeBlocks();
    snap.kv_total_blocks = kv_->TotalBlocks();
    if (kv_->TotalBlocks() > 0) {
        snap.kv_pressure =
            snap.kv_utilization +
            static_cast<double>(pending_unadmitted_blocks_ +
                                pending_preempted_blocks_) /
                static_cast<double>(kv_->TotalBlocks());
    }
    snap.kv_watermark_headroom = kv_->WatermarkHeadroom();
    return snap;
}

EngineCounters
ServingEngine::Counters() const
{
    EngineCounters counters = counters_;
    counters.attn_cache_entries = static_cast<long>(attn_cache_.size());
    if (const prefix::PrefixCache* cache = kv_->Cache()) {
        const prefix::PrefixCacheStats& ps = cache->Stats();
        counters.prefix_hits = ps.hits;
        counters.prefix_misses = ps.misses;
        counters.prefix_hit_blocks = ps.hit_blocks;
        counters.prefix_evicted_blocks = ps.evicted_blocks;
        counters.prefix_cached_blocks = ps.cached_blocks;
        counters.prefix_shared_blocks = ps.shared_blocks;
        counters.prefix_tokens_saved = ps.prefill_tokens_saved;
    }
    return counters;
}

MetricsReport
ServingEngine::Report() const
{
    POD_CHECK_ARG(Done(), "Report() requires all requests finished");
    MetricsReport report =
        CollectMetrics(states_, tbt_, now_, iterations_,
                       total_batch_tokens_);
    report.system = scheduler_->Name();
    static_cast<EngineCounters&>(report) = Counters();
    return report;
}

MetricsReport
ServingEngine::Run(std::vector<Request> requests)
{
    POD_CHECK_ARG(!requests.empty(), "need at least one request");
    // ArrivalOrder is total (ties by id), so skipping the sort of an
    // already-sorted trace changes nothing.
    if (!std::is_sorted(requests.begin(), requests.end(), ArrivalOrder)) {
        std::sort(requests.begin(), requests.end(), ArrivalOrder);
    }

    Reset();
    for (const Request& request : requests) Submit(request);
    while (!Done()) Step();
    return Report();
}

}  // namespace pod::serve
