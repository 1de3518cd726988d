/**
 * @file
 * Implementation of the vLLM and Sarathi-Serve schedulers.
 */
#include "serve/scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace pod::serve {

namespace {

/** vLLM's cap on prefill tokens per prefill-only iteration. */
constexpr int kMaxBatchedTokens = 16384;

/** Cap on sequences per batch, both policies. */
constexpr int kMaxNumSeqs = 256;

/**
 * Admission and re-admission, FCFS with head-of-line blocking.
 *
 * One scan in index (= arrival) order over unfinished, non-running
 * requests. Because admission is strictly FCFS, every ever-admitted
 * (hence every preempted) request precedes every never-admitted one,
 * so the scan naturally restores preempted requests before admitting
 * new arrivals — vLLM's rule that waiting requests stay blocked
 * while preempted work exists. Admission stops at the first request
 * the allocator rejects (head-of-line blocking preserved, exactly
 * the pre-redesign AdmitFcfs behaviour under the conservative
 * policy).
 */
void
PlanAdmissions(double now, std::vector<RequestState>& requests,
               KvAllocator& kv, size_t active_begin,
               size_t& admitted_end, SchedulingDecision& decision)
{
    for (size_t i = active_begin; i < requests.size(); ++i) {
        RequestState& state = requests[i];
        if (state.Finished() || state.Admitted()) continue;
        if (state.Preempted()) {
            PreemptMode mode = state.phase == Phase::kPreemptedSwapped
                                   ? PreemptMode::kSwap
                                   : PreemptMode::kRecompute;
            if (!kv.TryAdmit(state)) break;
            state.phase = Phase::kRunning;
            // A prefix hit credits cached prompt tokens as already
            // prefilled; the engine folds the same figure out of its
            // pending-work counters via the recorded transition.
            int cached = kv.LastAdmitCachedTokens();
            if (cached > 0) state.prefilled = cached;
            decision.restores.push_back(SchedulingDecision::Transition{
                static_cast<int>(i), mode, kv.Held(state.request.id),
                cached});
            continue;
        }
        if (state.request.arrival_time > now) break;  // sorted by arrival
        kv.CheckFits(state);
        if (!kv.TryAdmit(state)) break;
        state.phase = Phase::kRunning;
        int cached = kv.LastAdmitCachedTokens();
        if (cached > 0) state.prefilled = cached;
        decision.admissions.push_back(SchedulingDecision::Admission{
            static_cast<int>(i), cached});
        admitted_end = std::max(admitted_end, i + 1);
    }
    // FCFS invariant: everything at or past the watermark was never
    // admitted, so batch-building scans stop there.
    admitted_end = std::min(admitted_end, requests.size());
}

/** Evict one running request and record the transition. */
void
Preempt(std::vector<RequestState>& requests, int req_index,
        KvAllocator& kv, SchedulingDecision& decision)
{
    RequestState& state = requests[static_cast<size_t>(req_index)];
    PreemptMode mode = kv.preempt_mode();
    long blocks = kv.Evict(state, mode);
    state.phase = mode == PreemptMode::kSwap ? Phase::kPreemptedSwapped
                                             : Phase::kPreemptedRecompute;
    decision.preemptions.push_back(
        SchedulingDecision::Transition{req_index, mode, blocks});
}

/**
 * Schedule running decodes, growing each reservation for the token
 * this iteration materializes. When the pool cannot grow, victims
 * are evicted from the back of the *decoding* set (latest arrival =
 * lowest priority among decoders, vLLM's preemption order).
 * Admitted requests still mid-prefill are deliberately exempt from
 * victimhood: their prompt blocks were reserved at admission, they
 * allocate nothing per iteration, and evicting half-processed
 * prefills would burn strictly more recompute work than evicting a
 * decoder frees. The frontmost decoder can always proceed because
 * admission guaranteed its worst-case footprint fits the pool
 * (KvAllocator::CheckFits).
 */
void
ScheduleDecodes(std::vector<RequestState>& requests, KvAllocator& kv,
                size_t active_begin, size_t admitted_end,
                SchedulingDecision& decision)
{
    std::vector<int> running;
    for (size_t i = active_begin; i < admitted_end; ++i) {
        if (requests[i].Admitted() && requests[i].DecodePending()) {
            running.push_back(static_cast<int>(i));
        }
    }
    size_t lo = 0;
    size_t hi = running.size();  // victims pop from the back of [lo, hi)
    while (lo < hi) {
        RequestState& state = requests[static_cast<size_t>(running[lo])];
        while (!kv.CanAppend(state) && hi - lo > 1) {
            --hi;
            Preempt(requests, running[hi], kv, decision);
        }
        if (!kv.CanAppend(state)) {
            Preempt(requests, running[lo], kv, decision);
            ++lo;
            continue;
        }
        kv.Append(state);
        decision.batch.decodes.push_back(running[lo]);
        ++lo;
        if (static_cast<int>(decision.batch.decodes.size()) >=
            kMaxNumSeqs) {
            break;
        }
    }
}

}  // namespace

SchedulingDecision
VllmScheduler::Next(double now, std::vector<RequestState>& requests,
                    KvAllocator& kv, size_t active_begin,
                    size_t& admitted_end)
{
    SchedulingDecision decision;
    PlanAdmissions(now, requests, kv, active_begin, admitted_end,
                   decision);
    ScheduledBatch& batch = decision.batch;

    // Prefill-prioritizing: if any admitted prompt is unprocessed,
    // run a prefill-only iteration over whole prompts (no chunking).
    // Prompt blocks were reserved at admission, so prefill-only
    // iterations never grow the pool and never preempt.
    int tokens = 0;
    for (size_t i = active_begin; i < admitted_end; ++i) {
        RequestState& state = requests[i];
        if (!state.Admitted() || state.PrefillDone()) continue;
        int remaining = state.PrefillTarget() - state.prefilled;
        if (!batch.prefills.empty() &&
            (tokens + remaining > kMaxBatchedTokens ||
             static_cast<int>(batch.prefills.size()) >= kMaxNumSeqs)) {
            break;
        }
        batch.prefills.push_back(ScheduledBatch::PrefillChunk{
            static_cast<int>(i), remaining, state.PrefillTarget()});
        tokens += remaining;
    }
    if (!batch.prefills.empty()) {
        return decision;  // decodes pause: the generation stall (Fig. 2a)
    }

    ScheduleDecodes(requests, kv, active_begin, admitted_end, decision);
    return decision;
}

SarathiScheduler::SarathiScheduler(int token_budget)
    : token_budget_(token_budget)
{
    POD_CHECK_ARG(token_budget >= 1, "token budget must be >= 1");
}

SchedulingDecision
SarathiScheduler::Next(double now, std::vector<RequestState>& requests,
                       KvAllocator& kv, size_t active_begin,
                       size_t& admitted_end)
{
    SchedulingDecision decision;
    PlanAdmissions(now, requests, kv, active_begin, admitted_end,
                   decision);
    ScheduledBatch& batch = decision.batch;

    // All running decodes join every iteration: stall-free batching.
    ScheduleDecodes(requests, kv, active_begin, admitted_end, decision);

    // Prefill chunks fill the remaining token budget (paper S2.1).
    // Chunks draw on blocks reserved at admission, so they never
    // allocate — a decode-evicted victim cannot be re-hit here.
    int budget =
        std::max(0, token_budget_ - static_cast<int>(batch.decodes.size()));
    for (size_t i = active_begin; i < admitted_end && budget > 0; ++i) {
        RequestState& state = requests[i];
        if (!state.Admitted() || state.PrefillDone()) continue;
        int remaining = state.PrefillTarget() - state.prefilled;
        int chunk = std::min(budget, remaining);
        batch.prefills.push_back(ScheduledBatch::PrefillChunk{
            static_cast<int>(i), chunk, state.prefilled + chunk});
        budget -= chunk;
    }
    return decision;
}

}  // namespace pod::serve
