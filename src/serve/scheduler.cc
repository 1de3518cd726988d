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

/** Insert `index` into an ascending queue, keeping it ascending. */
template <typename Queue>
void
InsertSorted(Queue& queue, int index)
{
    queue.insert(std::upper_bound(queue.begin(), queue.end(), index),
                 index);
}

/** File a running request under the queue its prefill state picks. */
void
Enqueue(const std::vector<RequestState>& requests, int index,
        SchedulerQueues& q)
{
    if (requests[static_cast<size_t>(index)].PrefillDone()) {
        InsertSorted(q.decoding, index);
    } else {
        InsertSorted(q.prefilling, index);
    }
}

/**
 * Bring the queues up to date with the caller's progress since the
 * previous call. `admitted_end == 0` is the caller's reset signal: a
 * fresh request vector in which nothing has been admitted yet. Only
 * the prefills chunked last call can have completed since; each one
 * that did moves to the decoding queue (whose next pass drops it if
 * its completing token also finished it).
 */
void
SyncQueues(const std::vector<RequestState>& requests,
           size_t active_begin, size_t admitted_end, SchedulerQueues& q)
{
    if (admitted_end == 0) {
        q.decoding.clear();
        q.prefilling.clear();
        q.preempted.clear();
        q.head = active_begin;
        q.chunked = 0;
        return;
    }
    const auto chunked_end =
        q.prefilling.begin() + static_cast<long>(q.chunked);
    const auto done = [&](int i) {
        return requests[static_cast<size_t>(i)].PrefillDone();
    };
    for (auto it = q.prefilling.begin(); it != chunked_end; ++it) {
        if (done(*it)) InsertSorted(q.decoding, *it);
    }
    q.prefilling.erase(
        std::remove_if(q.prefilling.begin(), chunked_end, done),
        chunked_end);
    q.chunked = 0;
}

/**
 * Admission and re-admission, FCFS with head-of-line blocking.
 *
 * Every preempted request was admitted before every never-admitted
 * one, so preempted requests are restored first, in index order, and
 * a restore the allocator rejects blocks all admissions too — vLLM's
 * rule that waiting requests stay blocked while preempted work
 * exists. Admission then starts at the FCFS queue head and stops at
 * the first future arrival or the first request the allocator
 * rejects (head-of-line blocking).
 */
void
PlanAdmissions(double now, std::vector<RequestState>& requests,
               KvAllocator& kv, size_t& admitted_end, SchedulerQueues& q,
               SchedulingDecision& decision)
{
    size_t restored = 0;
    for (; restored < q.preempted.size(); ++restored) {
        const int i = q.preempted[restored];
        RequestState& state = requests[static_cast<size_t>(i)];
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
            i, mode, kv.Held(state.request.id), cached});
        Enqueue(requests, i, q);
    }
    const bool blocked = restored < q.preempted.size();
    q.preempted.erase(q.preempted.begin(),
                      q.preempted.begin() + static_cast<long>(restored));
    if (blocked) return;

    for (; q.head < requests.size(); ++q.head) {
        RequestState& state = requests[q.head];
        if (state.request.arrival_time > now) break;  // sorted by arrival
        kv.CheckFits(state);
        if (!kv.TryAdmit(state)) break;
        state.phase = Phase::kRunning;
        int cached = kv.LastAdmitCachedTokens();
        if (cached > 0) state.prefilled = cached;
        const int i = static_cast<int>(q.head);
        decision.admissions.push_back(
            SchedulingDecision::Admission{i, cached});
        Enqueue(requests, i, q);
        admitted_end = std::max(admitted_end, q.head + 1);
    }
}

/** Evict one running request and record the transition. */
void
Preempt(std::vector<RequestState>& requests, int req_index,
        KvAllocator& kv, SchedulerQueues& q, SchedulingDecision& decision)
{
    RequestState& state = requests[static_cast<size_t>(req_index)];
    PreemptMode mode = kv.preempt_mode();
    long blocks = kv.Evict(state, mode);
    state.phase = mode == PreemptMode::kSwap ? Phase::kPreemptedSwapped
                                             : Phase::kPreemptedRecompute;
    decision.preemptions.push_back(
        SchedulingDecision::Transition{req_index, mode, blocks});
    InsertSorted(q.preempted, req_index);
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
                SchedulerQueues& q, SchedulingDecision& decision)
{
    const auto state_of = [&](int i) -> const RequestState& {
        return requests[static_cast<size_t>(i)];
    };
    // Drop the requests that finished since the last pass.
    std::vector<int>& running = q.decoding;
    running.erase(std::remove_if(running.begin(), running.end(),
                                 [&](int i) {
                                     return !state_of(i).Admitted() ||
                                            !state_of(i).DecodePending();
                                 }),
                  running.end());
    size_t lo = 0;
    size_t hi = running.size();  // victims pop from the back of [lo, hi)
    while (lo < hi) {
        RequestState& state = requests[static_cast<size_t>(running[lo])];
        bool appended = kv.TryAppend(state);
        while (!appended && hi - lo > 1) {
            --hi;
            Preempt(requests, running[hi], kv, q, decision);
            appended = kv.TryAppend(state);
        }
        if (!appended) {
            Preempt(requests, running[lo], kv, q, decision);
            ++lo;
            continue;
        }
        decision.batch.decodes.push_back(running[lo]);
        ++lo;
        if (static_cast<int>(decision.batch.decodes.size()) >=
            kMaxNumSeqs) {
            break;
        }
    }
    // Victims left for the preempted queue.
    if (!decision.preemptions.empty()) {
        running.erase(std::remove_if(running.begin(), running.end(),
                                     [&](int i) {
                                         return state_of(i).Preempted();
                                     }),
                      running.end());
    }
}

}  // namespace

SchedulingDecision
VllmScheduler::Next(double now, std::vector<RequestState>& requests,
                    KvAllocator& kv, size_t active_begin,
                    size_t& admitted_end)
{
    SyncQueues(requests, active_begin, admitted_end, queues_);
    SchedulingDecision decision;
    PlanAdmissions(now, requests, kv, admitted_end, queues_, decision);
    ScheduledBatch& batch = decision.batch;

    // Prefill-prioritizing: if any admitted prompt is unprocessed,
    // run a prefill-only iteration over whole prompts (no chunking).
    // Prompt blocks were reserved at admission, so prefill-only
    // iterations never grow the pool and never preempt.
    int tokens = 0;
    for (int i : queues_.prefilling) {
        const RequestState& state = requests[static_cast<size_t>(i)];
        int remaining = state.PrefillTarget() - state.prefilled;
        if (!batch.prefills.empty() &&
            (tokens + remaining > kMaxBatchedTokens ||
             static_cast<int>(batch.prefills.size()) >= kMaxNumSeqs)) {
            break;
        }
        batch.prefills.push_back(ScheduledBatch::PrefillChunk{
            i, remaining, state.PrefillTarget()});
        tokens += remaining;
    }
    queues_.chunked = batch.prefills.size();
    if (!batch.prefills.empty()) {
        return decision;  // decodes pause: the generation stall (Fig. 2a)
    }

    ScheduleDecodes(requests, kv, queues_, decision);
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
    SyncQueues(requests, active_begin, admitted_end, queues_);
    SchedulingDecision decision;
    PlanAdmissions(now, requests, kv, admitted_end, queues_, decision);
    ScheduledBatch& batch = decision.batch;

    // All running decodes join every iteration: stall-free batching.
    ScheduleDecodes(requests, kv, queues_, decision);

    // Prefill chunks fill the remaining token budget (paper S2.1).
    // Chunks draw on blocks reserved at admission, so they never
    // allocate — a decode-evicted victim cannot be re-hit here.
    int budget =
        std::max(0, token_budget_ - static_cast<int>(batch.decodes.size()));
    for (int i : queues_.prefilling) {
        if (budget <= 0) break;
        const RequestState& state = requests[static_cast<size_t>(i)];
        int remaining = state.PrefillTarget() - state.prefilled;
        int chunk = std::min(budget, remaining);
        batch.prefills.push_back(ScheduledBatch::PrefillChunk{
            i, chunk, state.prefilled + chunk});
        budget -= chunk;
    }
    queues_.chunked = batch.prefills.size();
    return decision;
}

}  // namespace pod::serve
