/**
 * @file
 * Iteration-level batch schedulers (paper S2.1, Fig. 2).
 *
 * The engine asks the scheduler for the next batch each iteration.
 * Two policies from the paper:
 *
 *  - VllmScheduler: the original vLLM prefill-prioritizing policy.
 *    Whenever prompts wait, it runs a prefill-only iteration over
 *    whole prompts, pausing all decodes (low TTFT, generation stalls
 *    -> high tail TBT).
 *  - SarathiScheduler: chunked prefills + stall-free hybrid batching.
 *    Every iteration carries all running decodes plus prefill chunks
 *    filling the remaining token budget (bounded TBT, higher TTFT).
 *
 * Next() returns a SchedulingDecision: the batch to execute plus the
 * request-lifecycle transitions the scheduler performed against the
 * KvAllocator while forming it — admissions, preempted-request
 * restores, and ordered preemptions. The scheduler mutates only
 * phases and the allocator; the engine applies the progress, counter
 * and timing consequences (docs/DESIGN.md S2).
 *
 * Both schedulers keep their request queues across calls
 * (SchedulerQueues), as vLLM and Sarathi-Serve keep waiting /
 * running / swapped queues, so a call visits only the requests it
 * schedules or transitions instead of rescanning every admitted one.
 */
#ifndef POD_SERVE_SCHEDULER_H
#define POD_SERVE_SCHEDULER_H

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "serve/kv_allocator.h"
#include "serve/request.h"

namespace pod::serve {

/** The batch chosen for one iteration. */
struct ScheduledBatch
{
    /** One prefill chunk of a request. */
    struct PrefillChunk
    {
        /** Index into the engine's request-state array. */
        int req_index = 0;

        /** Tokens of the prompt processed this iteration. */
        int chunk_len = 0;

        /** KV length after this chunk (context the chunk attends). */
        int kv_len_after = 0;
    };

    std::vector<PrefillChunk> prefills;

    /** Request-state indices decoding this iteration. */
    std::vector<int> decodes;

    bool Empty() const { return prefills.empty() && decodes.empty(); }

    /** Total new tokens in this batch. */
    int
    TotalTokens() const
    {
        int tokens = static_cast<int>(decodes.size());
        for (const auto& p : prefills) tokens += p.chunk_len;
        return tokens;
    }
};

/**
 * One scheduler iteration's output: the batch plus every lifecycle
 * transition performed while forming it.
 */
struct SchedulingDecision
{
    /** A request moving between the running set and a preempted /
     * queued phase. `blocks` is the on-device block count moved
     * (the swap transfer size when mode == kSwap). */
    struct Transition
    {
        int req_index = 0;
        PreemptMode mode = PreemptMode::kRecompute;
        long blocks = 0;

        /** Prompt tokens the re-admission served from a prefix cache
         * (already credited to state.prefilled; 0 on preemptions and
         * under cacheless policies). */
        int cached_tokens = 0;
    };

    /** A request entering the running set for the first time. */
    struct Admission
    {
        int req_index = 0;

        /** Prompt tokens served from a prefix cache (already
         * credited to state.prefilled; 0 under cacheless policies). */
        int cached_tokens = 0;
    };

    ScheduledBatch batch;

    /** Queued -> Running, in admission (FCFS) order. */
    std::vector<Admission> admissions;

    /** Preempted* -> Running, in restore order. */
    std::vector<Transition> restores;

    /** Running -> Preempted*, in eviction order. */
    std::vector<Transition> preemptions;
};

/** Scheduler interface. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Choose the next batch and perform admission / restore /
     * eviction against the allocator.
     *
     * Contract on an empty batch: returning an empty batch tells the
     * engine nothing is runnable, so it must coincide with an empty
     * decision (no admissions, restores or preemptions) and no
     * request may be left in a preempted phase — the engine responds
     * by jumping the clock to the next queued arrival and asserts
     * these invariants. Both in-tree schedulers satisfy this
     * structurally (an admitted or restored request always
     * contributes prefill or decode work to the batch).
     *
     * The in-tree schedulers keep their queues across calls and rely
     * on the caller mutating `requests` only as the engine does:
     * appending arrivals in arrival order, applying the batch's
     * progress, finishing requests and resetting recompute victims.
     *
     * @param now current time (requests with arrival_time > now are
     *        invisible).
     * @param requests all request states (the scheduler moves
     *        phases; the engine applies everything else).
     * @param kv allocation policy for admission control, incremental
     *        growth and eviction.
     * @param active_begin first index that may be unfinished (every
     *        request before it has finished); 0 is always valid. The
     *        in-tree schedulers read it only on a reset, to place
     *        their FCFS queue head. No default: default arguments on
     *        virtuals bind by static type and would silently pin
     *        overrides to the base value.
     * @param admitted_end in/out watermark one past the highest index
     *        ever admitted; the scheduler raises it as it admits. The
     *        caller owns the value across calls and resets it to 0
     *        with its request vector: 0 tells a queue-keeping
     *        scheduler that `requests` is a fresh vector and its
     *        queues must start empty (nothing has been admitted).
     */
    virtual SchedulingDecision Next(double now,
                                    std::vector<RequestState>& requests,
                                    KvAllocator& kv, size_t active_begin,
                                    size_t& admitted_end) = 0;

    /**
     * Single-shot convenience (tests, exploratory callers): passes a
     * throwaway non-zero watermark, so it never signals a reset. A
     * fresh scheduler starts from empty queues; repeated calls on one
     * vector continue from the previous call's queues.
     */
    SchedulingDecision
    Next(double now, std::vector<RequestState>& requests, KvAllocator& kv,
         size_t active_begin)
    {
        size_t admitted_end = requests.size();
        return Next(now, requests, kv, active_begin, admitted_end);
    }

    /** Policy name for reports. */
    virtual std::string Name() const = 0;
};

/**
 * The request queues the in-tree schedulers keep across Next() calls.
 * Every queue holds request-state indices in ascending (= arrival)
 * order, which is the order the schedulers serve them in.
 *
 * Invariants at the start of a call, once the queues are synced with
 * the progress the caller applied since the previous call:
 *  - every index below `head` was admitted at some point; `head` and
 *    everything past it never was (admission is strictly FCFS);
 *  - `prefilling` is exactly the running requests whose prompt (or
 *    recompute context) is not fully prefilled;
 *  - `decoding` holds every running request whose prompt is done,
 *    plus requests that finished since the last decode pass (dropped
 *    when that pass walks them);
 *  - `preempted` is exactly the evicted requests awaiting restore.
 */
struct SchedulerQueues
{
    std::vector<int> decoding;
    std::deque<int> prefilling;
    std::vector<int> preempted;

    /** First never-admitted request index (the FCFS queue head). */
    size_t head = 0;

    /**
     * Leading `prefilling` entries that got a chunk in the previous
     * call; only they can have completed their prefill since.
     */
    size_t chunked = 0;
};

/** Original vLLM scheduler (prefill-prioritizing, no chunking). */
class VllmScheduler : public Scheduler
{
  public:
    using Scheduler::Next;
    SchedulingDecision Next(double now,
                            std::vector<RequestState>& requests,
                            KvAllocator& kv, size_t active_begin,
                            size_t& admitted_end) override;

    std::string Name() const override { return "vLLM"; }

  private:
    SchedulerQueues queues_;
};

/** Sarathi-Serve scheduler (chunked prefills, hybrid batching). */
class SarathiScheduler : public Scheduler
{
  public:
    /**
     * @param token_budget per-iteration token budget; decodes count
     *        one token each, prefill chunks fill the remainder
     *        (the paper's "chunk size").
     */
    explicit SarathiScheduler(int token_budget = 512);

    using Scheduler::Next;
    SchedulingDecision Next(double now,
                            std::vector<RequestState>& requests,
                            KvAllocator& kv, size_t active_begin,
                            size_t& admitted_end) override;

    std::string Name() const override { return "Sarathi"; }

  private:
    int token_budget_;
    SchedulerQueues queues_;
};

}  // namespace pod::serve

#endif  // POD_SERVE_SCHEDULER_H
