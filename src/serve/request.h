/**
 * @file
 * Inference requests and their runtime state in the serving engine.
 */
#ifndef POD_SERVE_REQUEST_H
#define POD_SERVE_REQUEST_H

#include <cstdint>
#include <vector>

namespace pod::serve {

/**
 * One contiguous span of identical prompt content. Two requests share
 * a prompt prefix exactly when their leading segments agree (same
 * content_id and token count, in order) — the simulator's stand-in
 * for token-level equality, which the prefix cache (serve/prefix/)
 * hashes into block-granular identities.
 */
struct PromptSegment
{
    /** Content identity (e.g. a hashed system prompt or reply). */
    uint64_t content_id = 0;

    /** Length of the span in tokens; must be >= 1. */
    int tokens = 0;
};

/** One inference request as generated by a workload trace. */
struct Request
{
    /** Trace-unique id. */
    int id = 0;

    /** Arrival time in seconds (0 for offline workloads). */
    double arrival_time = 0.0;

    /** Prompt length in tokens (prefill work). */
    int prefill_tokens = 0;

    /** Output length in tokens (decode work, includes the first
     * token produced by the prefill's last iteration). */
    int decode_tokens = 1;

    /**
     * Prompt content identity, as ordered segments summing to
     * prefill_tokens. Empty means opaque content: the prompt shares
     * nothing with any other request, so the prefix cache treats it
     * as a guaranteed miss (every pre-existing trace generator emits
     * opaque prompts, keeping legacy workloads bit-identical).
     */
    std::vector<PromptSegment> prompt;

    /** Conversation this request belongs to (-1 = standalone). */
    int session_id = -1;

    /** Turn index within the session (0 for the opening turn). */
    int turn = 0;
};

/**
 * Canonical trace order: by arrival, ties by id. Both engine Run()
 * paths sort with this so tied arrivals order identically on every
 * STL implementation.
 */
inline bool
ArrivalOrder(const Request& a, const Request& b)
{
    return a.arrival_time != b.arrival_time
               ? a.arrival_time < b.arrival_time
               : a.id < b.id;
}

/**
 * Request lifecycle (docs/DESIGN.md S2):
 *
 *   Queued -> Running -> Finished
 *               |  ^
 *               v  |  (KvPolicy::kWatermark only)
 *     PreemptedRecompute / PreemptedSwapped
 *
 * A preempted request's KV blocks are evicted; re-admission either
 * re-runs its prefill over prompt + already-generated tokens
 * (recompute) or restores the evicted blocks and charges PCIe
 * transfer time (swap). The conservative allocator never preempts,
 * so under it the lifecycle collapses to Queued -> Running ->
 * Finished — exactly the pre-redesign behaviour.
 */
enum class Phase {
    kQueued,              ///< Submitted, no KV reservation yet.
    kRunning,             ///< Admitted and holding KV blocks.
    kPreemptedRecompute,  ///< Evicted; must re-prefill its context.
    kPreemptedSwapped,    ///< Evicted to host memory; swaps back in.
    kFinished,            ///< All output tokens produced.
};

/** Mutable per-request execution state tracked by the engine. */
struct RequestState
{
    Request request;

    /** Lifecycle phase (see Phase). */
    Phase phase = Phase::kQueued;

    /** Prompt tokens already prefilled (toward PrefillTarget()). */
    int prefilled = 0;

    /** Output tokens already produced. */
    int decoded = 0;

    /**
     * Restore bookkeeping: tokens beyond the original prompt that a
     * recompute re-prefill must cover (the KV of already-generated
     * output tokens is rebuilt together with the prompt, vLLM's
     * recompute semantics). 0 unless the request was recompute-
     * preempted.
     */
    int recompute_extra = 0;

    /** Times this request was preempted (either mode). */
    int preempt_count = 0;

    /** Time the first output token appeared (-1 until then). */
    double first_token_time = -1.0;

    /** Time of the most recent output token. */
    double last_token_time = -1.0;

    double finish_time = -1.0;

    /**
     * Largest inter-token gap so far (seconds; 0 before the second
     * token). The gaps themselves live in ServingEngine::Tbt().
     */
    double max_tbt = 0.0;

    /** Holding KV blocks and schedulable. */
    bool Admitted() const { return phase == Phase::kRunning; }

    bool Finished() const { return phase == Phase::kFinished; }

    /** Evicted and awaiting re-admission (either preempt mode). */
    bool
    Preempted() const
    {
        return phase == Phase::kPreemptedRecompute ||
               phase == Phase::kPreemptedSwapped;
    }

    /**
     * Prefill tokens this request must process before decoding:
     * the prompt, plus any generated-token KV a recompute preemption
     * requires rebuilt.
     */
    int PrefillTarget() const
    {
        return request.prefill_tokens + recompute_extra;
    }

    /** Prompt (and restored context) fully processed? */
    bool PrefillDone() const { return prefilled >= PrefillTarget(); }

    /** Still has output tokens to produce? */
    bool
    DecodePending() const
    {
        return PrefillDone() && decoded < request.decode_tokens;
    }

    /**
     * Current KV length (context so far). The first
     * `recompute_extra` generated tokens are rebuilt by the re-run
     * prefill (they are inside `prefilled`), so only output tokens
     * beyond that count again; with no preemption this is the plain
     * prefilled + decoded.
     */
    int
    ContextLen() const
    {
        int fresh_decoded =
            decoded > recompute_extra ? decoded - recompute_extra : 0;
        return prefilled + fresh_decoded;
    }
};

}  // namespace pod::serve

#endif  // POD_SERVE_REQUEST_H
