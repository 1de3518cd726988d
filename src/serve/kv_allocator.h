/**
 * @file
 * The serving engine's KV-cache allocator (docs/DESIGN.md S2).
 *
 * One class owns the block pool and the admission/growth/eviction
 * rules over it. Its inputs select the rule set:
 *
 *  - KvPolicy::kConservative (default): a request reserves blocks for
 *    its full prompt plus maximum output up front, so growth never
 *    allocates and preemption is never needed. This is the
 *    pre-redesign behaviour, kept bit-identical.
 *  - KvPolicy::kWatermark: vLLM semantics. Admission reserves the
 *    prefill target only and is gated on a free-block watermark;
 *    decode tokens grow the reservation one block at a time as they
 *    materialize (TryAppend); under pressure the scheduler
 *    evicts victims (Evict), which either re-prefill their context
 *    (recompute) or park their blocks in host memory and pay PCIe
 *    transfer time both ways (swap).
 *  - Prefix caching (either policy; docs/DESIGN.md S2.6): admission
 *    first matches the request's chained block hashes against a radix
 *    cache (serve/prefix/prefix_cache.h) and reserves private blocks
 *    only for the unmatched remainder, so a hit converts prefill work
 *    into decode-shaped work (the paper's fig15 P:D shift). When the
 *    prompt's prefill completes, its full blocks migrate into the
 *    pool's shared account and the tree; duplicates an earlier
 *    request already cached are dropped. Under pool pressure —
 *    admission gate or decode growth — refcount-0 cache subtrees are
 *    LRU-evicted before any running request is preempted.
 *
 * Each rule exists once: the reservation (full context, prefill
 * target or swapped footprint, minus cache-covered blocks), the
 * admission gate (watermark 0 under kConservative), the growth need
 * (BlocksFor(context + 1) - covered - held) and the worst-case fit.
 *
 * Only PreemptMode::kRecompute combines with the prefix cache. Swap
 * would park a victim's *shared* blocks on the host while other live
 * requests still reference them on-device, splitting one block's
 * identity in two; recompute simply drops the references (the nodes
 * stay cached at refcount 0, so re-admission usually re-matches and
 * the recompute is cheap). The scheduler's frontmost-decoder
 * guarantee survives: after evicting every other decoder, all cached
 * blocks not referenced by the frontmost request have refcount 0, so
 * free + evictable >= CheckFits' worst-case footprint.
 *
 * The pool ledger lives here too: a used-block count, a shared
 * account for cached prompt blocks (owned by no single request), and
 * one record per request holding its on-device reservation, its
 * swapped-out footprint and its hash chain. Every ledger misuse
 * (double reservation, freeing or growing a request that holds
 * none, a shared-account underflow, a transfer larger than the
 * blocks held) is fatal rather than silently absorbed, so policy
 * bugs surface at the call site.
 */
#ifndef POD_SERVE_KV_ALLOCATOR_H
#define POD_SERVE_KV_ALLOCATOR_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "serve/prefix/prefix_cache.h"
#include "serve/request.h"

namespace pod::serve {

/** How an evicted request's KV is recovered on re-admission. */
enum class PreemptMode {
    kRecompute,  ///< Drop the KV; re-run prefill over the context.
    kSwap,       ///< Park blocks in host memory; PCIe both ways.
};

/** Allocation policy selector (ServingConfig::kv_policy). */
enum class KvPolicy {
    kConservative,  ///< Whole-request up-front reservation (default).
    kWatermark,     ///< vLLM watermark admission + preemption.
};

/** KV admission, growth and eviction over one block pool. */
class KvAllocator
{
  public:
    /**
     * @param total_blocks capacity of the device KV pool; must be
     *        >= 1 (a zero-capacity pool would make every admission
     *        path a silent no-op) and small enough that the pool's
     *        token capacity `total_blocks * block_size` fits in a
     *        long.
     * @param block_size tokens per block.
     * @param watermark fraction of the pool that must stay free
     *        after an admission (vLLM's `watermark`); kWatermark
     *        only, forced to 0 under kConservative.
     * @param preempt_mode how the scheduler should evict victims
     *        (kWatermark only; must be kRecompute with the prefix
     *        cache on).
     * @param prefix_cache_enabled match and cache prompt blocks in a
     *        radix prefix cache. Off builds no cache and hashes
     *        nothing.
     */
    KvAllocator(KvPolicy policy, long total_blocks, int block_size,
                double watermark = 0.0,
                PreemptMode preempt_mode = PreemptMode::kRecompute,
                bool prefix_cache_enabled = false);

    /**
     * Try to move a request into the running set, reserving the
     * blocks the policy requires up front. Handles all admissible
     * phases: kQueued (fresh or recompute-restored context) and
     * kPreemptedSwapped / kPreemptedRecompute (re-admission).
     * @return true and the reservation is made; false leaves the
     *         pool untouched.
     */
    bool TryAdmit(const RequestState& state);

    /**
     * Grow the running request's reservation by the one token the
     * next iteration materializes (context ContextLen() + 1). Always
     * succeeds under kConservative: the admission reserved the full
     * context. Dead cache subtrees count as headroom and are
     * LRU-evicted only when the growth then fits, so a block parked
     * at refcount 0 never forces a preemption. Fatal if the growth
     * needs a block and the request holds no reservation.
     * @return true and the growth is made; false leaves the pool,
     *         the cache and the record untouched.
     */
    bool
    TryAppend(const RequestState& state)
    {
        return policy_ == KvPolicy::kConservative || TryGrow(state);
    }

    /**
     * Evict a running request's blocks (preemption). In kSwap mode
     * the footprint is remembered so re-admission restores it
     * exactly; in kRecompute mode it is simply dropped (cache
     * references too; the cached nodes stay). Fatal under
     * kConservative, which never preempts.
     * @return blocks freed (the swap-out transfer size).
     */
    long Evict(const RequestState& state, PreemptMode mode);

    /** Release a finished request's blocks and cache references. */
    void Release(int request_id);

    /**
     * Prompt tokens the most recent successful TryAdmit() served
     * from the prefix cache (0 without it). The scheduler credits
     * them as already-prefilled before building the batch.
     */
    int LastAdmitCachedTokens() const { return last_admit_cached_tokens_; }

    /**
     * The request's prefill just completed (engine progress loop):
     * insert the prompt's full blocks into the prefix cache. No-op
     * without it.
     */
    void OnPrefillComplete(const RequestState& state);

    /** The radix prefix cache (its Stats() feed the kv_prefix.*
     * telemetry), or nullptr when prefix caching is off. */
    const prefix::PrefixCache* Cache() const { return cache_.get(); }

    /**
     * Fatal if the request could never be admitted even against an
     * empty pool: its worst-case on-device footprint (the whole
     * context, all private) plus the admission watermark exceeds the
     * pool. Guards the scheduler against spinning forever on an
     * impossible request.
     */
    void CheckFits(const RequestState& state) const;

    KvPolicy policy() const { return policy_; }

    /** How the scheduler should preempt victims. */
    PreemptMode preempt_mode() const { return preempt_mode_; }

    /** Blocks parked in host memory for a swapped-out request. */
    long SwappedBlocks(int request_id) const;

    /**
     * Audit every cross-structure invariant: per-request holdings
     * plus the shared account equal the used blocks, swapped
     * requests hold nothing on-device, and with the prefix cache the
     * tree's internal counters plus the cache-vs-shared-account
     * lockstep (tree blocks == shared blocks). Fatal on drift.
     * O(requests + tree).
     */
    void AuditLedger() const;

    // ---- pool observers ----

    /** Blocks needed to hold `tokens` tokens; `tokens` must be >= 0. */
    long BlocksFor(int tokens) const;

    long TotalBlocks() const { return total_blocks_; }
    long UsedBlocks() const { return used_blocks_; }
    long FreeBlocks() const { return total_blocks_ - used_blocks_; }
    int BlockSize() const { return block_size_; }

    /** Fraction of the pool in use. */
    double
    Utilization() const
    {
        return static_cast<double>(used_blocks_) / total_blocks_;
    }

    /** Blocks currently reserved on-device by a request. */
    long Held(int request_id) const;

    /**
     * Free-pool headroom above the admission watermark, as a
     * fraction of the pool. Negative when decode growth has eaten
     * into the watermark reserve (growth is never watermark-gated;
     * only admission is).
     */
    double
    WatermarkHeadroom() const
    {
        return static_cast<double>(FreeBlocks()) / TotalBlocks() -
               watermark_;
    }

  private:
    /** One request's KV state. Made by its first successful
     * admission, or by its first admission attempt when the prefix
     * cache hashes the prompt; erased by Release. */
    struct Record
    {
        /** Holds an on-device reservation (admission .. eviction or
         * release); a zero-block reservation still counts. */
        bool reserved = false;
        /** Private on-device blocks; 0 without a reservation. */
        long held = 0;
        /** Host-side footprint left by a swap eviction. */
        long swapped = 0;
        /** Block hash chain, computed once when the record is made
         * (prefix cache only). */
        std::vector<uint64_t> hashes;
    };

    /** The request's record, made with its hash chain on first use
     * (prefix cache only). */
    Record& HashedRecord(const RequestState& state);

    /** The record of a request holding a reservation; fatal if it
     * holds none. */
    Record& Reserved(int request_id);

    /** Return `blocks` from the shared account to the free pool.
     * Fatal if the account holds fewer (double-free guard). */
    void ReleaseShared(long blocks);

    /** TryAppend under kWatermark. */
    bool TryGrow(const RequestState& state);

    KvPolicy policy_;
    PreemptMode preempt_mode_;

    /** Admission watermark as a fraction of the pool (0 = none). */
    double watermark_;
    long watermark_blocks_;
    long total_blocks_;
    int block_size_;
    /** Blocks reserved by requests plus the shared account. */
    long used_blocks_ = 0;
    /** Cached prompt blocks, owned by no single request. */
    long shared_blocks_ = 0;
    int last_admit_cached_tokens_ = 0;

    /** The radix prefix cache; null when prefix caching is off. */
    std::unique_ptr<prefix::PrefixCache> cache_;

    /** Per-request records, by request id. */
    std::unordered_map<int, Record> records_;
};

}  // namespace pod::serve

#endif  // POD_SERVE_KV_ALLOCATOR_H
