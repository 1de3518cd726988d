/**
 * @file
 * Radix tree of cached prompt-block runs with copy-on-write refcounts
 * (vLLM/SGLang-style automatic prefix caching; docs/DESIGN.md S2.6).
 *
 * The tree is keyed on chained block hashes (serve/prefix/
 * block_hash.h): each node holds a path-compressed run of
 * consecutive block hashes, and because the hashes chain, two
 * requests' streams agree exactly up to their longest shared prefix —
 * the tree never needs to merge converging paths.
 *
 * Refcounts are walk-based: a live request referencing K cached
 * blocks holds one reference on every node of the root path covering
 * hashes [0, K). Acquire/Insert split nodes at the request's coverage
 * boundary, so at all times every holder of a node covers its entire
 * run — which is why a mid-run split can hand both halves the
 * original refcount, and why Release can rediscover the referenced
 * path purely by re-walking the hashes. A node with refcount 0 stays
 * cached (a future request can still hit it) until LRU eviction
 * reclaims it under pool pressure; eviction only ever removes
 * refcount-0 leaves with no live descendants, so a shared block is
 * never freed out from under a live request by construction.
 *
 * The cache is pure hash bookkeeping: the block *counts* it caches
 * live in the owning allocator's shared account
 * (serve/kv_allocator.h), which keeps the two in lockstep
 * (TotalBlocks() == the shared block count, audited by the
 * randomized CoW oracle test).
 */
#ifndef POD_SERVE_PREFIX_PREFIX_CACHE_H
#define POD_SERVE_PREFIX_PREFIX_CACHE_H

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace pod::serve::prefix {

/**
 * Cumulative prefix-cache statistics (the kv_prefix.* telemetry
 * rows, docs/OBSERVABILITY.md). Counters accumulate across Reset();
 * cached/shared_blocks are point-in-time gauges.
 */
struct PrefixCacheStats
{
    /** Admissions of hashable prompts that matched >= 1 block. */
    long hits = 0;

    /** Admissions of hashable prompts that matched nothing. */
    long misses = 0;

    /** Blocks served from cache across all hits. */
    long hit_blocks = 0;

    /** Blocks newly inserted into the tree. */
    long inserted_blocks = 0;

    /** Blocks reclaimed by LRU eviction. */
    long evicted_blocks = 0;

    /** Prefill tokens admissions skipped thanks to cache hits. */
    long prefill_tokens_saved = 0;

    /** Gauge: blocks currently cached in the tree. */
    long cached_blocks = 0;

    /** Gauge: cached blocks referenced by >= 2 live requests. */
    long shared_blocks = 0;

    /** Hits / (hits + misses); 0 when no hashable admissions. */
    double HitRate() const
    {
        long lookups = hits + misses;
        return lookups > 0
                   ? static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
    }
};

/** Radix prefix cache over chained block hashes. */
class PrefixCache
{
  public:
    PrefixCache();

    /**
     * Longest cached prefix of `hashes`, in blocks, capped at
     * `max_blocks`. Pure query: no refcounts move, no LRU stamps
     * update, no nodes split.
     */
    long MatchBlocks(const std::vector<uint64_t>& hashes,
                     long max_blocks) const;

    /**
     * Take one reference per node on the path covering the first
     * `blocks` hashes for request `id` (its admission-time cache
     * hit). Splits the boundary node so coverage aligns with node
     * boundaries. Fatal if the path is not fully cached or the
     * request already holds references.
     */
    void Acquire(int id, const std::vector<uint64_t>& hashes,
                 long blocks);

    /** Outcome of InsertAndRef. */
    struct InsertResult
    {
        /** Blocks newly created in the tree (the request's private
         * blocks that now become shared). */
        long new_blocks = 0;

        /** Pre-existing cached blocks beyond the request's prior
         * coverage (its private duplicates can be dropped). */
        long dedup_blocks = 0;
    };

    /**
     * Extend the tree with the request's full hash chain (called
     * when its prefill completes) and extend its references to cover
     * every hash. Blocks inside the request's prior coverage keep
     * their existing reference.
     */
    InsertResult InsertAndRef(int id,
                              const std::vector<uint64_t>& hashes);

    /**
     * Drop every reference request `id` holds by re-walking its hash
     * chain (preemption or completion). The nodes stay cached at
     * refcount 0. No-op if the request holds none.
     */
    void Release(int id, const std::vector<uint64_t>& hashes);

    /** Blocks request `id` currently references (0 if none). */
    long RefBlocks(int id) const;

    /**
     * Evict refcount-0 leaf runs, least-recently-used subtree first,
     * until `need` blocks are reclaimed or nothing evictable is
     * left. Returns blocks actually freed. Whole-node granularity
     * (path compression makes runs the natural eviction unit), so
     * the return can overshoot `need`.
     */
    long EvictLru(long need);

    /** Blocks reclaimable right now (refcount-0 subtrees). O(1). */
    long EvictableBlocks() const { return evictable_blocks_; }

    /** Blocks cached in the tree. O(1). */
    long TotalBlocks() const { return stats_.cached_blocks; }

    /** Statistics; the owning allocator also bumps the hit/miss/
     * saved counters through this reference. */
    PrefixCacheStats& Stats() { return stats_; }
    const PrefixCacheStats& Stats() const { return stats_; }

    /**
     * Audit every tree invariant from scratch against the
     * incremental counters: the evictable/cached/shared gauges,
     * refcount monotonicity along paths (which Live() relies on),
     * and the sum of per-request coverages vs total refcounts. Fatal
     * on drift. O(tree); test/debug use.
     */
    void CheckIntegrity() const;

  private:
    struct Node
    {
        /** Path-compressed run of consecutive block hashes. */
        std::vector<uint64_t> run;

        Node* parent = nullptr;

        /** Live requests whose coverage includes this whole run. */
        long refcount = 0;

        /** Monotonic touch stamp (LRU recency; unique per touch). */
        uint64_t last_use = 0;

        /** Keyed by the first hash of the child's run. std::map
         * keeps iteration deterministic for audits and eviction
         * scans. */
        std::map<uint64_t, std::unique_ptr<Node>> children;

        /** Any reference in this subtree: refcounts never grow down a
         * path (whoever covers a child covers its parent), so the
         * node's own refcount tells. */
        bool Live() const { return refcount > 0; }
    };

    /** Split `node` so its run keeps only the first `keep` hashes;
     * the remainder (run tail, children, refcount) moves to a new
     * child. Gauges are unaffected: both halves inherit liveness
     * and sharing. */
    void SplitNode(Node* node, long keep);

    /** refcount transitions; the evictable and shared gauges move on
     * 0<->1 and 1<->2 only. */
    void Ref(Node* node);
    void Unref(Node* node);

    /** Remove a dead leaf (refcount 0, no children). */
    void EvictNode(Node* node);

    Node root_;
    uint64_t clock_ = 0;
    PrefixCacheStats stats_;

    /** Coverage (referenced block count) per live request. */
    std::unordered_map<int, long> ref_blocks_;

    /** Blocks in subtrees holding no reference at all. */
    long evictable_blocks_ = 0;
};

}  // namespace pod::serve::prefix

#endif  // POD_SERVE_PREFIX_PREFIX_CACHE_H
