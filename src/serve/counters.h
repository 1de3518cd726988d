/**
 * @file
 * The engine counter schema: every serve/cluster counter declared
 * once (docs/OBSERVABILITY.md "Engine counters").
 *
 * POD_ENGINE_COUNTERS lists each counter as
 * X(type, field, registry name, kind). The list generates the fields
 * of EngineCounters, its field-wise operator+= (the cluster rollup)
 * and the FillCounters publisher, so adding a counter is one line
 * here plus its increment site.
 */
#ifndef POD_SERVE_COUNTERS_H
#define POD_SERVE_COUNTERS_H

#include <string>

#include "common/telemetry/registry.h"

namespace pod::serve {

/**
 * The counter list. `kind` is the registry row kind, and kCounter
 * fields must be integral. attn_cache.entries keeps the counter kind
 * the cluster rollup always published although its value is a cache
 * size. Every field sums across replicas.
 */
#define POD_ENGINE_COUNTERS(X)                                               \
    /* Request lifecycle (docs/DESIGN.md S2). */                             \
    X(long, preemptions_recompute, "preempt.recompute", kCounter)            \
    X(long, preemptions_swap, "preempt.swap", kCounter)                      \
    /* Swap-in + swap-out PCIe time charged (seconds). */                    \
    X(double, swap_time_total, "swap.total_seconds", kGauge)                 \
    /* Sim-time split of the iterations run (docs/DESIGN.md S5.1): */     \
    /* with swap.total_seconds it sums to the busy sim time. */             \
    X(double, sim_attn_seconds, "sim_time.attn_seconds", kGauge)             \
    X(double, sim_linear_seconds, "sim_time.linear_seconds", kGauge)         \
    X(double, sim_logits_seconds, "sim_time.logits_seconds", kGauge)         \
    X(double, sim_overhead_seconds, "sim_time.overhead_seconds", kGauge)     \
    /* Attention memo cache (docs/DESIGN.md S5.4); entries is the */         \
    /* current cache size, which survives Reset(). A miss is the first */    \
    /* lookup of a signature on this replica, served from the fleet */       \
    /* table or simulated. */                                                \
    X(long, attn_cache_entries, "attn_cache.entries", kCounter)              \
    X(long, attn_cache_hits, "attn_cache.hits", kCounter)                    \
    X(long, attn_cache_misses, "attn_cache.misses", kCounter)                \
    /* Sim-core events of memo-cache misses, as simulated or as stored */    \
    /* in the fleet table (docs/DESIGN.md S3.2). */                          \
    X(long, sim_fastpath_events, "sim_core.fastpath_events", kCounter)       \
    X(long, sim_fallback_events, "sim_core.fallback_events", kCounter)       \
    /* Work executed. Prefix-cache hits are never prefilled, so */           \
    /* processed + saved prefill = submitted prefill when no request */      \
    /* is recompute-preempted (the fig15 P:D shift). */                      \
    X(long, prefill_tokens_processed, "tokens.prefill_processed",            \
      kCounter)                                                              \
    X(long, decode_tokens_processed, "tokens.decode_processed", kCounter)    \
    /* Prefix cache (docs/DESIGN.md S2.6); zero when it is off. */           \
    X(long, prefix_hits, "kv_prefix.hits", kCounter)                         \
    X(long, prefix_misses, "kv_prefix.misses", kCounter)                     \
    X(long, prefix_hit_blocks, "kv_prefix.hit_blocks", kCounter)             \
    X(long, prefix_evicted_blocks, "kv_prefix.evicted_blocks", kCounter)     \
    X(long, prefix_cached_blocks, "kv_prefix.cached_blocks", kGauge)         \
    X(long, prefix_shared_blocks, "kv_prefix.shared_blocks", kGauge)         \
    X(long, prefix_tokens_saved, "kv_prefix.tokens_saved", kCounter)

/**
 * One engine's counters since its last Reset() (attn_cache_entries
 * and the prefix cache's block gauges are current sizes), or their
 * sum over a fleet.
 */
struct EngineCounters
{
#define POD_DECLARE_COUNTER(type, field, name, kind) type field = 0;
    POD_ENGINE_COUNTERS(POD_DECLARE_COUNTER)
#undef POD_DECLARE_COUNTER

    /** Field-wise sum (the cluster rollup). */
    EngineCounters& operator+=(const EngineCounters& other);

    /** Memo-cache hits / lookups; 0 when no lookups happened. */
    double AttnCacheHitRate() const;

    /** Prefix-cache hits / hashable admissions; 0 when none. */
    double PrefixHitRate() const;
};

/**
 * Publish one row per listed counter as `<prefix><registry name>`
 * with its listed kind, plus the `attn_cache.hit_rate` and
 * `kv_prefix.hit_rate` gauges.
 */
void FillCounters(const EngineCounters& counters,
                  telemetry::MetricRegistry& registry,
                  const std::string& prefix);

}  // namespace pod::serve

#endif  // POD_SERVE_COUNTERS_H
