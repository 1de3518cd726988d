/**
 * @file
 * The attention memo cache's key and its fleet-shared second level
 * (docs/DESIGN.md S5.4).
 *
 * Every ServingEngine memoizes per-layer attention time over bucketed
 * batch signatures in a private map. Replicas whose attention cost is
 * the same function of the signature (ServingConfig::SameAttnCost)
 * can also share one AttnCostTable: on a local miss the engine asks
 * the table before it simulates, so a fleet simulates each signature
 * once instead of once per replica.
 */
#ifndef POD_SERVE_ATTN_COST_TABLE_H
#define POD_SERVE_ATTN_COST_TABLE_H

#include <cstddef>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace pod::serve {

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

/** One simulated signature: per-layer attention time plus the
 * sim-core events the simulation took (charged to every replica that
 * first looks the signature up). */
struct AttnCost
{
    double total_time = 0.0;
    long analytic_fastpath_events = 0;
    long oracle_fallback_events = 0;
};

/**
 * Simulated attention costs shared by the replicas of one cost
 * identity. Safe to call from any thread: every call takes one mutex,
 * and engines call it only on local memo misses (a few hundred per
 * run). Values are pure functions of their keys, so when two threads
 * race to simulate one key both compute the same cost and the first
 * insert wins; results never depend on the thread schedule.
 */
class AttnCostTable
{
  public:
    /** The stored cost of `key`, if any replica has inserted it. */
    std::optional<AttnCost> Find(const AttnSignature& key) const;

    /** Store `cost` for `key` unless already present. */
    void Insert(const AttnSignature& key, const AttnCost& cost);

    /** Signatures stored. */
    size_t Size() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<AttnSignature, AttnCost, AttnSignatureHash> costs_;
};

}  // namespace pod::serve

#endif  // POD_SERVE_ATTN_COST_TABLE_H
