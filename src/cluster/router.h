/**
 * @file
 * Pluggable request-routing policies for the cluster serving layer.
 *
 * A Router picks the replica that will serve each request at its
 * arrival instant, given point-in-time ReplicaSnapshots of every
 * replica's queue and KV occupancy (docs/DESIGN.md S8). Routers are
 * deterministic: ties always break toward the lowest replica index,
 * so cluster runs are reproducible bit-for-bit given a seed.
 */
#ifndef POD_CLUSTER_ROUTER_H
#define POD_CLUSTER_ROUTER_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "serve/engine.h"
#include "serve/request.h"

namespace pod::cluster {

/** Routing-policy interface. */
class Router
{
  public:
    virtual ~Router() = default;

    /**
     * Choose the replica for one arriving request.
     * @param request the arriving request.
     * @param replicas one snapshot per replica, indexed by replica id.
     * @return replica index in [0, replicas.size()).
     */
    virtual int Route(const serve::Request& request,
                      const std::vector<serve::ReplicaSnapshot>&
                          replicas) = 0;

    /**
     * Clear internal state (cursors, counters). Called by
     * ClusterEngine::Run before each simulation so repeated runs of
     * one trace stay bit-identical.
     */
    virtual void Reset() {}

    /** Policy name for reports. */
    virtual std::string Name() const = 0;
};

/** Cycles through replicas in submission order, ignoring load. */
class RoundRobinRouter : public Router
{
  public:
    int Route(const serve::Request& request,
              const std::vector<serve::ReplicaSnapshot>& replicas)
        override;

    void Reset() override { next_ = 0; }

    std::string Name() const override { return "round-robin"; }

  private:
    size_t next_ = 0;
};

/**
 * Picks the replica with the fewest unfinished routed requests
 * (classic least-outstanding-requests load balancing).
 */
class LeastOutstandingRouter : public Router
{
  public:
    int Route(const serve::Request& request,
              const std::vector<serve::ReplicaSnapshot>& replicas)
        override;

    std::string Name() const override { return "least-outstanding"; }
};

/**
 * Picks the replica whose KV pool is least pressured: reserved blocks
 * plus the reservations its queued-but-unadmitted requests will need,
 * normalized by pool size (ReplicaSnapshot::kv_pressure). Because a
 * request's KV reservation is proportional to its prompt + output
 * length, this is token-weighted least-work-left routing — it sees
 * through the heavy-tailed prompt-length distribution that fools
 * count-based policies.
 */
class LeastKvPressureRouter : public Router
{
  public:
    int Route(const serve::Request& request,
              const std::vector<serve::ReplicaSnapshot>& replicas)
        override;

    std::string Name() const override { return "least-kv"; }
};

/**
 * Prefill/decode-affinity routing: long-prompt requests (8192 tokens
 * or more) go to the replica with the least outstanding decode work
 * (a long chunked prefill behind many active decodes inflates TTFT,
 * and its chunks steal every iteration's token budget from those
 * decodes); short requests fall back to least-outstanding.
 */
class PrefillAwareRouter : public Router
{
  public:
    int Route(const serve::Request& request,
              const std::vector<serve::ReplicaSnapshot>& replicas)
        override;

    std::string Name() const override { return "prefill-aware"; }
};

/**
 * Preemption-pressure routing for fleets running the watermark KV
 * allocator: avoid replicas that are actively thrashing (requests
 * currently evicted and awaiting re-admission), then prefer the
 * replica with the most free-pool headroom above its admission
 * watermark — the direct predictor of whether this request admits
 * without displacing running work. Under the conservative allocator
 * no replica ever preempts, so the policy degrades to
 * most-watermark-headroom (≈ least KV utilization).
 */
class PreemptionAwareRouter : public Router
{
  public:
    int Route(const serve::Request& request,
              const std::vector<serve::ReplicaSnapshot>& replicas)
        override;

    std::string Name() const override { return "preemption-aware"; }
};

/**
 * Prefix-affinity routing for fleets running the prefix cache
 * (docs/DESIGN.md S2.6): steer a request to the replica already
 * holding the longest prefix of its prompt, so shared system prompts
 * and session turns keep hitting one replica's cache instead of
 * re-prefilling on whichever replica is idlest. The router tracks,
 * per replica, the block-hash chains of the prompts it routed there
 * — a model of what each replica's cache holds that needs no feedback
 * channel from the engines. Requests with opaque prompts, and prompts
 * matching nothing anywhere, fall back to least-KV-pressure; among
 * equal matches, lower KV pressure wins.
 */
class PrefixAffinityRouter : public Router
{
  public:
    /** @param block_size must equal the engines' kv_block_size so
     *        the router's hash chains line up with the caches'. */
    explicit PrefixAffinityRouter(int block_size = 16);

    int Route(const serve::Request& request,
              const std::vector<serve::ReplicaSnapshot>& replicas)
        override;

    void Reset() override { routed_.clear(); }

    std::string Name() const override { return "prefix-affinity"; }

  private:
    int block_size_;

    /** Per-replica set of block hashes ever routed there. Chained
     * hashes make sequential membership a prefix-length probe. */
    std::vector<std::unordered_set<uint64_t>> routed_;
};

/**
 * Build a router by policy name: "round-robin", "least-outstanding",
 * "least-kv", "prefill-aware", "preemption-aware" or
 * "prefix-affinity". Fatal on unknown names.
 */
std::unique_ptr<Router> MakeRouter(const std::string& name);

/** All policy names accepted by MakeRouter. */
std::vector<std::string> RouterNames();

}  // namespace pod::cluster

#endif  // POD_CLUSTER_ROUTER_H
