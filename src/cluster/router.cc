/**
 * @file
 * Implementation of the routing policies.
 */
#include "cluster/router.h"

#include <utility>

#include "common/logging.h"
#include "serve/prefix/block_hash.h"

namespace pod::cluster {

namespace {

/** PrefillAwareRouter routes prompts this long by decode load. */
constexpr int kLongPromptThreshold = 8192;

/**
 * Index of the replica minimizing a (primary, secondary) score pair
 * lexicographically, lowest index on remaining ties. The secondary
 * key keeps policies sensible when the primary signal is degenerate
 * (e.g. every replica reports zero decode load at t=0).
 */
template <typename ScoreFn>
int
ArgMin(const std::vector<serve::ReplicaSnapshot>& replicas,
       ScoreFn score)
{
    POD_CHECK_ARG(!replicas.empty(), "router needs at least one replica");
    int best = 0;
    std::pair<double, double> best_score = score(replicas[0]);
    for (size_t i = 1; i < replicas.size(); ++i) {
        std::pair<double, double> s = score(replicas[i]);
        if (s < best_score) {
            best = static_cast<int>(i);
            best_score = s;
        }
    }
    return best;
}

}  // namespace

int
RoundRobinRouter::Route(const serve::Request& request,
                        const std::vector<serve::ReplicaSnapshot>&
                            replicas)
{
    (void)request;
    POD_CHECK_ARG(!replicas.empty(), "router needs at least one replica");
    int pick = static_cast<int>(next_ % replicas.size());
    ++next_;
    return pick;
}

int
LeastOutstandingRouter::Route(const serve::Request& request,
                              const std::vector<serve::ReplicaSnapshot>&
                                  replicas)
{
    (void)request;
    return ArgMin(replicas, [](const serve::ReplicaSnapshot& r) {
        return std::make_pair(static_cast<double>(r.outstanding),
                              r.kv_pressure);
    });
}

int
LeastKvPressureRouter::Route(const serve::Request& request,
                             const std::vector<serve::ReplicaSnapshot>&
                                 replicas)
{
    (void)request;
    return ArgMin(replicas, [](const serve::ReplicaSnapshot& r) {
        return std::make_pair(r.kv_pressure,
                              static_cast<double>(r.outstanding));
    });
}

int
PrefillAwareRouter::Route(const serve::Request& request,
                          const std::vector<serve::ReplicaSnapshot>&
                              replicas)
{
    if (request.prefill_tokens >= kLongPromptThreshold) {
        return ArgMin(replicas, [](const serve::ReplicaSnapshot& r) {
            return std::make_pair(
                static_cast<double>(r.decode_tokens_pending),
                static_cast<double>(r.outstanding));
        });
    }
    return ArgMin(replicas, [](const serve::ReplicaSnapshot& r) {
        return std::make_pair(static_cast<double>(r.outstanding),
                              static_cast<double>(
                                  r.decode_tokens_pending));
    });
}

int
PreemptionAwareRouter::Route(const serve::Request& request,
                             const std::vector<serve::ReplicaSnapshot>&
                                 replicas)
{
    (void)request;
    return ArgMin(replicas, [](const serve::ReplicaSnapshot& r) {
        // Fewest currently-preempted requests first; ties go to the
        // replica with the most admission headroom (ArgMin, so
        // negate).
        return std::make_pair(static_cast<double>(r.preempted),
                              -r.kv_watermark_headroom);
    });
}

PrefixAffinityRouter::PrefixAffinityRouter(int block_size)
    : block_size_(block_size)
{
    POD_CHECK_ARG(block_size >= 1, "block size must be >= 1");
}

int
PrefixAffinityRouter::Route(const serve::Request& request,
                            const std::vector<serve::ReplicaSnapshot>&
                                replicas)
{
    POD_CHECK_ARG(!replicas.empty(), "router needs at least one replica");
    routed_.resize(replicas.size());

    std::vector<uint64_t> hashes =
        serve::prefix::BlockHashes(request, block_size_);

    // Longest-prefix probe per replica: chained hashes mean the
    // replica's set contains hashes[0..k) exactly when it saw a
    // prompt sharing at least that prefix, so the first miss ends
    // the match.
    int best = -1;
    size_t best_match = 0;
    for (size_t r = 0; r < replicas.size(); ++r) {
        const std::unordered_set<uint64_t>& seen = routed_[r];
        size_t match = 0;
        while (match < hashes.size() &&
               seen.count(hashes[match]) > 0) {
            ++match;
        }
        if (match == 0) continue;
        if (best < 0 || match > best_match ||
            (match == best_match &&
             replicas[r].kv_pressure <
                 replicas[static_cast<size_t>(best)].kv_pressure)) {
            best = static_cast<int>(r);
            best_match = match;
        }
    }
    if (best < 0) {
        // Opaque prompt or cold prefix: place by KV pressure, like
        // the least-kv baseline.
        best = ArgMin(replicas, [](const serve::ReplicaSnapshot& r) {
            return std::make_pair(r.kv_pressure,
                                  static_cast<double>(r.outstanding));
        });
    }
    routed_[static_cast<size_t>(best)].insert(hashes.begin(),
                                              hashes.end());
    return best;
}

std::unique_ptr<Router>
MakeRouter(const std::string& name)
{
    if (name == "round-robin") {
        return std::make_unique<RoundRobinRouter>();
    }
    if (name == "least-outstanding") {
        return std::make_unique<LeastOutstandingRouter>();
    }
    if (name == "least-kv") {
        return std::make_unique<LeastKvPressureRouter>();
    }
    if (name == "prefill-aware") {
        return std::make_unique<PrefillAwareRouter>();
    }
    if (name == "preemption-aware") {
        return std::make_unique<PreemptionAwareRouter>();
    }
    if (name == "prefix-affinity") {
        return std::make_unique<PrefixAffinityRouter>();
    }
    Fatal("unknown router policy '%s'", name.c_str());
}

std::vector<std::string>
RouterNames()
{
    return {"round-robin",   "least-outstanding", "least-kv",
            "prefill-aware", "preemption-aware",  "prefix-affinity"};
}

}  // namespace pod::cluster
