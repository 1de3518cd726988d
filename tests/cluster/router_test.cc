/**
 * @file
 * Unit tests for the routing policies over hand-built snapshots.
 */
#include "cluster/router.h"

#include <gtest/gtest.h>

#include "serve/prefix/block_hash.h"

namespace pod::cluster {
namespace {

serve::ReplicaSnapshot
Snap(int id, int outstanding, double kv_pressure,
     long decode_tokens_pending)
{
    serve::ReplicaSnapshot snap;
    snap.replica_id = id;
    snap.outstanding = outstanding;
    snap.kv_pressure = kv_pressure;
    snap.decode_tokens_pending = decode_tokens_pending;
    return snap;
}

serve::Request
Req(int prefill_tokens)
{
    serve::Request request;
    request.id = 0;
    request.prefill_tokens = prefill_tokens;
    request.decode_tokens = 64;
    return request;
}

TEST(RoundRobinRouterTest, CyclesThroughReplicas)
{
    RoundRobinRouter router;
    std::vector<serve::ReplicaSnapshot> replicas = {
        Snap(0, 9, 0.9, 900), Snap(1, 0, 0.0, 0), Snap(2, 5, 0.5, 500)};
    EXPECT_EQ(router.Route(Req(100), replicas), 0);
    EXPECT_EQ(router.Route(Req(100), replicas), 1);
    EXPECT_EQ(router.Route(Req(100), replicas), 2);
    EXPECT_EQ(router.Route(Req(100), replicas), 0);
}

TEST(LeastOutstandingRouterTest, PicksShortestQueueKvPressureTies)
{
    LeastOutstandingRouter router;
    std::vector<serve::ReplicaSnapshot> replicas = {
        Snap(0, 4, 0.1, 0), Snap(1, 2, 0.9, 0), Snap(2, 2, 0.2, 0)};
    // Queue-depth tie between 1 and 2 resolves by KV pressure.
    EXPECT_EQ(router.Route(Req(100), replicas), 2);
    replicas[1].kv_pressure = 0.2;  // full tie -> lowest index
    EXPECT_EQ(router.Route(Req(100), replicas), 1);
    replicas[2].outstanding = 1;
    EXPECT_EQ(router.Route(Req(100), replicas), 2);
}

TEST(LeastKvPressureRouterTest, PicksLowestPressure)
{
    LeastKvPressureRouter router;
    std::vector<serve::ReplicaSnapshot> replicas = {
        Snap(0, 1, 0.8, 0), Snap(1, 9, 0.2, 0), Snap(2, 0, 0.5, 0)};
    // Ignores request counts entirely: replica 1 has the most
    // requests but the least reserved-KV load.
    EXPECT_EQ(router.Route(Req(100), replicas), 1);
}

TEST(PrefillAwareRouterTest, LongPromptsAvoidDecodeHeavyReplicas)
{
    PrefillAwareRouter router;
    std::vector<serve::ReplicaSnapshot> replicas = {
        Snap(0, 1, 0.1, 5000), Snap(1, 6, 0.6, 100),
        Snap(2, 3, 0.3, 2000)};
    // Long prompt (>= 8192 tokens): replica 1 has the least pending
    // decode work even though its queue is deepest.
    EXPECT_EQ(router.Route(Req(8192), replicas), 1);
    // Short prompt: falls back to least-outstanding (replica 0).
    EXPECT_EQ(router.Route(Req(8191), replicas), 0);
    EXPECT_EQ(router.Route(Req(512), replicas), 0);
}

TEST(PreemptionAwareRouterTest, AvoidsThrashingReplicas)
{
    PreemptionAwareRouter router;
    std::vector<serve::ReplicaSnapshot> replicas = {
        Snap(0, 1, 0.1, 100), Snap(1, 9, 0.9, 900),
        Snap(2, 3, 0.3, 300)};
    replicas[0].preempted = 2;  // actively thrashing
    replicas[1].preempted = 0;
    replicas[2].preempted = 1;
    replicas[0].kv_watermark_headroom = 0.8;
    replicas[1].kv_watermark_headroom = 0.05;
    replicas[2].kv_watermark_headroom = 0.4;
    // Replica 1 wins despite the deepest queue: nothing evicted.
    EXPECT_EQ(router.Route(Req(100), replicas), 1);

    // Preemption tie: the most watermark headroom wins.
    replicas[1].preempted = 1;
    replicas[2].preempted = 1;
    replicas[0].preempted = 1;
    EXPECT_EQ(router.Route(Req(100), replicas), 0);
}

TEST(PrefixAffinityRouterTest, SteersSharedPrefixesToOneReplica)
{
    PrefixAffinityRouter router(16);
    std::vector<serve::ReplicaSnapshot> replicas = {
        Snap(0, 0, 0.6, 0), Snap(1, 0, 0.1, 0), Snap(2, 0, 0.3, 0)};

    auto with_prompt = [](uint64_t sys, uint64_t user) {
        serve::Request request;
        request.prefill_tokens = 128;
        request.decode_tokens = 32;
        request.prompt = {{sys, 64}, {user, 64}};
        return request;
    };
    uint64_t sys = serve::prefix::ContentId("sys", 1);

    // Cold start: no prefix anywhere -> least KV pressure.
    int first = router.Route(with_prompt(sys, 100), replicas);
    EXPECT_EQ(first, 1);

    // Same system prompt follows the prefix even though replica 1 is
    // now the most pressured.
    replicas[1].kv_pressure = 0.9;
    EXPECT_EQ(router.Route(with_prompt(sys, 101), replicas), 1);

    // A different system prompt sees no match and places by pressure.
    uint64_t other = serve::prefix::ContentId("sys", 2);
    EXPECT_EQ(router.Route(with_prompt(other, 102), replicas), 2);

    // Opaque prompts always fall back to least KV pressure.
    serve::Request opaque;
    opaque.prefill_tokens = 128;
    opaque.decode_tokens = 32;
    EXPECT_EQ(router.Route(opaque, replicas), 2);

    // Reset forgets the routed prefixes: back to the cold path.
    router.Reset();
    replicas[1].kv_pressure = 0.1;
    EXPECT_EQ(router.Route(with_prompt(sys, 103), replicas), 1);
}

TEST(PrefixAffinityRouterTest, LongestMatchBeatsShorterOnes)
{
    PrefixAffinityRouter router(16);
    std::vector<serve::ReplicaSnapshot> replicas = {
        Snap(0, 0, 0.0, 0), Snap(1, 0, 0.5, 0)};
    uint64_t sys = serve::prefix::ContentId("sys", 7);

    // Replica 0 saw only the system prompt; replica 1 saw a full
    // two-segment conversation. (Force placement by pressure.)
    serve::Request short_req;
    short_req.prefill_tokens = 64;
    short_req.decode_tokens = 8;
    short_req.prompt = {{sys, 64}};
    EXPECT_EQ(router.Route(short_req, replicas), 0);

    serve::Request long_req;
    long_req.prefill_tokens = 128;
    long_req.decode_tokens = 8;
    long_req.prompt = {{sys, 64}, {serve::prefix::ContentId("u", 1), 64}};
    replicas[0].kv_pressure = 1.0;  // pressure would say replica 1...
    EXPECT_EQ(router.Route(long_req, replicas), 0);  // ...prefix wins

    // Now replica 0 holds the full 8-block chain; a request matching
    // all of it prefers replica 0 over any shorter match elsewhere.
    serve::Request replay = long_req;
    EXPECT_EQ(router.Route(replay, replicas), 0);
}

TEST(MakeRouterTest, BuildsEveryNamedPolicy)
{
    for (const std::string& name : RouterNames()) {
        auto router = MakeRouter(name);
        ASSERT_NE(router, nullptr);
        EXPECT_EQ(router->Name(), name);
    }
}

TEST(MakeRouterDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(MakeRouter("random-spray"),
                ::testing::ExitedWithCode(1), "unknown router");
}

}  // namespace
}  // namespace pod::cluster
