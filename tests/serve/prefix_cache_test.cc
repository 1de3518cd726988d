/**
 * @file
 * Unit tests for the shared-prefix KV reuse subsystem
 * (docs/DESIGN.md S2.6): chained block hashing, the radix prefix
 * cache's match/insert/split/evict mechanics, the KV allocator's
 * prefix-cache admission accounting, and a randomized lifecycle
 * oracle that audits every ledger invariant after every operation,
 * in each allocator configuration (conservative or watermark, swap
 * or recompute, with or without the prefix cache).
 */
#include "serve/prefix/prefix_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "serve/kv_allocator.h"
#include "serve/prefix/block_hash.h"

namespace pod::serve::prefix {
namespace {

constexpr int kBlock = 16;

/** A request whose prompt is `segments`, sized to their sum. */
Request
SegmentedRequest(int id, std::vector<PromptSegment> segments,
                 int decode_tokens = 8)
{
    Request r;
    r.id = id;
    r.decode_tokens = decode_tokens;
    for (const PromptSegment& s : segments) r.prefill_tokens += s.tokens;
    r.prompt = std::move(segments);
    return r;
}

RequestState
QueuedState(const Request& r)
{
    RequestState state;
    state.request = r;
    return state;
}

// ---- block hashing ----

TEST(BlockHashTest, OpaquePromptHasNoHashes)
{
    Request r;
    r.prefill_tokens = 256;
    EXPECT_TRUE(BlockHashes(r, kBlock).empty());
}

TEST(BlockHashTest, OnlyFullBlocksAreHashed)
{
    Request r = SegmentedRequest(0, {{ContentId("sys", 1), 33}});
    EXPECT_EQ(BlockHashes(r, kBlock).size(), 2u);  // 33 = 2*16 + 1
    Request exact = SegmentedRequest(1, {{ContentId("sys", 1), 32}});
    EXPECT_EQ(BlockHashes(exact, kBlock).size(), 2u);
    Request tiny = SegmentedRequest(2, {{ContentId("sys", 1), 15}});
    EXPECT_TRUE(BlockHashes(tiny, kBlock).empty());
}

TEST(BlockHashTest, DeterministicAndSegmentationSensitive)
{
    Request a = SegmentedRequest(0, {{ContentId("sys", 1), 64}});
    EXPECT_EQ(BlockHashes(a, kBlock), BlockHashes(a, kBlock));

    // The same content id split at a different boundary is different
    // content (the segment list is the identity, not a byte stream).
    Request b = SegmentedRequest(
        1, {{ContentId("sys", 1), 32}, {ContentId("sys", 1), 32}});
    EXPECT_NE(BlockHashes(a, kBlock), BlockHashes(b, kBlock));
}

TEST(BlockHashTest, ChainingSharesExactlyTheCommonPrefix)
{
    uint64_t sys = ContentId("sys", 7);
    Request a = SegmentedRequest(0, {{sys, 64}, {ContentId("u", 1), 64}});
    Request b = SegmentedRequest(1, {{sys, 64}, {ContentId("u", 2), 64}});
    auto ha = BlockHashes(a, kBlock);
    auto hb = BlockHashes(b, kBlock);
    ASSERT_EQ(ha.size(), 8u);
    ASSERT_EQ(hb.size(), 8u);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(ha[i], hb[i]);
    // Chaining keeps the streams distinct forever after divergence.
    for (int i = 4; i < 8; ++i) EXPECT_NE(ha[i], hb[i]);
}

TEST(BlockHashTest, SegmentSpanningBlockBoundary)
{
    // Same content either side of a block boundary must chain the
    // same whether it arrives as one segment or two aligned ones
    // is NOT required (segments are identities); but a single
    // segment's hash stream must be self-consistent under prefix
    // extension: a longer prompt extends, never rewrites.
    uint64_t sys = ContentId("sys", 3);
    Request shorter = SegmentedRequest(0, {{sys, 40}});
    Request longer =
        SegmentedRequest(1, {{sys, 40}, {ContentId("u", 9), 40}});
    auto hs = BlockHashes(shorter, kBlock);
    auto hl = BlockHashes(longer, kBlock);
    ASSERT_EQ(hs.size(), 2u);
    ASSERT_EQ(hl.size(), 5u);
    EXPECT_EQ(hs[0], hl[0]);
    EXPECT_EQ(hs[1], hl[1]);
}

TEST(BlockHashDeathTest, SegmentSumMustMatchPrefill)
{
    Request r = SegmentedRequest(0, {{ContentId("sys", 1), 64}});
    r.prefill_tokens = 65;  // segments sum to 64
    EXPECT_EXIT(BlockHashes(r, kBlock), ::testing::ExitedWithCode(1),
                "FATAL");
}

// ---- radix cache ----

/** Hash chain of `blocks` blocks, sharing content with others built
 * from the same ids. */
std::vector<uint64_t>
Chain(std::vector<uint64_t> content_ids, int blocks_per_segment = 4)
{
    std::vector<PromptSegment> segments;
    for (uint64_t id : content_ids) {
        segments.push_back({id, blocks_per_segment * kBlock});
    }
    static int next_id = 1000;
    Request r = SegmentedRequest(next_id++, std::move(segments));
    return BlockHashes(r, kBlock);
}

TEST(PrefixCacheTest, EmptyCacheMatchesNothing)
{
    PrefixCache cache;
    EXPECT_EQ(cache.MatchBlocks(Chain({ContentId("a", 1)}), 100), 0);
    EXPECT_EQ(cache.TotalBlocks(), 0);
    EXPECT_EQ(cache.EvictableBlocks(), 0);
    cache.CheckIntegrity();
}

TEST(PrefixCacheTest, InsertThenMatchAndCap)
{
    PrefixCache cache;
    auto h = Chain({ContentId("a", 1), ContentId("b", 1)});  // 8 blocks
    cache.InsertAndRef(1, h);
    EXPECT_EQ(cache.TotalBlocks(), 8);
    EXPECT_EQ(cache.RefBlocks(1), 8);
    EXPECT_EQ(cache.EvictableBlocks(), 0);  // referenced = not evictable
    EXPECT_EQ(cache.MatchBlocks(h, 100), 8);
    EXPECT_EQ(cache.MatchBlocks(h, 3), 3);  // cap respected mid-run
    cache.CheckIntegrity();
}

TEST(PrefixCacheTest, AcquireSplitsAtCoverageBoundary)
{
    PrefixCache cache;
    auto full = Chain({ContentId("a", 1), ContentId("b", 1)});
    cache.InsertAndRef(1, full);

    // A second request hits only the first 3 blocks: the 8-block run
    // splits, both halves keep request 1's reference, and the shared
    // gauge counts exactly the 3 doubly-held blocks.
    cache.Acquire(2, full, 3);
    EXPECT_EQ(cache.RefBlocks(2), 3);
    EXPECT_EQ(cache.Stats().shared_blocks, 3);
    EXPECT_EQ(cache.TotalBlocks(), 8);  // splits never change size
    cache.CheckIntegrity();

    cache.Release(2, full);
    EXPECT_EQ(cache.RefBlocks(2), 0);
    EXPECT_EQ(cache.Stats().shared_blocks, 0);
    cache.CheckIntegrity();
}

TEST(PrefixCacheTest, DivergingChainsShareThePrefixNodes)
{
    PrefixCache cache;
    uint64_t sys = ContentId("sys", 1);
    auto a = Chain({sys, ContentId("u", 1)});
    auto b = Chain({sys, ContentId("u", 2)});
    cache.InsertAndRef(1, a);
    cache.InsertAndRef(2, b);
    // 4 shared prefix blocks + two 4-block suffixes.
    EXPECT_EQ(cache.TotalBlocks(), 12);
    EXPECT_EQ(cache.Stats().shared_blocks, 4);
    EXPECT_EQ(cache.MatchBlocks(a, 100), 8);
    EXPECT_EQ(cache.MatchBlocks(b, 100), 8);
    cache.CheckIntegrity();
}

TEST(PrefixCacheTest, ReleaseMakesBlocksEvictableNotGone)
{
    PrefixCache cache;
    auto h = Chain({ContentId("a", 1)});
    cache.InsertAndRef(1, h);
    cache.Release(1, h);
    EXPECT_EQ(cache.TotalBlocks(), 4);
    EXPECT_EQ(cache.EvictableBlocks(), 4);
    EXPECT_EQ(cache.MatchBlocks(h, 100), 4);  // still a hit
    // Double release is a harmless no-op.
    cache.Release(1, h);
    cache.CheckIntegrity();
}

TEST(PrefixCacheTest, EvictLruTakesOldestDeadSubtreeFirst)
{
    PrefixCache cache;
    auto old_chain = Chain({ContentId("old", 1)});
    auto new_chain = Chain({ContentId("new", 1)});
    cache.InsertAndRef(1, old_chain);
    cache.InsertAndRef(2, new_chain);
    cache.Release(1, old_chain);
    cache.Release(2, new_chain);

    EXPECT_EQ(cache.EvictLru(1), 4);  // whole-run granularity
    EXPECT_EQ(cache.MatchBlocks(old_chain, 100), 0);  // oldest went
    EXPECT_EQ(cache.MatchBlocks(new_chain, 100), 4);
    EXPECT_EQ(cache.Stats().evicted_blocks, 4);
    cache.CheckIntegrity();

    // Nothing evictable -> eviction returns what it could free.
    cache.Acquire(3, new_chain, 4);
    EXPECT_EQ(cache.EvictLru(100), 0);
    cache.CheckIntegrity();
}

TEST(PrefixCacheTest, EvictionNeverTouchesReferencedPrefix)
{
    PrefixCache cache;
    uint64_t sys = ContentId("sys", 1);
    auto full = Chain({sys, ContentId("u", 1)});
    cache.InsertAndRef(1, full);
    cache.Release(1, full);
    // Re-reference only the 4-block prefix; the suffix stays dead.
    cache.Acquire(2, full, 4);
    EXPECT_EQ(cache.EvictableBlocks(), 4);
    EXPECT_EQ(cache.EvictLru(100), 4);  // only the suffix
    EXPECT_EQ(cache.MatchBlocks(full, 100), 4);
    EXPECT_EQ(cache.RefBlocks(2), 4);
    cache.CheckIntegrity();
}

TEST(PrefixCacheTest, InsertAfterPartialHitDedupsAndExtends)
{
    PrefixCache cache;
    uint64_t sys = ContentId("sys", 1);
    auto first = Chain({sys});                       // 4 blocks
    auto second = Chain({sys, ContentId("u", 2)});   // 8 blocks
    cache.InsertAndRef(1, first);

    // Request 2 admitted with a 4-block hit, then completes prefill.
    cache.Acquire(2, second, 4);
    PrefixCache::InsertResult result = cache.InsertAndRef(2, second);
    EXPECT_EQ(result.new_blocks, 4);    // its unique suffix
    EXPECT_EQ(result.dedup_blocks, 0);  // prefix was prior coverage
    EXPECT_EQ(cache.RefBlocks(2), 8);
    cache.CheckIntegrity();

    // Request 3 missed at admission (cold cache for it), but by
    // prefill completion request 2 already cached everything: all 8
    // blocks dedup.
    auto third = second;
    result = cache.InsertAndRef(3, third);
    EXPECT_EQ(result.new_blocks, 0);
    EXPECT_EQ(result.dedup_blocks, 8);
    cache.CheckIntegrity();
}

TEST(PrefixCacheDeathTest, DoubleAcquireIsFatal)
{
    PrefixCache cache;
    auto h = Chain({ContentId("a", 1)});
    cache.InsertAndRef(1, h);
    cache.Acquire(2, h, 2);
    EXPECT_EXIT(cache.Acquire(2, h, 2), ::testing::ExitedWithCode(1),
                "FATAL");
}

// ---- prefix-caching allocator ----

std::unique_ptr<KvAllocator>
WatermarkAlloc(long total_blocks, double watermark = 0.0)
{
    return std::make_unique<KvAllocator>(KvPolicy::kWatermark,
                                         total_blocks, kBlock, watermark,
                                         PreemptMode::kRecompute,
                                         /*prefix_cache_enabled=*/true);
}

TEST(PrefixAllocatorTest, SecondAdmissionHitsTheCachedPrefix)
{
    auto alloc = WatermarkAlloc(64);
    uint64_t sys = ContentId("sys", 1);
    Request a = SegmentedRequest(1, {{sys, 64}, {ContentId("u", 1), 36}});
    Request b = SegmentedRequest(2, {{sys, 64}, {ContentId("u", 2), 36}});

    RequestState sa = QueuedState(a);
    ASSERT_TRUE(alloc->TryAdmit(sa));
    EXPECT_EQ(alloc->LastAdmitCachedTokens(), 0);  // cold cache
    EXPECT_EQ(alloc->Held(1), alloc->BlocksFor(100));
    sa.phase = Phase::kRunning;
    sa.prefilled = 100;
    alloc->OnPrefillComplete(sa);
    // 6 full blocks promoted to shared; the partial tail block stays
    // private.
    EXPECT_EQ(alloc->Cache()->TotalBlocks(), 6);
    EXPECT_EQ(alloc->Held(1), alloc->BlocksFor(100) - 6);
    alloc->AuditLedger();

    RequestState sb = QueuedState(b);
    ASSERT_TRUE(alloc->TryAdmit(sb));
    // b shares the 4 system-prompt blocks; its 5th block diverges.
    EXPECT_EQ(alloc->LastAdmitCachedTokens(), 4 * kBlock);
    EXPECT_EQ(alloc->Held(2), alloc->BlocksFor(100) - 4);
    ASSERT_NE(alloc->Cache(), nullptr);
    const PrefixCacheStats& stats = alloc->Cache()->Stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.prefill_tokens_saved, 4 * kBlock);
    alloc->AuditLedger();

    // Both done: every block either returns to the pool or stays
    // cached at refcount 0.
    alloc->Release(1);
    alloc->Release(2);
    alloc->AuditLedger();
    EXPECT_EQ(alloc->FreeBlocks() + alloc->Cache()->TotalBlocks(),
              alloc->TotalBlocks());
}

TEST(PrefixAllocatorTest, FullHitIsClampedToKeepOnePrefillToken)
{
    auto alloc = WatermarkAlloc(64);
    Request a = SegmentedRequest(1, {{ContentId("sys", 1), 64}});
    RequestState sa = QueuedState(a);
    ASSERT_TRUE(alloc->TryAdmit(sa));
    sa.prefilled = 64;
    alloc->OnPrefillComplete(sa);
    alloc->AuditLedger();

    // Identical prompt: all 4 blocks are cached, but the match is
    // clamped to 3 so at least one prompt token still prefills.
    Request b = a;
    b.id = 2;
    RequestState sb = QueuedState(b);
    ASSERT_TRUE(alloc->TryAdmit(sb));
    EXPECT_EQ(alloc->LastAdmitCachedTokens(), 3 * kBlock);
    EXPECT_GE(alloc->Held(2), 1);
    alloc->AuditLedger();
}

TEST(PrefixAllocatorTest, AdmissionGateEvictsDeadCacheBlocks)
{
    // Pool of 12 blocks. Request 1 fills 8 (prompt 96 = 6 blocks,
    // 2 decode blocks under watermark growth headroom), caches 6,
    // finishes. A second, unrelated prompt needing 10 blocks only
    // fits if the gate reclaims the dead cached blocks.
    auto alloc = WatermarkAlloc(12);
    Request a = SegmentedRequest(1, {{ContentId("sys", 1), 96}}, 16);
    RequestState sa = QueuedState(a);
    ASSERT_TRUE(alloc->TryAdmit(sa));
    sa.prefilled = 96;
    alloc->OnPrefillComplete(sa);
    alloc->Release(1);
    alloc->AuditLedger();
    EXPECT_EQ(alloc->Cache()->TotalBlocks(), 6);
    ASSERT_EQ(alloc->FreeBlocks(), 6);

    Request b = SegmentedRequest(2, {{ContentId("other", 1), 160}}, 8);
    RequestState sb = QueuedState(b);
    ASSERT_TRUE(alloc->TryAdmit(sb));  // needs 10 of 12 blocks
    EXPECT_GE(alloc->Cache()->Stats().evicted_blocks, 4);
    alloc->AuditLedger();
}

TEST(PrefixAllocatorTest, RecomputeReadmissionRematchesItsOwnBlocks)
{
    auto alloc = WatermarkAlloc(64);
    Request a = SegmentedRequest(1, {{ContentId("sys", 1), 96}}, 32);
    RequestState sa = QueuedState(a);
    ASSERT_TRUE(alloc->TryAdmit(sa));
    sa.phase = Phase::kRunning;
    sa.prefilled = 96;
    alloc->OnPrefillComplete(sa);
    sa.decoded = 8;
    alloc->AuditLedger();

    // Preempt: private blocks free, cache references drop, cached
    // blocks stay.
    alloc->Evict(sa, PreemptMode::kRecompute);
    sa.phase = Phase::kPreemptedRecompute;
    sa.recompute_extra = sa.decoded;
    sa.prefilled = 0;
    alloc->AuditLedger();
    EXPECT_EQ(alloc->Cache()->TotalBlocks(), 6);
    EXPECT_EQ(alloc->Cache()->EvictableBlocks(), 6);

    // Re-admission hits its own still-cached prompt.
    ASSERT_TRUE(alloc->TryAdmit(sa));
    EXPECT_EQ(alloc->LastAdmitCachedTokens(), 6 * kBlock);
    alloc->AuditLedger();

    // The re-run prefill completes again; promotion is idempotent.
    sa.phase = Phase::kRunning;
    sa.prefilled = sa.PrefillTarget();
    alloc->OnPrefillComplete(sa);
    alloc->AuditLedger();
    EXPECT_EQ(alloc->Cache()->TotalBlocks(), 6);
}

TEST(PrefixAllocatorDeathTest, SwapPreemptionIsRejected)
{
    EXPECT_EXIT(KvAllocator(KvPolicy::kWatermark, 64, kBlock, 0.01,
                            PreemptMode::kSwap,
                            /*prefix_cache_enabled=*/true),
                ::testing::ExitedWithCode(1), "FATAL");
    auto alloc = WatermarkAlloc(64);
    Request a = SegmentedRequest(1, {{ContentId("sys", 1), 64}});
    RequestState sa = QueuedState(a);
    ASSERT_TRUE(alloc->TryAdmit(sa));
    EXPECT_EXIT(alloc->Evict(sa, PreemptMode::kSwap),
                ::testing::ExitedWithCode(1), "FATAL");
}

// ---- randomized lifecycle oracle ----

/** Blocks in the allocator's prefix cache (0 without one). */
long
CachedBlocks(const KvAllocator& alloc)
{
    return alloc.Cache() != nullptr ? alloc.Cache()->TotalBlocks() : 0;
}

/**
 * Sum every request's private blocks and check that each running
 * request's private plus cache-referenced blocks cover its
 * materialized context. Returns the private total.
 */
long
AuditRequests(const KvAllocator& alloc,
              const std::vector<RequestState>& states)
{
    long held = 0;
    for (const RequestState& s : states) {
        const long own = alloc.Held(s.request.id);
        held += own;
        if (!s.Admitted()) continue;
        const long cover = alloc.Cache() != nullptr
                               ? alloc.Cache()->RefBlocks(s.request.id)
                               : 0;
        EXPECT_GE(own + cover, alloc.BlocksFor(s.ContextLen()))
            << "request " << s.request.id;
    }
    return held;
}

/**
 * Drives a watermark allocator through the full request lifecycle
 * with randomized shared-prefix prompts, preemptions in `mode` and
 * (with the prefix cache) cache churn on a small pool, auditing every
 * cross-structure invariant after every single operation: the pool
 * ledger (private + shared + free == capacity, no leak / double-free
 * possible), swapped requests holding nothing on-device, and with the
 * cache the radix tree's incremental counters, the cache-vs-shared-
 * account lockstep, and per-request coverage.
 */
void
RunWatermarkLifecycle(PreemptMode mode, bool prefix_cache)
{
    constexpr long kPool = 48;
    constexpr int kRequests = 40;
    constexpr int kSteps = 12000;

    Rng rng(0xC0117E57);
    KvAllocator alloc(KvPolicy::kWatermark, kPool, kBlock, 0.05, mode,
                      prefix_cache);

    // Prompts: Zipf-ish choice over 3 shared system prompts (or a
    // unique preamble), plus a unique user tail. Sizes keep every
    // request well under the pool so CheckFits always passes.
    std::vector<RequestState> states;
    for (int i = 0; i < kRequests; ++i) {
        std::vector<PromptSegment> segments;
        int pick = static_cast<int>(rng.UniformInt(0, 3));
        int sys_tokens = 32 + 16 * pick;
        if (pick < 3) {
            segments.push_back({ContentId("sys", pick), sys_tokens});
        } else {
            segments.push_back({ContentId("uniq", i), sys_tokens});
        }
        segments.push_back({ContentId("user", i),
                            static_cast<int>(rng.UniformInt(8, 64))});
        Request r = SegmentedRequest(i, std::move(segments),
                                     rng.UniformInt(4, 48));
        states.push_back(QueuedState(r));
        alloc.CheckFits(states.back());
    }

    auto audit = [&]() {
        alloc.AuditLedger();
        // Conservation: private + cached + free == capacity.
        ASSERT_EQ(AuditRequests(alloc, states) + CachedBlocks(alloc) +
                      alloc.FreeBlocks(),
                  alloc.TotalBlocks());
    };
    // Evict like the scheduler: recompute restarts the context's
    // prefill, swap keeps its progress.
    auto preempt = [&](RequestState& v) {
        alloc.Evict(v, mode);
        if (mode == PreemptMode::kSwap) {
            v.phase = Phase::kPreemptedSwapped;
        } else {
            v.phase = Phase::kPreemptedRecompute;
            v.recompute_extra = v.decoded;
            v.prefilled = 0;
        }
    };

    int finished = 0;
    long preemptions = 0;
    long admit_failures = 0;
    for (int step = 0; step < kSteps && finished < kRequests; ++step) {
        RequestState& s = states[static_cast<size_t>(
            rng.UniformInt(0, kRequests - 1))];
        if (s.Finished()) continue;

        if (!s.Admitted()) {
            if (alloc.TryAdmit(s)) {
                s.phase = Phase::kRunning;
                int cached = alloc.LastAdmitCachedTokens();
                if (cached > 0) s.prefilled = cached;
            } else {
                ++admit_failures;
            }
        } else if (!s.PrefillDone()) {
            // Chunked prefill progress.
            s.prefilled = std::min(
                s.PrefillTarget(),
                s.prefilled + static_cast<int>(rng.UniformInt(8, 48)));
            if (s.PrefillDone()) alloc.OnPrefillComplete(s);
        } else if (rng.Bernoulli(0.1)) {
            // Random preemption, like the scheduler under pressure.
            preempt(s);
            ++preemptions;
        } else if (s.decoded < s.request.decode_tokens) {
            if (alloc.TryAppend(s)) {
                ++s.decoded;
                if (s.decoded >= s.request.decode_tokens) {
                    alloc.Release(s.request.id);
                    s.phase = Phase::kFinished;
                    ++finished;
                }
            } else {
                // Stuck: evict someone running (maybe itself).
                std::vector<RequestState*> running;
                for (RequestState& v : states) {
                    if (v.Admitted()) running.push_back(&v);
                }
                ASSERT_FALSE(running.empty());
                preempt(*running[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int>(running.size()) - 1))]);
                ++preemptions;
            }
        }
        audit();
    }

    // The workload must actually have exercised the contended paths.
    EXPECT_GT(finished, kRequests / 2);
    EXPECT_GT(preemptions + admit_failures, 0);
    if (prefix_cache) {
        EXPECT_GT(alloc.Cache()->Stats().hits, 0);
    }

    // Drain everything still holding blocks.
    for (RequestState& s : states) {
        if (s.Admitted()) {
            alloc.Release(s.request.id);
            s.phase = Phase::kFinished;
        }
        audit();
    }
    // Only cached (refcount-0) blocks remain in use; all evictable.
    EXPECT_EQ(alloc.FreeBlocks() + CachedBlocks(alloc), alloc.TotalBlocks());
    if (prefix_cache) {
        EXPECT_EQ(alloc.Cache()->EvictableBlocks(),
                  alloc.Cache()->TotalBlocks());
    }
}

/** The same oracle shape under the conservative policy: no
 * preemption, no watermark, full up-front reservations. */
void
RunConservativeLifecycle(bool prefix_cache)
{
    constexpr long kPool = 40;
    constexpr int kRequests = 24;
    Rng rng(0x5EED);
    KvAllocator alloc(KvPolicy::kConservative, kPool, kBlock, 0.0,
                      PreemptMode::kRecompute, prefix_cache);

    std::vector<RequestState> states;
    for (int i = 0; i < kRequests; ++i) {
        std::vector<PromptSegment> segments;
        segments.push_back({ContentId("sys", i % 2), 64});
        segments.push_back({ContentId("user", i),
                            static_cast<int>(rng.UniformInt(4, 40))});
        states.push_back(
            QueuedState(SegmentedRequest(i, std::move(segments),
                                         rng.UniformInt(2, 24))));
    }

    int finished = 0;
    int steps = 0;
    while (finished < kRequests && steps++ < 10000) {
        RequestState& s = states[static_cast<size_t>(
            rng.UniformInt(0, kRequests - 1))];
        if (s.Finished()) continue;
        if (s.phase == Phase::kQueued) {
            if (alloc.TryAdmit(s)) {
                s.phase = Phase::kRunning;
                s.prefilled = alloc.LastAdmitCachedTokens();
            }
        } else if (!s.PrefillDone()) {
            s.prefilled = s.PrefillTarget();
            alloc.OnPrefillComplete(s);
        } else {
            // Conservative reservations cover every decode token.
            ASSERT_TRUE(alloc.TryAppend(s));
            if (++s.decoded >= s.request.decode_tokens) {
                alloc.Release(s.request.id);
                s.phase = Phase::kFinished;
                ++finished;
            }
        }
        alloc.AuditLedger();
        ASSERT_EQ(AuditRequests(alloc, states) + CachedBlocks(alloc) +
                      alloc.FreeBlocks(),
                  alloc.TotalBlocks());
    }
    EXPECT_EQ(finished, kRequests);
    if (prefix_cache) {
        EXPECT_GT(alloc.Cache()->Stats().hits, 0);
    }
}

TEST(PrefixCowOracleTest, RandomizedLifecycleNeverLeaksOrDoubleFrees)
{
    RunWatermarkLifecycle(PreemptMode::kRecompute, /*prefix_cache=*/true);
}

TEST(PrefixCowOracleTest, ConservativeBaseLifecycle)
{
    RunConservativeLifecycle(/*prefix_cache=*/true);
}

TEST(PrefixCowOracleTest, WatermarkRecomputeLifecycle)
{
    RunWatermarkLifecycle(PreemptMode::kRecompute, /*prefix_cache=*/false);
}

TEST(PrefixCowOracleTest, WatermarkSwapLifecycle)
{
    RunWatermarkLifecycle(PreemptMode::kSwap, /*prefix_cache=*/false);
}

TEST(PrefixCowOracleTest, ConservativeLifecycle)
{
    RunConservativeLifecycle(/*prefix_cache=*/false);
}

}  // namespace
}  // namespace pod::serve::prefix
