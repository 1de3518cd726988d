/**
 * @file
 * Unit tests for the KV allocator's pool ledger, driven through the
 * public allocator API: block rounding, zero-block reservations,
 * exact swap footprints, growth, the shared account of the prefix
 * cache, and the fatal guards (negative token counts, which CeilDiv
 * would silently round to a zero-block reservation; long-overflowing
 * pool capacities; double admission; double or unknown release;
 * zero-capacity pools). Watermark and preemption policy tests live
 * in tests/serve/preemption_test.cc, prefix-cache admission tests in
 * tests/serve/prefix_cache_test.cc.
 */
#include "serve/kv_allocator.h"

#include <gtest/gtest.h>

#include <climits>
#include <limits>
#include <vector>

#include "serve/prefix/block_hash.h"

namespace pod::serve {
namespace {

RequestState
MakeState(int id, int prefill_tokens, int decode_tokens)
{
    RequestState state;
    state.request = Request{id, 0.0, prefill_tokens, decode_tokens, {}, -1, 0};
    return state;
}

/** A queued request whose prompt is one `tokens`-long segment of
 * content `tag`, so equal tags share every full prompt block. */
RequestState
SharedPromptState(int id, const char* tag, int tokens)
{
    RequestState state = MakeState(id, tokens, 8);
    state.request.prompt = {PromptSegment{prefix::ContentId(tag, 1), tokens}};
    return state;
}

KvAllocator
Watermark(long total_blocks, PreemptMode mode = PreemptMode::kRecompute,
          bool prefix_cache = false)
{
    return KvAllocator(KvPolicy::kWatermark, total_blocks, 16, 0.0, mode,
                       prefix_cache);
}

TEST(KvLedgerTest, AdmitAndRelease)
{
    KvAllocator kv(KvPolicy::kConservative, 10, 16);
    EXPECT_EQ(kv.BlocksFor(1), 1);
    EXPECT_EQ(kv.BlocksFor(16), 1);
    EXPECT_EQ(kv.BlocksFor(17), 2);
    EXPECT_TRUE(kv.TryAdmit(MakeState(1, 90, 10)));  // 7 blocks
    EXPECT_EQ(kv.UsedBlocks(), 7);
    EXPECT_FALSE(kv.TryAdmit(MakeState(2, 64, 0)));  // needs 4 of 3
    EXPECT_EQ(kv.UsedBlocks(), 7);  // a failed admission is a no-op
    EXPECT_EQ(kv.Held(2), 0);
    EXPECT_TRUE(kv.TryAdmit(MakeState(3, 48, 0)));  // exactly 3 blocks
    EXPECT_EQ(kv.FreeBlocks(), 0);
    kv.Release(1);
    EXPECT_EQ(kv.UsedBlocks(), 3);
    EXPECT_NEAR(kv.Utilization(), 0.3, 1e-12);
    kv.AuditLedger();
}

TEST(KvLedgerTest, BlocksForBoundaries)
{
    KvAllocator kv(KvPolicy::kConservative, 10, 16);
    EXPECT_EQ(kv.BlocksFor(0), 0);
    // INT_MAX tokens must not overflow the long block count.
    KvAllocator one_token_blocks(KvPolicy::kConservative, 10, 1);
    EXPECT_EQ(one_token_blocks.BlocksFor(INT_MAX),
              static_cast<long>(INT_MAX));
}

TEST(KvLedgerTest, FailedGrowthChangesNothing)
{
    KvAllocator kv = Watermark(10);
    EXPECT_EQ(kv.Held(1), 0);  // no reservation yet
    RequestState a = MakeState(1, 32, 64);
    ASSERT_TRUE(kv.TryAdmit(a));  // 2 blocks
    a.phase = Phase::kRunning;
    ASSERT_TRUE(kv.TryAdmit(MakeState(2, 128, 8)));  // the other 8
    a.prefilled = 32;
    a.decoded = 1;  // the first output token needs a third block
    EXPECT_FALSE(kv.TryAppend(a));
    EXPECT_EQ(kv.Held(1), 2);
    EXPECT_EQ(kv.FreeBlocks(), 0);

    kv.Release(2);
    ASSERT_TRUE(kv.TryAppend(a));
    EXPECT_EQ(kv.Held(1), 3);
    EXPECT_EQ(kv.UsedBlocks(), 3);
    kv.AuditLedger();
}

TEST(KvLedgerTest, SwapInNeedsTheExactFootprint)
{
    KvAllocator kv = Watermark(10, PreemptMode::kSwap);
    RequestState a = MakeState(0, 48, 64);  // 3 blocks
    ASSERT_TRUE(kv.TryAdmit(a));
    a.phase = Phase::kRunning;
    a.prefilled = 48;
    a.decoded = 1;
    ASSERT_TRUE(kv.TryAppend(a));  // 4th block for the first output token
    ASSERT_EQ(kv.Evict(a, PreemptMode::kSwap), 4);
    a.phase = Phase::kPreemptedSwapped;
    kv.AuditLedger();

    ASSERT_TRUE(kv.TryAdmit(MakeState(1, 112, 8)));  // 7 blocks
    EXPECT_FALSE(kv.TryAdmit(a));  // 4 blocks, only 3 free
    EXPECT_EQ(kv.Held(0), 0);
    EXPECT_EQ(kv.SwappedBlocks(0), 4);
    kv.Release(1);
    EXPECT_TRUE(kv.TryAdmit(a));
    EXPECT_EQ(kv.Held(0), 4);
    EXPECT_EQ(kv.SwappedBlocks(0), 0);
    EXPECT_EQ(kv.FreeBlocks(), 6);
    kv.AuditLedger();
}

TEST(KvLedgerDeathTest, ZeroBlockReservationIsTracked)
{
    // A zero-token request holds zero blocks but still owns a
    // reservation: Release() works exactly once, like any other.
    KvAllocator kv(KvPolicy::kConservative, 10, 16);
    EXPECT_TRUE(kv.TryAdmit(MakeState(7, 0, 0)));
    EXPECT_EQ(kv.Held(7), 0);
    EXPECT_EQ(kv.UsedBlocks(), 0);
    kv.Release(7);
    kv.AuditLedger();
    EXPECT_EXIT(kv.Release(7), ::testing::ExitedWithCode(1), "FATAL");
}

TEST(KvLedgerDeathTest, DoubleAdmissionOfARunningRequest)
{
    KvAllocator kv = Watermark(10);
    RequestState a = MakeState(1, 16, 16);
    ASSERT_TRUE(kv.TryAdmit(a));
    a.phase = Phase::kRunning;
    EXPECT_EXIT(kv.TryAdmit(a), ::testing::ExitedWithCode(1), "FATAL");
}

TEST(KvLedgerDeathTest, DoubleRelease)
{
    KvAllocator kv(KvPolicy::kConservative, 10, 16);
    ASSERT_TRUE(kv.TryAdmit(MakeState(1, 16, 0)));
    kv.Release(1);
    EXPECT_EXIT(kv.Release(1), ::testing::ExitedWithCode(1), "FATAL");
}

TEST(KvLedgerDeathTest, ReleaseOfUnknownRequest)
{
    KvAllocator kv(KvPolicy::kConservative, 10, 16);
    EXPECT_EXIT(kv.Release(42), ::testing::ExitedWithCode(1), "FATAL");
}

TEST(KvLedgerDeathTest, ReleaseAfterEviction)
{
    // An evicted request holds no reservation until re-admitted.
    KvAllocator kv = Watermark(10);
    RequestState a = MakeState(1, 16, 16);
    ASSERT_TRUE(kv.TryAdmit(a));
    kv.Evict(a, PreemptMode::kRecompute);
    EXPECT_EXIT(kv.Release(1), ::testing::ExitedWithCode(1), "FATAL");
}

TEST(KvLedgerDeathTest, ZeroCapacityPool)
{
    EXPECT_EXIT(KvAllocator(KvPolicy::kConservative, 0, 16),
                ::testing::ExitedWithCode(1), "FATAL");
}

TEST(KvLedgerDeathTest, NegativeTokenCount)
{
    KvAllocator kv(KvPolicy::kConservative, 10, 16);
    EXPECT_EXIT(kv.BlocksFor(-1), ::testing::ExitedWithCode(1), "FATAL");
    EXPECT_EXIT(kv.TryAdmit(MakeState(1, -32, 0)),
                ::testing::ExitedWithCode(1), "FATAL");
}

TEST(KvLedgerDeathTest, TokenCapacityOverflow)
{
    // total_blocks * block_size must fit in a long.
    EXPECT_EXIT(KvAllocator(KvPolicy::kConservative,
                            std::numeric_limits<long>::max() / 2, 16),
                ::testing::ExitedWithCode(1), "FATAL");
}

TEST(KvLedgerDeathTest, GrowWithoutReservation)
{
    KvAllocator kv = Watermark(10);
    RequestState a = MakeState(5, 16, 16);
    a.phase = Phase::kRunning;
    a.prefilled = 16;
    a.decoded = 1;
    EXPECT_EXIT(kv.TryAppend(a), ::testing::ExitedWithCode(1), "FATAL");
}

// ---- shared account (prefix cache; docs/DESIGN.md S2.6) ----

TEST(KvLedgerSharedTest, PrefillCompleteRelabelsPrivateAsShared)
{
    KvAllocator kv = Watermark(10, PreemptMode::kRecompute, true);
    RequestState a = SharedPromptState(1, "sys", 100);  // 7 blocks
    ASSERT_TRUE(kv.TryAdmit(a));
    a.phase = Phase::kRunning;
    a.prefilled = 100;
    kv.OnPrefillComplete(a);
    // The 6 full prompt blocks become shared; the tail stays private.
    EXPECT_EQ(kv.Held(1), 1);
    EXPECT_EQ(kv.Cache()->TotalBlocks(), 6);
    EXPECT_EQ(kv.UsedBlocks(), 7);  // a relabel, not an allocation
    kv.AuditLedger();

    // Releasing frees the private tail; the shared blocks stay
    // cached, still counted as used.
    kv.Release(1);
    EXPECT_EQ(kv.UsedBlocks(), 6);
    kv.AuditLedger();
}

TEST(KvLedgerSharedTest, PrefillCompleteDropsDuplicatePrivateBlocks)
{
    // Both requests are admitted before either prompt is cached, so
    // both reserve the full prompt privately; the second promotion
    // finds the blocks cached and gives its copies back.
    KvAllocator kv = Watermark(20, PreemptMode::kRecompute, true);
    RequestState a = SharedPromptState(1, "sys", 96);  // 6 blocks
    RequestState b = SharedPromptState(2, "sys", 96);
    ASSERT_TRUE(kv.TryAdmit(a));
    ASSERT_TRUE(kv.TryAdmit(b));
    ASSERT_EQ(kv.UsedBlocks(), 12);
    for (RequestState* s : {&a, &b}) {
        s->phase = Phase::kRunning;
        s->prefilled = 96;
        kv.OnPrefillComplete(*s);
    }
    EXPECT_EQ(kv.Held(1), 0);
    EXPECT_EQ(kv.Held(2), 0);
    EXPECT_EQ(kv.Cache()->TotalBlocks(), 6);
    EXPECT_EQ(kv.UsedBlocks(), 6);  // the duplicates returned
    kv.AuditLedger();

    // A fully promoted request still owns its (empty) reservation:
    // Release() works exactly once.
    kv.Release(1);
    kv.Release(2);
    EXPECT_EQ(kv.UsedBlocks(), 6);
    kv.AuditLedger();
}

TEST(KvLedgerSharedTest, TryAppendEvictsOnlyWhenGrowthFits)
{
    KvAllocator kv = Watermark(10, PreemptMode::kRecompute, true);
    // Two dead cache blocks: "old" is cached, then released.
    RequestState old = SharedPromptState(1, "old", 32);
    ASSERT_TRUE(kv.TryAdmit(old));
    old.phase = Phase::kRunning;
    old.prefilled = 32;
    kv.OnPrefillComplete(old);
    kv.Release(1);
    ASSERT_EQ(kv.Cache()->EvictableBlocks(), 2);

    // A private 8-block prompt fills the rest of the pool.
    RequestState a = SharedPromptState(2, "new", 128);
    ASSERT_TRUE(kv.TryAdmit(a));
    a.phase = Phase::kRunning;
    a.prefilled = 128;
    ASSERT_EQ(kv.FreeBlocks(), 0);
    const prefix::PrefixCacheStats before = kv.Cache()->Stats();

    // Growing to 11 blocks needs 3, but only 2 could be reclaimed:
    // nothing may be evicted for a growth that fails anyway.
    a.decoded = 40;
    EXPECT_FALSE(kv.TryAppend(a));
    EXPECT_EQ(kv.FreeBlocks(), 0);
    EXPECT_EQ(kv.Cache()->EvictableBlocks(), 2);
    EXPECT_EQ(kv.Cache()->Stats().evicted_blocks, before.evicted_blocks);
    EXPECT_EQ(kv.Cache()->Stats().cached_blocks, before.cached_blocks);
    EXPECT_EQ(kv.Held(2), 8);
    kv.AuditLedger();

    // Growing to 10 blocks needs exactly the 2 dead ones.
    a.decoded = 20;
    EXPECT_TRUE(kv.TryAppend(a));
    EXPECT_EQ(kv.Held(2), 10);
    EXPECT_EQ(kv.FreeBlocks(), 0);
    EXPECT_EQ(kv.Cache()->EvictableBlocks(), 0);
    EXPECT_EQ(kv.Cache()->Stats().evicted_blocks,
              before.evicted_blocks + 2);
    kv.AuditLedger();
}

TEST(KvLedgerSharedDeathTest, PromotionWithoutReservation)
{
    // An evicted request's re-run prompt cannot move blocks it no
    // longer holds into the shared account.
    KvAllocator kv = Watermark(10, PreemptMode::kRecompute, true);
    RequestState a = SharedPromptState(1, "sys", 64);
    ASSERT_TRUE(kv.TryAdmit(a));
    a.phase = Phase::kRunning;
    a.prefilled = 64;
    kv.OnPrefillComplete(a);
    kv.Evict(a, PreemptMode::kRecompute);
    kv.AuditLedger();
    EXPECT_EXIT(kv.OnPrefillComplete(a), ::testing::ExitedWithCode(1),
                "FATAL");
}

}  // namespace
}  // namespace pod::serve
