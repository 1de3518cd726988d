/**
 * @file
 * Unit tests for the FlashAttention-style geometry builders: grid
 * sizes, FLOP/byte accounting, causal masking, padding redundancy and
 * split heuristics.
 */
#include "kernels/flash_geometry.h"

#include <gtest/gtest.h>

#include "common/math_util.h"

namespace pod::kernels {
namespace {

AttnShape
Shape(int q_heads, int kv_heads, int d = 128)
{
    AttnShape shape;
    shape.num_q_heads = q_heads;
    shape.num_kv_heads = kv_heads;
    shape.head_dim = d;
    return shape;
}

GeomOptions
Opts(TileConfig tile, int splits = 1)
{
    GeomOptions opts;
    opts.tile = tile;
    opts.num_splits = splits;
    return opts;
}

TEST(PrefillGeometry, GridSize)
{
    // 8 q heads, chunk 512 at tile 128 -> 4 q tiles per head.
    UnitGeometry geom = BuildPrefillUnits(
        Shape(8, 2), PrefillItem{512, 512}, Opts(PrefillTileLarge()));
    EXPECT_EQ(geom.units.size(), 8u * 4u);
}

TEST(PrefillGeometry, GridSizeWithSplits)
{
    UnitGeometry geom = BuildPrefillUnits(
        Shape(8, 2), PrefillItem{512, 4096}, Opts(PrefillTileLarge(), 3));
    EXPECT_EQ(geom.units.size(), 8u * 4u * 3u);
}

TEST(PrefillGeometry, UsefulFlopsAreCausallyExact)
{
    // Single head, chunk 128 == kv 128, tile 128: useful scores are
    // the causal triangle: sum_{i=1..128} i = 128*129/2.
    UnitGeometry geom = BuildPrefillUnits(
        Shape(1, 1, 64), PrefillItem{128, 128}, Opts(PrefillTileLarge()));
    double expected_scores = 128.0 * 129.0 / 2.0;
    EXPECT_NEAR(geom.useful_tensor_flops, 4.0 * expected_scores * 64.0,
                1.0);
    // Issued covers the full padded tile: 128 x 128 scores.
    EXPECT_NEAR(geom.issued_tensor_flops, 4.0 * 128.0 * 128.0 * 64.0, 1.0);
}

TEST(PrefillGeometry, ChunkedPrefillSeesPriorContext)
{
    // Chunk 128 with 4096 of prior context: every query row attends
    // at least the 3968-token prefix.
    UnitGeometry geom = BuildPrefillUnits(
        Shape(1, 1, 64), PrefillItem{128, 4096}, Opts(PrefillTileLarge()));
    double prefix_scores = 128.0 * (4096.0 - 128.0);
    EXPECT_GT(geom.useful_tensor_flops, 4.0 * prefix_scores * 64.0);
    // And memory traffic covers the whole 4K context (both K and V).
    EXPECT_GT(geom.mem_bytes, 4096.0 * 64.0 * 2.0 * 2.0 * 0.5);
}

TEST(PrefillGeometry, SplitsPreserveTotalWork)
{
    UnitGeometry one = BuildPrefillUnits(
        Shape(4, 4), PrefillItem{256, 8192}, Opts(PrefillTileLarge(), 1));
    UnitGeometry four = BuildPrefillUnits(
        Shape(4, 4), PrefillItem{256, 8192}, Opts(PrefillTileLarge(), 4));
    EXPECT_NEAR(four.issued_tensor_flops, one.issued_tensor_flops,
                one.issued_tensor_flops * 1e-9);
    EXPECT_NEAR(four.useful_tensor_flops, one.useful_tensor_flops,
                one.useful_tensor_flops * 1e-9);
    // Splits add partial-output and merge traffic.
    EXPECT_GT(four.mem_bytes, one.mem_bytes);
}

TEST(PrefillGeometry, SharedMemoryMatchesTile)
{
    UnitGeometry geom = BuildPrefillUnits(
        Shape(2, 2), PrefillItem{128, 128}, Opts(PrefillTileLarge()));
    // (128 + 2*64) * 128 * 2B = 64 KiB.
    EXPECT_DOUBLE_EQ(geom.resources.shared_mem_bytes, 65536.0);
    EXPECT_EQ(geom.resources.threads, 256);
}

TEST(DecodeGeometry, GridIsBatchTimesKvHeads)
{
    UnitGeometry geom = BuildDecodeUnits(
        Shape(32, 4), DecodeItem::Uniform(10, 4096), Opts(DecodeTileFa()));
    EXPECT_EQ(geom.units.size(), 10u * 4u);
}

TEST(DecodeGeometry, PaddingRedundancyScalesWithTile)
{
    // GQA group 8: useful rows 8, padded to the QSL tile.
    AttnShape shape = Shape(32, 4);
    UnitGeometry t64 = BuildDecodeUnits(
        shape, DecodeItem::Uniform(4, 4096), Opts(DecodeTileFa()));
    UnitGeometry t16 = BuildDecodeUnits(
        shape, DecodeItem::Uniform(4, 4096), Opts(DecodeTilePod()));
    EXPECT_NEAR(t64.issued_tensor_flops / t16.issued_tensor_flops, 4.0,
                1e-6);
    // Useful work identical; memory nearly identical.
    EXPECT_NEAR(t64.useful_tensor_flops, t16.useful_tensor_flops, 1.0);
    EXPECT_NEAR(t64.mem_bytes, t16.mem_bytes, t64.mem_bytes * 0.01);
}

TEST(DecodeGeometry, IssuedAtLeastUseful)
{
    UnitGeometry geom = BuildDecodeUnits(
        Shape(32, 8), DecodeItem::Uniform(7, 1000), Opts(DecodeTilePod()));
    EXPECT_GE(geom.issued_tensor_flops, geom.useful_tensor_flops);
}

TEST(DecodeGeometry, MemoryDominatedByKv)
{
    int ctx = 16384;
    UnitGeometry geom = BuildDecodeUnits(
        Shape(32, 4), DecodeItem::Uniform(1, ctx), Opts(DecodeTileFa()));
    double kv_bytes = 4.0 * ctx * 128.0 * 2.0 * 2.0;  // 4 kv heads
    EXPECT_GT(geom.mem_bytes, kv_bytes);
    EXPECT_LT(geom.mem_bytes, kv_bytes * 1.1);
}

TEST(DecodeGeometry, MixedContextLengths)
{
    DecodeItem decode;
    decode.context_lens = {1024, 2048, 4096};
    UnitGeometry geom =
        BuildDecodeUnits(Shape(8, 2), decode, Opts(DecodeTilePod()));
    EXPECT_EQ(geom.units.size(), 3u * 2u);
    // Unit work scales with context: last request's units the largest.
    double first = geom.units[0].TotalMemBytes();
    double last = geom.units[4].TotalMemBytes();
    EXPECT_GT(last, first * 3.5);
}

TEST(DecodeAsPrefillGeometry, GroupRedundantTraffic)
{
    AttnShape shape = Shape(32, 4);  // group 8
    UnitGeometry decode = BuildDecodeUnits(
        shape, DecodeItem::Uniform(4, 8192), Opts(DecodeTilePod()));
    UnitGeometry batched = BuildDecodeAsPrefillUnits(
        shape, DecodeItem::Uniform(4, 8192), Opts(PrefillTileLarge()));
    // One unit per q head (not per kv head).
    EXPECT_EQ(batched.units.size(), 4u * 32u);
    // The prefill path issues far more padded compute...
    EXPECT_GT(batched.issued_tensor_flops,
              4.0 * decode.issued_tensor_flops);
    // ...and more DRAM traffic (group re-reads, partly L2-absorbed).
    EXPECT_GT(batched.mem_bytes, decode.mem_bytes * 1.2);
}

TEST(KvDramFactorTest, Bounds)
{
    EXPECT_DOUBLE_EQ(KvDramFactor(1, 0.12), 1.0);
    // Two reads at miss fraction 0.5: (1 + 0.5) / 2.
    EXPECT_DOUBLE_EQ(KvDramFactor(2, 0.5), 0.75);
    // Many reads converge to the miss fraction.
    EXPECT_NEAR(KvDramFactor(1000, 0.12), 0.12, 0.01);
    // Factor never exceeds 1 nor drops below the miss fraction.
    for (int reads = 1; reads <= 64; reads *= 2) {
        double f = KvDramFactor(reads, 0.12);
        EXPECT_LE(f, 1.0);
        EXPECT_GE(f, 0.12);
    }
}

TEST(SplitHeuristics, FlashDecodingFillsDevice)
{
    // 32 base CTAs, target 108: needs 4 splits.
    EXPECT_EQ(FlashDecodingSplits(32, 100000, 108), 4);
    // Already enough CTAs: no splits.
    EXPECT_EQ(FlashDecodingSplits(880, 100000, 108), 1);
    // Context bound: can't split 300 tokens 4 ways at 256 min.
    EXPECT_EQ(FlashDecodingSplits(32, 300, 108), 1);
    // Max splits cap.
    EXPECT_EQ(FlashDecodingSplits(1, 1 << 20, 10000), 16);
    EXPECT_EQ(FlashDecodingSplits(0, 100, 108), 1);
}

TEST(SplitHeuristics, VanillaVsLimited)
{
    // Paper Table 8 configuration: Llama-3-8B TP-2 (16 q heads),
    // chunk 512, ctx 16K -> 64 base CTAs on 108 SMs.
    int base = 64;
    int vanilla = VanillaPrefillSplits(base, 16384, 108);
    int limited = LimitedPrefillSplits(base, 16384, 108);
    EXPECT_GT(vanilla, limited);
    EXPECT_EQ(limited, 3);  // floor(2*108/64)
    EXPECT_GE(vanilla, 8);
    // Limited never exceeds two waves of SMs.
    EXPECT_LE(limited * base, 2 * 108);
}

TEST(SplitHeuristics, LimitedShortContext)
{
    // Tiny context: no room to split at all.
    EXPECT_EQ(LimitedPrefillSplits(4, 128, 108), 1);
    // Large base: one split.
    EXPECT_EQ(LimitedPrefillSplits(1024, 16384, 108), 1);
}

TEST(PrefillGeometry, PhasesBounded)
{
    UnitGeometry geom = BuildPrefillUnits(
        Shape(2, 2), PrefillItem{1024, 16384}, Opts(PrefillTileLarge()));
    for (const auto& unit : geom.units) {
        EXPECT_LE(unit.phases.size(), 4u);
        EXPECT_GE(unit.phases.size(), 1u);
    }
}

TEST(PrefillGeometry, UnitMetadata)
{
    UnitGeometry geom = BuildPrefillUnits(
        Shape(2, 2), PrefillItem{128, 128}, Opts(PrefillTileLarge()));
    for (const auto& unit : geom.units) {
        EXPECT_EQ(unit.op, gpusim::OpClass::kPrefill);
        EXPECT_EQ(unit.warps, 8);
        EXPECT_GT(unit.mem_bw_cap, 0.0);
    }
}

TEST(DecodeGeometry, UnitMetadata)
{
    UnitGeometry geom = BuildDecodeUnits(
        Shape(8, 2), DecodeItem::Uniform(2, 512), Opts(DecodeTileVirtual()));
    for (const auto& unit : geom.units) {
        EXPECT_EQ(unit.op, gpusim::OpClass::kDecode);
        EXPECT_EQ(unit.warps, 1);
    }
}

/** Property sweep: work accounting is consistent across shapes. */
class GeometryPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(GeometryPropertyTest, AccountingInvariants)
{
    auto [q_heads, kv_heads, chunk, ctx] = GetParam();
    AttnShape shape = Shape(q_heads, kv_heads);
    UnitGeometry prefill = BuildPrefillUnits(
        shape, PrefillItem{chunk, ctx}, Opts(PrefillTileLarge()));
    UnitGeometry decode = BuildDecodeUnits(
        shape, DecodeItem::Uniform(4, ctx), Opts(DecodeTilePod()));

    for (const UnitGeometry* geom : {&prefill, &decode}) {
        EXPECT_GE(geom->issued_tensor_flops, geom->useful_tensor_flops);
        EXPECT_GT(geom->mem_bytes, 0.0);
        double sum_tensor = 0.0;
        double sum_mem = 0.0;
        for (const auto& unit : geom->units) {
            sum_tensor += unit.TotalTensorFlops();
            sum_mem += unit.TotalMemBytes();
        }
        EXPECT_NEAR(sum_tensor, geom->issued_tensor_flops,
                    geom->issued_tensor_flops * 1e-9 + 1.0);
        EXPECT_NEAR(sum_mem, geom->mem_bytes, geom->mem_bytes * 1e-9 + 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometryPropertyTest,
    ::testing::Combine(::testing::Values(8, 16, 32),   // q heads
                       ::testing::Values(1, 4, 8),     // kv heads
                       ::testing::Values(128, 512, 1000),  // chunk
                       ::testing::Values(2048, 16384)));   // ctx

}  // namespace
}  // namespace pod::kernels
