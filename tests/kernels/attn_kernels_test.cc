/**
 * @file
 * Unit tests for baseline attention kernel assembly (simple, batched,
 * HFuse).
 */
#include "kernels/attn_kernels.h"

#include <gtest/gtest.h>

#include "gpusim/engine.h"
#include "gpusim/gpu_spec.h"
#include "kernels/sm_aware.h"

namespace pod::kernels {
namespace {

AttnShape
Shape4x2()
{
    AttnShape shape;
    shape.num_q_heads = 4;
    shape.num_kv_heads = 2;
    shape.head_dim = 64;
    return shape;
}

UnitGeometry
SmallPrefill()
{
    GeomOptions opts;
    opts.tile = PrefillTileLarge();
    return BuildPrefillUnits(Shape4x2(), PrefillItem{256, 1024}, opts);
}

UnitGeometry
SmallDecode()
{
    GeomOptions opts;
    opts.tile = DecodeTileFa();
    return BuildDecodeUnits(Shape4x2(), DecodeItem::Uniform(3, 1024), opts);
}

TEST(SimpleKernel, OneCtaPerUnit)
{
    UnitGeometry geom = SmallPrefill();
    gpusim::KernelDesc kernel = MakeSimpleKernel("k", geom);
    EXPECT_EQ(kernel.cta_count, static_cast<int>(geom.units.size()));
    EXPECT_EQ(kernel.resources.threads, geom.resources.threads);
    // Every CTA carries exactly one unit.
    for (int i = 0; i < kernel.cta_count; ++i) {
        EXPECT_EQ(kernel.assign(i, 0).units.size(), 1u);
    }
}

TEST(BatchedKernel, InterleavesBothSides)
{
    UnitGeometry prefill = SmallPrefill();
    GeomOptions opts;
    opts.tile = PrefillTileLarge();
    UnitGeometry decode =
        BuildDecodeAsPrefillUnits(Shape4x2(), DecodeItem::Uniform(3, 1024),
                                  opts);
    // FI_Batched's assembly (core/attention.cc).
    gpusim::KernelDesc kernel = MakeCtaParallelKernel(
        "b", prefill.resources, OneCtaPerUnit(prefill),
        OneCtaPerUnit(decode));
    EXPECT_EQ(kernel.cta_count, static_cast<int>(prefill.units.size() +
                                                 decode.units.size()));
    int prefill_seen = 0;
    int decode_seen = 0;
    for (int i = 0; i < kernel.cta_count; ++i) {
        auto work = kernel.assign(i, 0);
        ASSERT_EQ(work.units.size(), 1u);
        if (work.units[0].op == gpusim::OpClass::kPrefill) ++prefill_seen;
        else ++decode_seen;
    }
    EXPECT_EQ(prefill_seen, static_cast<int>(prefill.units.size()));
    EXPECT_EQ(decode_seen, static_cast<int>(decode.units.size()));
}

TEST(HFuseKernel, GridIsMaxAndResourcesAreSum)
{
    UnitGeometry prefill = SmallPrefill();  // 8 units
    UnitGeometry decode = SmallDecode();    // 6 units
    gpusim::KernelDesc kernel = MakeHFuseKernel("h", prefill, decode);
    EXPECT_EQ(kernel.cta_count,
              static_cast<int>(
                  std::max(prefill.units.size(), decode.units.size())));
    EXPECT_EQ(kernel.resources.threads, prefill.resources.threads +
                                            decode.resources.threads);
    EXPECT_DOUBLE_EQ(kernel.resources.shared_mem_bytes,
                     prefill.resources.shared_mem_bytes +
                         decode.resources.shared_mem_bytes);
    // Paired CTAs host two units; the tail hosts one.
    size_t pairs = std::min(prefill.units.size(), decode.units.size());
    for (int i = 0; i < kernel.cta_count; ++i) {
        size_t expect =
            static_cast<size_t>(i) < pairs ? 2u : 1u;
        EXPECT_EQ(kernel.assign(i, 0).units.size(), expect);
    }
}

TEST(HFuseKernel, StragglerHoldsResources)
{
    // One fused CTA with a fast memory unit and a slow compute unit:
    // a queued second CTA cannot start until the slow unit finishes
    // (the straggler problem, paper S3.1).
    gpusim::GpuSpec spec = gpusim::GpuSpec::TestGpu8Sm();
    spec.num_sms = 1;

    gpusim::WorkUnit slow;
    slow.op = gpusim::OpClass::kPrefill;
    slow.warps = 4;
    slow.phases.push_back(gpusim::Phase{2e9, 0.0, 0.0});  // 2 ms alone
    gpusim::WorkUnit fast;
    fast.op = gpusim::OpClass::kDecode;
    fast.warps = 4;
    fast.phases.push_back(gpusim::Phase{0.0, 0.0, 1.6e6});  // 0.1 ms

    gpusim::CtaWork fused;
    fused.units = {slow, fast};
    gpusim::CtaWork follow;
    follow.units = {fast};

    // The CTA occupies the whole SM (1024 threads).
    gpusim::KernelDesc kernel = gpusim::KernelDesc::FromWorks(
        "h", gpusim::CtaResources{1024, 0.0}, {fused, follow});
    gpusim::SimOptions opts;
    opts.kernel_launch_overhead = 0.0;
    gpusim::FluidEngine engine(spec, opts);
    gpusim::SimResult result = engine.RunKernel(kernel);
    // Follow-up CTA had to wait 2 ms for the straggler.
    EXPECT_GT(result.total_time, 2e-3);
}

TEST(HFuseKernelDeathTest, RejectsEmpty)
{
    UnitGeometry empty_a;
    UnitGeometry empty_b;
    EXPECT_EXIT(MakeHFuseKernel("h", empty_a, empty_b),
                ::testing::ExitedWithCode(1), "FATAL");
}

}  // namespace
}  // namespace pod::kernels
