/**
 * @file
 * Unit tests for POD-Attention kernel assembly: plan resolution,
 * CTAs/SM rule, split limiting, virtual CTA packing and policy
 * instantiation.
 */
#include "core/pod_kernel.h"

#include <gtest/gtest.h>

#include "gpusim/engine.h"

namespace pod::core {
namespace {

kernels::AttnShape
Llama3Tp2()
{
    kernels::AttnShape shape;
    shape.num_q_heads = 16;
    shape.num_kv_heads = 4;
    shape.head_dim = 128;
    return shape;
}

TEST(ChooseCtasPerSmTest, ForcedSettings)
{
    auto batch = kernels::HybridBatch::Make(Llama3Tp2(), 512, 16384, 64,
                                            16384);
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    PodOptions options;
    options.ctas_per_sm = CtasPerSm::kTwo;
    EXPECT_EQ(ChooseCtasPerSm(batch, spec, options), 2);
    options.ctas_per_sm = CtasPerSm::kFour;
    EXPECT_EQ(ChooseCtasPerSm(batch, spec, options), 4);
}

TEST(ChooseCtasPerSmTest, RuleMatchesFig13Cells)
{
    // Fig. 13 cells (Llama-3-8B TP-2, 2K chunk, decode context = prefill
    // context), each the simulated winner: up to 128 decodes the
    // prefill holds >= 1/2 of the grid's CTAs and 4 CTAs/SM co-locates
    // better; at 192+ decodes the decode units dominate and 2 CTAs/SM's
    // large prefill tile wins.
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    PodOptions options;  // auto
    struct Cell
    {
        int ctx;
        int decode_bs;
        int ctas;
    };
    const Cell cells[] = {{2048, 32, 4},   {8192, 64, 4},  {16384, 128, 4},
                          {4096, 192, 2},  {20480, 256, 2}};
    for (const Cell& c : cells) {
        auto batch = kernels::HybridBatch::Make(Llama3Tp2(), 2048, c.ctx,
                                                c.decode_bs, c.ctx);
        EXPECT_EQ(ChooseCtasPerSm(batch, spec, options), c.ctas)
            << "ctx=" << c.ctx << " bs=" << c.decode_bs;
    }
}

TEST(BuildPodKernelTest, PlanBasics)
{
    auto batch = kernels::HybridBatch::Make(Llama3Tp2(), 512, 16384, 64,
                                            16384);
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    PodOptions options;
    PodPlan plan;
    gpusim::KernelDesc kernel = BuildPodKernel(batch, spec, options, &plan);

    EXPECT_TRUE(plan.ctas_per_sm == 2 || plan.ctas_per_sm == 4);
    EXPECT_GT(plan.prefill_ctas, 0);
    EXPECT_GT(plan.decode_physical_ctas, 0);
    EXPECT_EQ(plan.decode_virtual_units,
              64 * 4 * plan.decode_splits);  // bs x kv_heads x splits
    // Virtual packing: 4 units per physical CTA.
    EXPECT_EQ(plan.decode_physical_ctas,
              (plan.decode_virtual_units + 3) / 4);
    EXPECT_EQ(kernel.cta_count, plan.TotalCtas());
    EXPECT_EQ(kernel.max_ctas_per_sm, plan.ctas_per_sm);
    // The fused footprint matches the prefill tile.
    EXPECT_DOUBLE_EQ(
        plan.resources.shared_mem_bytes,
        plan.prefill_tile.SmemBytes(batch.shape.head_dim));
}

TEST(BuildPodKernelTest, LimitedSplitsAreLimited)
{
    auto batch = kernels::HybridBatch::Make(Llama3Tp2(), 512, 16384, 64,
                                            16384);
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();

    PodOptions limited;
    limited.split_policy = SplitPolicy::kLimited;
    limited.ctas_per_sm = CtasPerSm::kTwo;
    PodPlan lim_plan;
    BuildPodKernel(batch, spec, limited, &lim_plan);

    PodOptions vanilla = limited;
    vanilla.split_policy = SplitPolicy::kVanilla;
    PodPlan van_plan;
    BuildPodKernel(batch, spec, vanilla, &van_plan);

    EXPECT_LT(lim_plan.prefill_splits, van_plan.prefill_splits);
    // Limited: prefill CTAs fit in two waves of SMs.
    EXPECT_LE(lim_plan.prefill_ctas, 2 * spec.num_sms);
    // Splits add memory traffic (partials + merge).
    EXPECT_GT(van_plan.mem_bytes, lim_plan.mem_bytes);
}

TEST(BuildPodKernelTest, FiftyFiftyPolicy)
{
    auto batch =
        kernels::HybridBatch::Make(Llama3Tp2(), 1024, 8192, 32, 8192);
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    PodOptions options;
    options.policy = SchedPolicy::kFiftyFifty;
    PodPlan plan;
    BuildPodKernel(batch, spec, options, &plan);
    EXPECT_EQ(plan.policy.ratio_a, 1);
    EXPECT_EQ(plan.policy.ratio_b, 1);
}

TEST(BuildPodKernelTest, WorkConservation)
{
    // Everything the plan promises is dispatched by the kernel.
    auto batch =
        kernels::HybridBatch::Make(Llama3Tp2(), 1024, 4096, 24, 8192);
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    PodOptions options;
    PodPlan plan;
    gpusim::KernelDesc kernel = BuildPodKernel(batch, spec, options, &plan);

    gpusim::FluidEngine engine(spec);
    gpusim::SimResult result = engine.RunKernel(kernel);
    EXPECT_EQ(result.Op(gpusim::OpClass::kPrefill).unit_count,
              plan.prefill_ctas);
    EXPECT_EQ(result.Op(gpusim::OpClass::kDecode).unit_count,
              plan.decode_virtual_units);
    double served =
        result.Op(gpusim::OpClass::kPrefill).tensor_flops +
        result.Op(gpusim::OpClass::kDecode).tensor_flops;
    EXPECT_NEAR(served, plan.issued_tensor_flops,
                plan.issued_tensor_flops * 1e-6);
}

TEST(BuildPodKernelDeathTest, RequiresBothOps)
{
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    PodOptions options;
    auto prefill_only =
        kernels::HybridBatch::Make(Llama3Tp2(), 512, 512, 0, 0);
    EXPECT_EXIT(BuildPodKernel(prefill_only, spec, options),
                ::testing::ExitedWithCode(1), "FATAL");
}

TEST(PodConfigNames, Printable)
{
    EXPECT_STREQ(SchedPolicyName(SchedPolicy::kProportional),
                 "proportional");
    EXPECT_STREQ(SchedPolicyName(SchedPolicy::kFiftyFifty), "50:50");
    EXPECT_STREQ(SplitPolicyName(SplitPolicy::kLimited), "limited");
    EXPECT_STREQ(SplitPolicyName(SplitPolicy::kVanilla), "vanilla");
}

}  // namespace
}  // namespace pod::core
