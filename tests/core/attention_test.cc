/**
 * @file
 * Tests of the attention backend dispatcher, including the paper's
 * headline property: POD-Attention never under-performs serial
 * execution (S5.1), verified over a parameterized sweep of hybrid
 * batches.
 */
#include "core/attention.h"

#include <gtest/gtest.h>

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

kernels::AttnShape
Yi6B()
{
    kernels::AttnShape shape;
    shape.num_q_heads = 32;
    shape.num_kv_heads = 4;
    shape.head_dim = 128;
    return shape;
}

TEST(RunAttention, AllBackendsProduceSaneResults)
{
    auto batch =
        kernels::HybridBatch::Make(Llama3Tp2(), 1024, 8192, 64, 8192);
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    for (Backend backend : AllBackends()) {
        AttnRunResult result = RunAttention(backend, batch, spec);
        EXPECT_GT(result.total_time, 0.0) << BackendName(backend);
        EXPECT_GT(result.energy_joules, 0.0) << BackendName(backend);
        EXPECT_GT(result.total_ctas, 0) << BackendName(backend);
        EXPECT_GE(result.tensor_util, 0.0);
        EXPECT_LE(result.tensor_util, 1.0 + 1e-9);
        EXPECT_GE(result.mem_util, 0.0);
        EXPECT_LE(result.mem_util, 1.0 + 1e-9);
        EXPECT_LE(result.useful_tensor_util,
                  result.tensor_util + 1e-9)
            << BackendName(backend);
    }
}

TEST(RunAttention, DegenerateBatches)
{
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    auto prefill_only =
        kernels::HybridBatch::Make(Llama3Tp2(), 2048, 2048, 0, 0);
    auto decode_only =
        kernels::HybridBatch::Make(Llama3Tp2(), 0, 0, 32, 4096);
    for (Backend backend : AllBackends()) {
        AttnRunResult p = RunAttention(backend, prefill_only, spec);
        EXPECT_GT(p.total_time, 0.0);
        EXPECT_GT(p.prefill_time, 0.0);
        EXPECT_DOUBLE_EQ(p.decode_time, 0.0);
        AttnRunResult d = RunAttention(backend, decode_only, spec);
        EXPECT_GT(d.total_time, 0.0);
        EXPECT_GT(d.decode_time, 0.0);
        EXPECT_DOUBLE_EQ(d.prefill_time, 0.0);
    }
}

TEST(RunAttention, PodOverlapsPrefillAndDecode)
{
    // Balanced batch (paper Table 1 C1): the fused kernel finishes
    // well before the serial sum of its parts.
    auto batch =
        kernels::HybridBatch::Make(Llama3Tp2(), 12288, 12288, 220, 12288);
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    AttnRunResult serial = RunAttention(Backend::kFaSerial, batch, spec);
    AttnRunResult pod = RunAttention(Backend::kPod, batch, spec);
    EXPECT_LT(pod.total_time, serial.total_time * 0.8);
    // Both resources busy simultaneously in the fused kernel.
    EXPECT_GT(pod.mem_util, serial.mem_util);
}

TEST(RunAttention, PodReducesEnergy)
{
    auto batch =
        kernels::HybridBatch::Make(Yi6B(), 2048, 16384, 54, 16384);
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    AttnRunResult serial = RunAttention(Backend::kFaSerial, batch, spec);
    AttnRunResult pod = RunAttention(Backend::kPod, batch, spec);
    EXPECT_LT(pod.energy_joules, serial.energy_joules);
}

TEST(RunAttention, ExhaustiveAutotuneAtLeastAsGood)
{
    auto batch =
        kernels::HybridBatch::Make(Yi6B(), 1024, 8192, 48, 8192);
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    AttnRunOptions two;
    two.pod.ctas_per_sm = CtasPerSm::kTwo;
    AttnRunOptions four;
    four.pod.ctas_per_sm = CtasPerSm::kFour;
    AttnRunOptions best;
    best.pod.ctas_per_sm = CtasPerSm::kAuto;
    double t2 = RunAttention(Backend::kPod, batch, spec, two).total_time;
    double t4 = RunAttention(Backend::kPod, batch, spec, four).total_time;
    double tb = RunAttention(Backend::kPod, batch, spec, best).total_time;
    EXPECT_LE(tb, std::min(t2, t4) + 1e-12);
}

TEST(RunAttention, FiBatchedDegradesAtLongContext)
{
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    // Long context: FI_Batched pays padded compute + group re-reads.
    auto long_ctx =
        kernels::HybridBatch::Make(Llama3Tp2(), 1024, 16384, 64, 16384);
    double serial =
        RunAttention(Backend::kFaSerial, long_ctx, spec).total_time;
    double batched =
        RunAttention(Backend::kFiBatched, long_ctx, spec).total_time;
    EXPECT_GT(batched, serial * 1.1);
}

TEST(PodAttentionApi, RunAndSpeedup)
{
    PodAttention pod(gpusim::GpuSpec::A100Sxm80GB());
    auto batch =
        kernels::HybridBatch::Make(Llama3Tp2(), 12288, 12288, 128, 12288);
    AttnRunResult result = pod.Run(batch);
    EXPECT_EQ(result.backend, Backend::kPod);
    EXPECT_GT(result.pod_plan.prefill_ctas, 0);
    double speedup = pod.SpeedupOverSerial(batch);
    EXPECT_GT(speedup, 1.0);
}

TEST(RunAttention, PersistentVariantOnPar)
{
    // Paper S4.4: the persistent-threads strategy, combined with
    // SM-aware scheduling, performs on par with CTA-parallel fusion.
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    for (int bs : {48, 128}) {
        auto batch = kernels::HybridBatch::Make(Llama3Tp2(), 2048, 12288,
                                                bs, 12288);
        AttnRunOptions persistent;
        persistent.pod.persistent = true;
        double tp =
            RunAttention(Backend::kPod, batch, spec, persistent)
                .total_time;
        double tc = RunAttention(Backend::kPod, batch, spec).total_time;
        double serial =
            RunAttention(Backend::kFaSerial, batch, spec).total_time;
        EXPECT_LT(tp, serial) << "bs=" << bs;
        EXPECT_NEAR(tp / tc, 1.0, 0.15) << "bs=" << bs;
    }
}

TEST(BackendNames, AllDistinct)
{
    auto backends = AllBackends();
    EXPECT_EQ(backends.size(), 6u);
    for (size_t i = 0; i < backends.size(); ++i) {
        for (size_t j = i + 1; j < backends.size(); ++j) {
            EXPECT_STRNE(BackendName(backends[i]),
                         BackendName(backends[j]));
        }
    }
}

/**
 * The paper's key claim (S5.1): "unlike other alternatives,
 * POD-Attention never under-performs serial execution" -- checked
 * over a sweep of batch compositions (context length x chunk size x
 * decode batch size), with a small tolerance for simulation noise.
 */
class PodNeverSlowerTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(PodNeverSlowerTest, PodVsSerial)
{
    auto [ctx, chunk, decode_bs] = GetParam();
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    auto batch = kernels::HybridBatch::Make(Llama3Tp2(), chunk, ctx,
                                            decode_bs, ctx);
    double serial =
        RunAttention(Backend::kFaSerial, batch, spec).total_time;
    double pod = RunAttention(Backend::kPod, batch, spec).total_time;
    EXPECT_LE(pod, serial * 1.03)
        << "ctx=" << ctx << " chunk=" << chunk << " bs=" << decode_bs;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PodNeverSlowerTest,
    ::testing::Combine(::testing::Values(4096, 8192, 16384),  // context
                       ::testing::Values(512, 1024, 2048),    // chunk
                       ::testing::Values(8, 32, 96, 200)));   // decode bs

}  // namespace
}  // namespace pod::core
