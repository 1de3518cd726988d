/**
 * @file
 * Unit tests for model configs and the iteration cost model.
 */
#include "model/iteration_cost.h"
#include "model/model_config.h"

#include <gtest/gtest.h>

namespace pod::model {
namespace {

TEST(ModelConfigTest, Presets)
{
    ModelConfig yi = ModelConfig::Yi6B();
    EXPECT_EQ(yi.num_kv_heads, 4);
    ModelConfig l2 = ModelConfig::Llama2_7B();
    EXPECT_EQ(l2.num_kv_heads, 32);  // MHA
    ModelConfig l3 = ModelConfig::Llama3_8B();
    EXPECT_EQ(l3.num_kv_heads, 8);
    // All paper models have 32 query heads and 32 layers (Table 4).
    for (const auto& m : {yi, l2, l3}) {
        EXPECT_EQ(m.num_q_heads, 32);
        EXPECT_EQ(m.num_layers, 32);
        EXPECT_EQ(m.head_dim, 128);
    }
}

TEST(ModelConfigTest, ShapePerGpu)
{
    ModelConfig l3 = ModelConfig::Llama3_8B();
    kernels::AttnShape tp1 = l3.ShapePerGpu(1);
    EXPECT_EQ(tp1.num_q_heads, 32);
    EXPECT_EQ(tp1.num_kv_heads, 8);
    kernels::AttnShape tp2 = l3.ShapePerGpu(2);
    EXPECT_EQ(tp2.num_q_heads, 16);
    EXPECT_EQ(tp2.num_kv_heads, 4);
}

TEST(ModelConfigTest, WeightBytesBallpark)
{
    // Llama-3-8B is ~8B params -> ~16 GB FP16.
    double total = ModelConfig::Llama3_8B().WeightBytesPerGpu(1);
    EXPECT_GT(total, 13e9);
    EXPECT_LT(total, 19e9);
    // TP-2 halves it.
    double half = ModelConfig::Llama3_8B().WeightBytesPerGpu(2);
    EXPECT_NEAR(half, total / 2.0, total * 0.01);
}

TEST(ModelConfigTest, KvBytesPerToken)
{
    // Llama-3-8B TP-1: 2 (K,V) x 2 B x 8 heads x 128 x 32 layers.
    double bytes = ModelConfig::Llama3_8B().KvBytesPerTokenPerGpu(1);
    EXPECT_DOUBLE_EQ(bytes, 2.0 * 2.0 * 8.0 * 128.0 * 32.0);
    double tp2 = ModelConfig::Llama3_8B().KvBytesPerTokenPerGpu(2);
    EXPECT_DOUBLE_EQ(tp2, bytes / 2.0);
}

TEST(ModelConfigDeathTest, RejectsBadTp)
{
    EXPECT_EXIT(ModelConfig::Llama3_8B().Validate(5),
                ::testing::ExitedWithCode(1), "FATAL");
}

TEST(LinearCostsTest, ZeroTokensFree)
{
    LinearCosts costs = ComputeLinearCosts(
        ModelConfig::Llama3_8B(), gpusim::GpuSpec::A100Sxm80GB(), 1, 0);
    EXPECT_DOUBLE_EQ(costs.qkv_proj, 0.0);
    EXPECT_DOUBLE_EQ(costs.ffn, 0.0);
}

TEST(LinearCostsTest, WeightBoundAtSmallBatch)
{
    // At 1 token, GEMMs are weight-read bound: doubling tokens
    // barely changes the time.
    ModelConfig model = ModelConfig::Llama3_8B();
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    LinearCosts one = ComputeLinearCosts(model, spec, 1, 1);
    LinearCosts two = ComputeLinearCosts(model, spec, 1, 2);
    EXPECT_LT(two.ffn, one.ffn * 1.05);
    // At large batch, compute bound: doubling tokens doubles time.
    LinearCosts big = ComputeLinearCosts(model, spec, 1, 4096);
    LinearCosts bigger = ComputeLinearCosts(model, spec, 1, 8192);
    EXPECT_NEAR(bigger.ffn / big.ffn, 2.0, 0.1);
}

TEST(LinearCostsTest, HybridBatchingAmortizesWeights)
{
    // The motivation for hybrid batching (paper S2.1): one batch of
    // prefill+decode tokens reads weights once; separate batches read
    // them twice.
    ModelConfig model = ModelConfig::Llama3_8B();
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    LinearCosts hybrid = ComputeLinearCosts(model, spec, 1, 512 + 64);
    LinearCosts prefill = ComputeLinearCosts(model, spec, 1, 512);
    LinearCosts decode = ComputeLinearCosts(model, spec, 1, 64);
    EXPECT_LT(hybrid.ffn, prefill.ffn + decode.ffn);
}

TEST(LinearCostsTest, TpAddsCommButSplitsCompute)
{
    ModelConfig model = ModelConfig::Llama3_8B();
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    LinearCosts tp1 = ComputeLinearCosts(model, spec, 1, 4096);
    LinearCosts tp2 = ComputeLinearCosts(model, spec, 2, 4096);
    EXPECT_DOUBLE_EQ(tp1.allreduce, 0.0);
    EXPECT_GT(tp2.allreduce, 0.0);
    EXPECT_LT(tp2.ffn, tp1.ffn);
}

TEST(IterationCostTest, BreakdownSumsToTotal)
{
    IterationCostModel cost(ModelConfig::Llama3_8B(),
                            gpusim::GpuSpec::A100Sxm80GB(), 2,
                            core::Backend::kFaSerial);
    auto batch = kernels::HybridBatch::Make(
        ModelConfig::Llama3_8B().ShapePerGpu(2), 1024, 16384, 60, 16384);
    IterationBreakdown b = cost.Cost(batch, 61);
    double sum = b.pre_proj + b.post_proj + b.ffn + b.comm + b.others +
                 b.attn_total + b.logits + b.overhead;
    EXPECT_NEAR(b.total, sum, 1e-12);
    EXPECT_NEAR(b.linear, b.pre_proj + b.post_proj + b.ffn + b.comm + b.others,
                1e-12);
    EXPECT_EQ(b.total, b.overhead + b.linear + b.attn_total + b.logits);
    EXPECT_GT(b.total, 0.0);
    EXPECT_GT(b.logits, 0.0);
    EXPECT_GT(b.overhead, 0.0);
    EXPECT_GT(b.attn_total, 0.0);
    // Serial backend splits attention into prefill + decode parts.
    EXPECT_NEAR(b.prefill_attn + b.decode_attn, b.attn_total,
                b.attn_total * 0.05);
}

TEST(IterationCostTest, AttentionDominatesAtLongContext)
{
    // Fig. 4: at 16K context, attention is the majority of the
    // iteration; at 1K it is a small fraction.
    IterationCostModel cost(ModelConfig::Llama3_8B(),
                            gpusim::GpuSpec::A100Sxm80GB(), 2,
                            core::Backend::kFaSerial);
    auto shape = ModelConfig::Llama3_8B().ShapePerGpu(2);

    auto long_batch = kernels::HybridBatch::Make(shape, 1024, 16384, 60,
                                                 16384);
    IterationBreakdown long_b = cost.Cost(long_batch, 61);
    EXPECT_GT(long_b.attn_total / long_b.total, 0.45);

    auto short_batch =
        kernels::HybridBatch::Make(shape, 1024, 1024, 60, 1024);
    IterationBreakdown short_b = cost.Cost(short_batch, 61);
    EXPECT_LT(short_b.attn_total / short_b.total, 0.35);
}

TEST(IterationCostTest, PodBackendFasterAtLongContext)
{
    auto shape = ModelConfig::Llama3_8B().ShapePerGpu(2);
    auto batch =
        kernels::HybridBatch::Make(shape, 2048, 16384, 48, 16384);
    IterationCostModel serial(ModelConfig::Llama3_8B(),
                              gpusim::GpuSpec::A100Sxm80GB(), 2,
                              core::Backend::kFaSerial);
    IterationCostModel pod(ModelConfig::Llama3_8B(),
                           gpusim::GpuSpec::A100Sxm80GB(), 2,
                           core::Backend::kPod);
    EXPECT_LT(pod.Cost(batch, 49).total, serial.Cost(batch, 49).total);
}

TEST(IterationCostTest, EmptyBatchIsFree)
{
    IterationCostModel cost(ModelConfig::Yi6B(),
                            gpusim::GpuSpec::A100Sxm80GB(), 1,
                            core::Backend::kFaSerial);
    kernels::HybridBatch batch;
    batch.shape = ModelConfig::Yi6B().ShapePerGpu(1);
    IterationBreakdown b = cost.Cost(batch, 0);
    EXPECT_DOUBLE_EQ(b.total, 0.0);
}

}  // namespace
}  // namespace pod::model
