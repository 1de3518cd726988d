/**
 * @file
 * Per-iteration cost model for hybrid-batch LLM inference.
 *
 * Linear operations (projections, FFN, logits) use a roofline model:
 * time = max(FLOPs / GEMM throughput, bytes / HBM bandwidth), where
 * bytes include the per-iteration weight reads that hybrid batching
 * amortizes across prefill and decode tokens (paper S2.1). Attention
 * uses the kernel simulator through the configured backend. Tensor
 * parallelism divides heads and weights across GPUs and adds ring
 * all-reduce traffic on NVLink. ComposeIteration is the one place
 * these terms are summed into an iteration's latency, for the
 * serving engine and the Fig. 4 breakdown alike (docs/DESIGN.md S5.1).
 */
#ifndef POD_MODEL_ITERATION_COST_H
#define POD_MODEL_ITERATION_COST_H

#include "core/attention.h"
#include "gpusim/gpu_spec.h"
#include "kernels/attn_types.h"
#include "model/model_config.h"

namespace pod::model {

/** Breakdown of one iteration's runtime (Fig. 4 categories). */
struct IterationBreakdown
{
    double pre_proj = 0.0;      ///< QKV projection.
    double prefill_attn = 0.0;  ///< Prefill attention.
    double decode_attn = 0.0;   ///< Decode attention.
    double post_proj = 0.0;     ///< Attention output projection.
    double ffn = 0.0;           ///< Gated FFN.
    double comm = 0.0;          ///< TP all-reduce.
    double others = 0.0;        ///< Norms, rope, residuals.

    /** Combined attention time (fused backends report only this). */
    double attn_total = 0.0;

    double linear = 0.0;    ///< pre_proj + post_proj + ffn + comm + others.
    double logits = 0.0;    ///< LM-head GEMM for sampled rows.
    double overhead = 0.0;  ///< Fixed non-GPU time per iteration.

    /** Total iteration latency. */
    double total = 0.0;
};

/** Linear-op roofline costs for one layer at a given token count. */
struct LinearCosts
{
    double qkv_proj = 0.0;
    double out_proj = 0.0;
    double ffn = 0.0;
    double allreduce = 0.0;  ///< both per-layer all-reduces
    double elementwise = 0.0;
};

/**
 * Compute one layer's linear-op costs for `tokens` batch tokens.
 */
LinearCosts ComputeLinearCosts(const ModelConfig& model,
                               const gpusim::GpuSpec& spec,
                               int tensor_parallel, int tokens);

/**
 * Compose one iteration's latency: linear ops at `tokens` batch
 * tokens, `attn_layer_seconds` of attention per layer, the LM head
 * for `logit_tokens` sampled rows and the fixed per-iteration
 * overhead. The prefill/decode attention split is left at zero (only
 * the caller knows it). An empty batch (`tokens == 0`) is free.
 */
IterationBreakdown ComposeIteration(const ModelConfig& model,
                                    const gpusim::GpuSpec& spec,
                                    int tensor_parallel, int tokens,
                                    int logit_tokens,
                                    double attn_layer_seconds);

/**
 * Iteration-level cost model bound to a model, device, parallelism
 * degree and attention backend.
 */
class IterationCostModel
{
  public:
    IterationCostModel(ModelConfig model, gpusim::GpuSpec spec,
                       int tensor_parallel, core::Backend backend,
                       core::AttnRunOptions attn_options =
                           core::AttnRunOptions());

    /**
     * Cost of one iteration executing a hybrid batch.
     * @param batch per-GPU attention problem (heads already divided
     *        by tensor parallelism; use Model().ShapePerGpu()).
     * @param logit_tokens rows needing logits (sampled tokens).
     */
    IterationBreakdown Cost(const kernels::HybridBatch& batch,
                            int logit_tokens) const;

  private:
    ModelConfig model_;
    gpusim::GpuSpec spec_;
    int tensor_parallel_;
    core::Backend backend_;
    core::AttnRunOptions attn_options_;
};

}  // namespace pod::model

#endif  // POD_MODEL_ITERATION_COST_H
