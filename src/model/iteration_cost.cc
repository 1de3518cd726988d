/**
 * @file
 * Implementation of the iteration cost model.
 */
#include "model/iteration_cost.h"

#include <algorithm>

#include "common/logging.h"

namespace pod::model {

namespace {

/**
 * Large dense GEMMs reach a higher fraction of tensor-core peak than
 * attention-shaped tiles; the GpuSpec's effective throughput is
 * calibrated for attention, so linear ops get this boost
 * (calibration constant, docs/DESIGN.md S5.5).
 */
constexpr double kGemmEfficiencyBoost = 1.2;

/** Fixed per-layer latency for rope/norm kernel launches etc. */
constexpr double kPerLayerOverhead = 4e-6;

/** All-reduce base latency per invocation. */
constexpr double kAllReduceLatency = 8e-6;

/** Fixed non-GPU time per iteration: scheduler, runtime, sampling
 * (calibration constant, docs/DESIGN.md S5.5). */
constexpr double kIterationOverhead = 300e-6;

/** Roofline time of one GEMM on one GPU. */
double
GemmTime(const gpusim::GpuSpec& spec, double flops, double weight_bytes,
         double activation_bytes, double boost = kGemmEfficiencyBoost)
{
    double compute = flops / (spec.TotalTensorFlops() * boost);
    double memory = (weight_bytes + activation_bytes) / spec.hbm_bandwidth;
    return std::max(compute, memory);
}

}  // namespace

LinearCosts
ComputeLinearCosts(const ModelConfig& model, const gpusim::GpuSpec& spec,
                   int tensor_parallel, int tokens)
{
    model.Validate(tensor_parallel);
    POD_CHECK_ARG(tokens >= 0, "token count must be >= 0");
    LinearCosts costs;
    if (tokens == 0) return costs;

    const double tp = tensor_parallel;
    const double t = tokens;
    const double h = model.hidden_dim;
    const double qkv_out =
        (model.num_q_heads + 2.0 * model.num_kv_heads) * model.head_dim;
    const double o_in =
        static_cast<double>(model.num_q_heads) * model.head_dim;
    const double act = t * h * 2.0;  // FP16 activations in/out

    costs.qkv_proj = GemmTime(spec, 2.0 * t * h * qkv_out / tp,
                              h * qkv_out * 2.0 / tp, act);
    costs.out_proj = GemmTime(spec, 2.0 * t * o_in * h / tp,
                              o_in * h * 2.0 / tp, act);
    // Gated FFN: gate + up + down projections.
    costs.ffn = GemmTime(spec, 3.0 * 2.0 * t * h * model.ffn_dim / tp,
                         3.0 * h * model.ffn_dim * 2.0 / tp, 2.0 * act);

    if (tensor_parallel > 1) {
        // Two ring all-reduces per layer (after attention output and
        // after the FFN): each moves 2(tp-1)/tp of the activations.
        double bytes = 2.0 * (tp - 1.0) / tp * act;
        costs.allreduce =
            2.0 * (bytes / spec.nvlink_bandwidth + kAllReduceLatency);
    }

    // Elementwise work (two norms, rope, residuals): a handful of
    // activation-sized memory passes.
    costs.elementwise = 6.0 * act / spec.hbm_bandwidth + kPerLayerOverhead;
    return costs;
}

IterationBreakdown
ComposeIteration(const ModelConfig& model, const gpusim::GpuSpec& spec,
                 int tensor_parallel, int tokens, int logit_tokens,
                 double attn_layer_seconds)
{
    IterationBreakdown breakdown;
    if (tokens == 0) return breakdown;

    LinearCosts linear =
        ComputeLinearCosts(model, spec, tensor_parallel, tokens);
    const int layers = model.num_layers;
    breakdown.pre_proj = linear.qkv_proj * layers;
    breakdown.post_proj = linear.out_proj * layers;
    breakdown.ffn = linear.ffn * layers;
    breakdown.comm = linear.allreduce * layers;
    breakdown.others = linear.elementwise * layers;
    breakdown.linear = (linear.qkv_proj + linear.out_proj + linear.ffn +
                        linear.allreduce + linear.elementwise) *
                       layers;
    breakdown.attn_total = attn_layer_seconds * layers;

    // LM head for sampled rows (decodes + finishing prefills). It
    // stays unboosted, the formula every serving result was pinned
    // under (docs/DESIGN.md S5.1).
    if (logit_tokens > 0) {
        const double tp = tensor_parallel;
        breakdown.logits = GemmTime(
            spec,
            2.0 * logit_tokens * static_cast<double>(model.hidden_dim) *
                model.vocab_size / tp,
            static_cast<double>(model.hidden_dim) * model.vocab_size *
                2.0 / tp,
            static_cast<double>(logit_tokens) * model.vocab_size * 2.0,
            /*boost=*/1.0);
    }
    breakdown.overhead = kIterationOverhead;

    // Summed in the order every serving result was pinned under.
    breakdown.total = breakdown.overhead + breakdown.linear +
                      breakdown.attn_total + breakdown.logits;
    return breakdown;
}

IterationCostModel::IterationCostModel(ModelConfig model,
                                       gpusim::GpuSpec spec,
                                       int tensor_parallel,
                                       core::Backend backend,
                                       core::AttnRunOptions attn_options)
    : model_(std::move(model)),
      spec_(std::move(spec)),
      tensor_parallel_(tensor_parallel),
      backend_(backend),
      attn_options_(attn_options)
{
    model_.Validate(tensor_parallel_);
    spec_.Validate();
}

IterationBreakdown
IterationCostModel::Cost(const kernels::HybridBatch& batch,
                         int logit_tokens) const
{
    int tokens = batch.decode.BatchSize();
    for (const auto& p : batch.prefills) tokens += p.chunk_len;
    if (tokens == 0) return IterationBreakdown{};

    // Attention: all layers share the batch geometry, so one kernel
    // simulation covers each layer.
    core::AttnRunResult attn =
        core::RunAttention(backend_, batch, spec_, attn_options_);
    IterationBreakdown breakdown =
        ComposeIteration(model_, spec_, tensor_parallel_, tokens,
                         logit_tokens, attn.total_time);
    // Serial backends expose per-op completion; fused backends
    // attribute everything to the overlap window.
    if (backend_ == core::Backend::kFaSerial ||
        backend_ == core::Backend::kFiSerial) {
        const int layers = model_.num_layers;
        breakdown.prefill_attn = attn.prefill_time * layers;
        breakdown.decode_attn =
            (attn.total_time - attn.prefill_time) * layers;
    }
    return breakdown;
}

}  // namespace pod::model
