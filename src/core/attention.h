/**
 * @file
 * The public attention API: run a hybrid batch with any of the
 * paper's attention execution strategies and report timing,
 * utilization and energy.
 *
 * Backends (paper Table 3 and S5.1):
 *  - FA_Serial: FlashAttention prefill kernel, then FlashDecoding
 *    decode kernel, one stream.
 *  - FA_Streams: the same two kernels on two CUDA streams.
 *  - FA_HFuse: warp-parallel (horizontally) fused kernels.
 *  - FI_Serial: FlashInfer kernels, serial (better decode).
 *  - FI_Batched: prefill and decode both through FlashInfer's
 *    prefill kernel (the "easiest" fusion; degrades at long context).
 *  - POD: this paper's fused kernel with SM-aware CTA scheduling.
 */
#ifndef POD_CORE_ATTENTION_H
#define POD_CORE_ATTENTION_H

#include <string>
#include <vector>

#include "core/pod_config.h"
#include "core/pod_kernel.h"
#include "gpusim/engine.h"
#include "gpusim/gpu_spec.h"
#include "kernels/attn_types.h"

namespace pod::core {

/** Attention execution strategies compared in the paper. */
enum class Backend : int {
    kFaSerial = 0,
    kFaStreams = 1,
    kFaHFuse = 2,
    kFiSerial = 3,
    kFiBatched = 4,
    kPod = 5,
};

/** All backends, in the paper's reporting order. */
std::vector<Backend> AllBackends();

/** Printable backend name (paper notation). */
const char* BackendName(Backend backend);

/** Options for RunAttention. */
struct AttnRunOptions
{
    /** POD-specific configuration. */
    PodOptions pod;

    /** Simulator options (event core, launch overhead). */
    gpusim::SimOptions sim;
};

/** Result of executing one hybrid batch's attention. */
struct AttnRunResult
{
    Backend backend = Backend::kFaSerial;

    /** End-to-end attention time for the batch (seconds). */
    double total_time = 0.0;

    /** Completion time of the prefill portion (0 if none). */
    double prefill_time = 0.0;

    /** Completion time of the decode portion (0 if none). */
    double decode_time = 0.0;

    /** Issued tensor-core utilization (profiler view, padding incl.). */
    double tensor_util = 0.0;

    /** Useful tensor utilization (causally necessary FLOPs only). */
    double useful_tensor_util = 0.0;

    /** HBM bandwidth utilization. */
    double mem_util = 0.0;

    /** Energy in joules (S5.1 power model). */
    double energy_joules = 0.0;

    /** CTAs launched. */
    int total_ctas = 0;

    /** Sim-core telemetry: events handled by the closed-form analytic
     *  core vs stepwise-oracle events (fallbacks or ExactOracle runs).
     *  Mirrors gpusim::SimResult; summed over the kernels this run
     *  simulated. */
    long analytic_fastpath_events = 0;
    long oracle_fallback_events = 0;

    /** Resolved POD plan (valid when backend == kPod). */
    PodPlan pod_plan;
};

/**
 * Execute one hybrid batch's attention with a backend: the library's
 * main entry point.
 * Handles degenerate (prefill-only / decode-only) batches by running
 * the corresponding standalone kernel.
 *
 * Typical use:
 * @code
 *   auto gpu = gpusim::GpuSpec::A100Sxm80GB();
 *   auto batch = kernels::HybridBatch::Make(shape, 1024, 12288, 80,
 *                                           12288);
 *   auto pod = RunAttention(Backend::kPod, batch, gpu);
 *   auto serial = RunAttention(Backend::kFaSerial, batch, gpu);
 * @endcode
 */
AttnRunResult RunAttention(Backend backend,
                           const kernels::HybridBatch& batch,
                           const gpusim::GpuSpec& spec,
                           const AttnRunOptions& options = AttnRunOptions());

}  // namespace pod::core

#endif  // POD_CORE_ATTENTION_H
