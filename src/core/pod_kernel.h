/**
 * @file
 * POD-Attention fused kernel assembly (paper S4).
 *
 * Combines all of the paper's mechanisms: CTA-parallel fusion of the
 * prefill and decode device functions, SM-aware CTA scheduling,
 * shrunken decode tiles, virtual decode CTAs, limited prefill splits
 * and the 2-vs-4 CTAs/SM configuration.
 */
#ifndef POD_CORE_POD_KERNEL_H
#define POD_CORE_POD_KERNEL_H

#include "core/pod_config.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/work.h"
#include "kernels/attn_types.h"
#include "kernels/flash_geometry.h"
#include "kernels/sm_aware.h"
#include "kernels/tile.h"

namespace pod::core {

/** The resolved launch plan for one hybrid batch. */
struct PodPlan
{
    /** Chosen CTAs/SM configuration (2 or 4). */
    int ctas_per_sm = 2;

    /** Prefill tile for the chosen configuration. */
    kernels::TileConfig prefill_tile;

    /** Prefill KV splits after the split policy. */
    int prefill_splits = 1;

    /** Decode KV splits. */
    int decode_splits = 1;

    /** Prefill CTAs in the fused grid. */
    int prefill_ctas = 0;

    /** Decode work units (virtual CTAs). */
    int decode_virtual_units = 0;

    /** Physical decode CTAs (virtual units packed 4-per-CTA). */
    int decode_physical_ctas = 0;

    /** Ticket policy instantiated from PodOptions. */
    kernels::SmAwarePolicy policy;

    /** Per-CTA footprint of the fused kernel. */
    gpusim::CtaResources resources;

    /** Work totals (for utilization reporting). */
    double useful_tensor_flops = 0.0;
    double issued_tensor_flops = 0.0;
    double mem_bytes = 0.0;

    /** Total CTAs launched. */
    int TotalCtas() const { return prefill_ctas + decode_physical_ctas; }
};

/**
 * Decide the CTAs/SM configuration for a batch (paper S4.2.2) from
 * batch features and the device alone, in closed form: the prefill
 * CTAs a 4-CTA launch would have, the decode units, both per SM, and
 * the prefill-vs-decode runtime estimate. Returns 2 or 4. Honors a
 * forced setting in `options`; BuildPodKernel resolves kAuto here.
 */
int ChooseCtasPerSm(const kernels::HybridBatch& batch,
                    const gpusim::GpuSpec& spec, const PodOptions& options);

/**
 * Build the fused POD-Attention kernel for a hybrid batch.
 *
 * @param batch hybrid batch (must contain both prefill and decode;
 *        degenerate batches are handled by the backend dispatcher).
 * @param spec target device.
 * @param options POD configuration.
 * @param plan_out optional: receives the resolved plan.
 */
gpusim::KernelDesc BuildPodKernel(const kernels::HybridBatch& batch,
                                  const gpusim::GpuSpec& spec,
                                  const PodOptions& options,
                                  PodPlan* plan_out = nullptr);

}  // namespace pod::core

#endif  // POD_CORE_POD_KERNEL_H
