/**
 * @file
 * Work-unit geometry of FlashAttention-style kernels.
 *
 * These builders translate attention problems into the CTA grids,
 * FLOP counts and DRAM traffic the real kernels produce:
 *
 *  - prefill: FA-2 grid = q_heads x ceil(chunk/tile_q) x splits, with
 *    causal masking against the full prior context of the chunk and
 *    optional FlashDecoding-style KV splits (used by FA for chunked
 *    prefills, paper S4.2.4);
 *  - decode: FlashDecoding grid = batch x kv_heads x splits, the GQA
 *    group padded to the QSL tile (redundant tensor work, S4.2.1);
 *  - decode-as-prefill: decode tokens fed through the prefill kernel,
 *    the FI_Batched strategy the paper shows collapsing at long
 *    context (S5.1).
 *
 * Issued vs. useful FLOPs are tracked separately: issued includes
 * tile padding (what the tensor pipes execute and profilers report);
 * useful is the causally-exact minimum (what Fig. 1 utilization
 * reflects).
 */
#ifndef POD_KERNELS_FLASH_GEOMETRY_H
#define POD_KERNELS_FLASH_GEOMETRY_H

#include <vector>

#include "gpusim/work.h"
#include "kernels/attn_types.h"
#include "kernels/tile.h"

namespace pod::kernels {

/** Options shared by the geometry builders. */
struct GeomOptions
{
    /** Tile configuration. */
    TileConfig tile;

    /** KV-dimension splits (FlashDecoding; 1 = no split). */
    int num_splits = 1;

    /**
     * Per-unit achievable memory bandwidth (bytes/s). Flash kernels
     * keep many async copies in flight; 16 GB/s per CTA reproduces
     * the batch-size-dependent HBM saturation of Fig. 10b on A100.
     */
    double unit_mem_bw_cap = 16e9;
};

/**
 * Effective DRAM fraction of KV traffic when the same KV range is
 * read `total_reads` times: the first read misses, later reads miss
 * with probability l2_miss_fraction.
 */
double KvDramFactor(int total_reads, double l2_miss_fraction);

/** Geometry of one kernel side (prefill or decode). */
struct UnitGeometry
{
    /** One work unit per CTA (or per virtual CTA for POD decode). */
    std::vector<gpusim::WorkUnit> units;

    /** Per-CTA resource footprint when launched stand-alone. */
    gpusim::CtaResources resources;

    /** Tensor FLOPs actually needed (causally exact, no padding). */
    double useful_tensor_flops = 0.0;

    /** Tensor FLOPs issued including tile padding. */
    double issued_tensor_flops = 0.0;

    /** Total DRAM traffic in bytes. */
    double mem_bytes = 0.0;
};

/**
 * Build prefill work units: one per (q head, query tile, split).
 */
UnitGeometry BuildPrefillUnits(const AttnShape& shape,
                               const PrefillItem& prefill,
                               const GeomOptions& options);

/**
 * Build decode work units: one per (request, kv head, split).
 */
UnitGeometry BuildDecodeUnits(const AttnShape& shape,
                              const DecodeItem& decode,
                              const GeomOptions& options);

/**
 * Build decode work processed by a *prefill* kernel (FI_Batched):
 * each request's single-token query is padded to the prefill QSL
 * tile, issuing tile_q/group times more tensor work than needed.
 */
UnitGeometry BuildDecodeAsPrefillUnits(const AttnShape& shape,
                                       const DecodeItem& decode,
                                       const GeomOptions& options);

/**
 * FlashDecoding split heuristic: smallest split count that fills the
 * device with at least `target_ctas` CTAs, bounded so each split
 * still covers 256 KV tokens, and capped at 16 splits.
 *
 * @param base_ctas CTA count at one split.
 * @param min_context smallest KV length being split.
 */
int FlashDecodingSplits(int base_ctas, int min_context, int target_ctas);

/**
 * POD's decode split choice: the largest split count that does NOT
 * overflow `slot_budget` work units (floor semantics), under the same
 * 256-token and 16-split bounds as FlashDecodingSplits. Overshooting
 * the budget would leave a straggler wave of decode CTAs running
 * nearly alone after the bulk finishes, wiping out the fusion gain on
 * decode-dominated batches.
 */
int PodDecodeSplits(int base_units, int min_context, int slot_budget);

/**
 * Vanilla (un-limited) prefill split count used by FlashAttention for
 * chunked prefills: splits until each CTA covers roughly 1K KV
 * tokens. POD's limited policy (paper S4.2.4) instead caps prefill
 * CTAs at two full waves; see LimitedPrefillSplits.
 */
int VanillaPrefillSplits(int base_ctas, int kv_len, int num_sms);

/** POD's limited prefill splits: at most two waves of SMs (S4.2.4). */
int LimitedPrefillSplits(int base_ctas, int kv_len, int num_sms);

}  // namespace pod::kernels

#endif  // POD_KERNELS_FLASH_GEOMETRY_H
