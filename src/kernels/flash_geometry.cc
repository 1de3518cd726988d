/**
 * @file
 * Implementation of the FlashAttention-style geometry builders.
 */
#include "kernels/flash_geometry.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace pod::kernels {

namespace {

/** Max barrier-delimited phases per work unit. */
constexpr int kMaxPhasesPerUnit = 4;

/**
 * Fraction of *repeated* KV-cache reads that miss L2 and reach DRAM.
 * KV tiles are re-read once per query tile and per GQA group member;
 * the 40 MB A100 L2 absorbs most repeats. The first read always pays
 * DRAM. Calibration constant (docs/DESIGN.md S5.5).
 */
constexpr double kL2MissFraction = 0.12;

/** Fewest KV tokens one decode split covers. */
constexpr int kMinKvPerSplit = 256;

/** Most KV splits of one decode. */
constexpr int kMaxDecodeSplits = 16;

/**
 * Distribute a unit's total demands over its barrier-delimited
 * phases. Flash kernels iterate KV tiles with a barrier per tile; we
 * coalesce those iterations into at most kMaxPhasesPerUnit phases
 * with uniform rates, which preserves timing under piecewise-constant
 * contention while keeping simulation cost low.
 */
void
FillPhases(gpusim::WorkUnit& unit, double tensor, double cuda, double mem,
           int kv_tiles)
{
    int n = std::max(1, std::min(kMaxPhasesPerUnit, kv_tiles));
    unit.phases.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        gpusim::Phase phase;
        phase.tensor_flops = tensor / n;
        phase.cuda_flops = cuda / n;
        phase.mem_bytes = mem / n;
        unit.phases.push_back(phase);
    }
}

/**
 * Output-related DRAM traffic per unit: direct FP16 writes without
 * splits; FP32 partial accumulators plus the merge kernel's reads and
 * final write, amortized per split, otherwise. The split-KV merge
 * traffic is the bandwidth cost behind POD's limited-split policy
 * (paper S4.2.4, Table 8).
 */
double
OutputBytes(int rows, int head_dim, int splits)
{
    double direct = rows * head_dim * kElemBytes;
    if (splits <= 1) {
        return direct;
    }
    double partial_write = rows * (head_dim + 1) * kAccumBytes;
    double merge_read = partial_write;  // each partial is read back once
    double merge_write_share = direct / splits;
    return partial_write + merge_read + merge_write_share;
}

}  // namespace

double
KvDramFactor(int total_reads, double l2_miss_fraction)
{
    if (total_reads <= 1) return 1.0;
    double reads = static_cast<double>(total_reads);
    return (1.0 + (reads - 1.0) * l2_miss_fraction) / reads;
}

UnitGeometry
BuildPrefillUnits(const AttnShape& shape, const PrefillItem& prefill,
                  const GeomOptions& options)
{
    shape.Validate();
    prefill.Validate();
    POD_CHECK_ARG(options.num_splits >= 1, "splits must be >= 1");

    const TileConfig& tile = options.tile;
    const int d = shape.head_dim;
    const int splits = options.num_splits;
    const int q_tiles = CeilDiv(prefill.chunk_len, tile.tile_q);
    const int offset = prefill.QueryOffset();

    UnitGeometry geom;
    geom.resources.threads = tile.Threads();
    geom.resources.shared_mem_bytes = tile.SmemBytes(d);
    geom.units.reserve(static_cast<size_t>(shape.num_q_heads) * q_tiles *
                       splits);

    // Each KV-head's cache is read once per query tile and per GQA
    // group member; later reads mostly hit L2.
    double kv_dram =
        KvDramFactor(q_tiles * shape.GroupSize(), kL2MissFraction);

    for (int head = 0; head < shape.num_q_heads; ++head) {
        for (int qt = 0; qt < q_tiles; ++qt) {
            int q_start = qt * tile.tile_q;
            int q_rows = std::min(tile.tile_q, prefill.chunk_len - q_start);
            // Keys visible to the tile's last row (causal reach).
            int reach = std::min(prefill.kv_len, offset + q_start + q_rows);
            int reach_padded = RoundUp(reach, tile.tile_kv);

            // Causally exact score count for this tile: row r attends
            // offset + q_start + r + 1 keys.
            double useful_scores =
                static_cast<double>(q_rows) * (offset + q_start) +
                0.5 * q_rows * (q_rows + 1.0);

            for (int s = 0; s < splits; ++s) {
                double slice = static_cast<double>(reach_padded) / splits;
                double issued = 4.0 * tile.tile_q * slice * d;
                double useful = 4.0 * useful_scores * d / splits;
                double cuda = kSoftmaxFlopsPerScore * tile.tile_q * slice;
                double mem =
                    slice * d * 2.0 * kElemBytes * kv_dram +  // K+V
                    q_rows * d * kElemBytes +                 // Q
                    OutputBytes(q_rows, d, splits);

                gpusim::WorkUnit unit;
                unit.op = gpusim::OpClass::kPrefill;
                unit.warps = tile.warps;
                unit.mem_bw_cap = options.unit_mem_bw_cap;
                FillPhases(unit, issued, cuda, mem,
                           CeilDiv(reach_padded, tile.tile_kv * splits));
                geom.units.push_back(std::move(unit));

                geom.issued_tensor_flops += issued;
                geom.useful_tensor_flops += useful;
                geom.mem_bytes += mem;
            }
        }
    }
    return geom;
}

UnitGeometry
BuildDecodeUnits(const AttnShape& shape, const DecodeItem& decode,
                 const GeomOptions& options)
{
    shape.Validate();
    decode.Validate();
    POD_CHECK_ARG(options.num_splits >= 1, "splits must be >= 1");

    const TileConfig& tile = options.tile;
    const int d = shape.head_dim;
    const int splits = options.num_splits;
    const int group = shape.GroupSize();

    UnitGeometry geom;
    geom.resources.threads = tile.Threads();
    geom.resources.shared_mem_bytes = tile.SmemBytes(d);
    geom.units.reserve(decode.context_lens.size() *
                       static_cast<size_t>(shape.num_kv_heads) * splits);

    // The GQA group's rows are padded up to the QSL tile: everything
    // beyond `group` rows is redundant compute competing with
    // co-located prefill (paper S4.2.1). Groups larger than the tile
    // span multiple row tiles.
    int padded_rows = RoundUp(group, tile.tile_q);

    for (int ctx : decode.context_lens) {
        int ctx_padded = RoundUp(ctx, tile.tile_kv);
        for (int kv_head = 0; kv_head < shape.num_kv_heads; ++kv_head) {
            for (int s = 0; s < splits; ++s) {
                double slice = static_cast<double>(ctx_padded) / splits;
                double issued = 4.0 * padded_rows * slice * d;
                double useful =
                    4.0 * group * (static_cast<double>(ctx) / splits) * d;
                double cuda = kSoftmaxFlopsPerScore * padded_rows * slice;
                double mem = slice * d * 2.0 * kElemBytes +   // K+V
                             group * d * kElemBytes +         // Q
                             OutputBytes(group, d, splits);

                gpusim::WorkUnit unit;
                unit.op = gpusim::OpClass::kDecode;
                unit.warps = tile.warps;
                unit.mem_bw_cap = options.unit_mem_bw_cap;
                FillPhases(unit, issued, cuda, mem,
                           CeilDiv(ctx_padded, tile.tile_kv * splits));
                geom.units.push_back(std::move(unit));

                geom.issued_tensor_flops += issued;
                geom.useful_tensor_flops += useful;
                geom.mem_bytes += mem;
            }
        }
    }
    return geom;
}

UnitGeometry
BuildDecodeAsPrefillUnits(const AttnShape& shape, const DecodeItem& decode,
                          const GeomOptions& options)
{
    shape.Validate();
    decode.Validate();

    const TileConfig& tile = options.tile;
    const int d = shape.head_dim;

    UnitGeometry geom;
    geom.resources.threads = tile.Threads();
    geom.resources.shared_mem_bytes = tile.SmemBytes(d);
    geom.units.reserve(decode.context_lens.size() *
                       static_cast<size_t>(shape.num_q_heads));

    // The prefill kernel parallelizes over *query* heads, so each of
    // the GQA group's q heads re-reads its KV head's cache (partly
    // served by L2), on top of tile_q x padded compute. Both
    // interfere with the co-running prefill -- the FI_Batched
    // pathology (paper S5.1, Fig. 11).
    double kv_dram =
        KvDramFactor(shape.GroupSize(), kL2MissFraction);
    for (int ctx : decode.context_lens) {
        int ctx_padded = RoundUp(ctx, tile.tile_kv);
        for (int head = 0; head < shape.num_q_heads; ++head) {
            double issued = 4.0 * tile.tile_q * ctx_padded * d;
            double useful = 4.0 * 1.0 * ctx * d;
            double cuda = kSoftmaxFlopsPerScore * tile.tile_q * ctx_padded;
            double mem = static_cast<double>(ctx_padded) * d * 2.0 *
                             kElemBytes * kv_dram +
                         d * kElemBytes +  // one query row
                         OutputBytes(1, d, 1);

            gpusim::WorkUnit unit;
            unit.op = gpusim::OpClass::kDecode;
            unit.warps = tile.warps;
            unit.mem_bw_cap = options.unit_mem_bw_cap;
            FillPhases(unit, issued, cuda, mem,
                       CeilDiv(ctx_padded, tile.tile_kv));
            geom.units.push_back(std::move(unit));

            geom.issued_tensor_flops += issued;
            geom.useful_tensor_flops += useful;
            geom.mem_bytes += mem;
        }
    }
    return geom;
}

int
FlashDecodingSplits(int base_ctas, int min_context, int target_ctas)
{
    if (base_ctas <= 0) return 1;
    int splits = CeilDiv(std::max(1, target_ctas), base_ctas);
    splits = Clamp(splits, 1, kMaxDecodeSplits);
    return Clamp(splits, 1, std::max(1, min_context / kMinKvPerSplit));
}

int
PodDecodeSplits(int base_units, int min_context, int slot_budget)
{
    if (base_units <= 0) return 1;
    int splits = std::max(1, slot_budget / base_units);
    splits = Clamp(splits, 1, kMaxDecodeSplits);
    return Clamp(splits, 1, std::max(1, min_context / kMinKvPerSplit));
}

int
VanillaPrefillSplits(int base_ctas, int kv_len, int num_sms)
{
    if (base_ctas <= 0) return 1;
    // FA splits chunked prefills until each CTA covers ~1K KV tokens,
    // bounded by eight waves of SMs.
    int splits = CeilDiv(kv_len, 1024);
    int wave_cap = std::max(1, (8 * num_sms) / base_ctas);
    return Clamp(splits, 1, std::min(wave_cap, 32));
}

int
LimitedPrefillSplits(int base_ctas, int kv_len, int num_sms)
{
    if (base_ctas <= 0) return 1;
    // At most two full waves of prefill CTAs (paper S4.2.4).
    int splits = std::max(1, (2 * num_sms) / base_ctas);
    int ctx_bound = std::max(1, kv_len / 256);
    return std::min(splits, ctx_bound);
}

}  // namespace pod::kernels
