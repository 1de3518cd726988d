/**
 * @file
 * Implementation of POD-Attention kernel assembly.
 */
#include "core/pod_kernel.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/math_util.h"

namespace pod::core {

namespace {

using kernels::GeomOptions;
using kernels::TileConfig;
using kernels::UnitGeometry;

/** Prefill base CTA count (before splits) for a tile choice. */
int
PrefillBaseCtas(const kernels::HybridBatch& batch, const TileConfig& tile)
{
    if (!batch.HasPrefill()) return 0;
    int ctas = 0;
    for (const auto& p : batch.prefills) {
        ctas += batch.shape.num_q_heads * CeilDiv(p.chunk_len, tile.tile_q);
    }
    return ctas;
}

/** Prefill KV splits under the split policy (S4.2.4). */
int
PrefillSplits(const kernels::HybridBatch& batch, const TileConfig& tile,
              const gpusim::GpuSpec& spec, const PodOptions& options)
{
    int base = PrefillBaseCtas(batch, tile);
    int max_kv = 0;
    for (const auto& p : batch.prefills) max_kv = std::max(max_kv, p.kv_len);
    return options.split_policy == SplitPolicy::kLimited
               ? kernels::LimitedPrefillSplits(base, max_kv, spec.num_sms)
               : kernels::VanillaPrefillSplits(base, max_kv, spec.num_sms);
}

/**
 * Build the persistent-threads variant of the fused kernel (paper
 * S4.4): only enough CTAs to fill the device once; SM-aware tickets
 * decide each CTA's initial op; as a lane's work item completes it
 * pulls the next queued item of the same op. The paper reports this
 * performs on par with CTA-parallel fusion once combined with
 * SM-aware scheduling.
 */
gpusim::KernelDesc
MakePersistentPodKernel(const PodPlan& plan, const gpusim::GpuSpec& spec,
                        std::vector<gpusim::CtaWork> prefill_works,
                        std::vector<gpusim::CtaWork> decode_works)
{
    struct State
    {
        /** Flat per-op unit queues: [0] prefill, [1] decode. */
        std::vector<gpusim::WorkUnit> units[2];
        size_t next[2] = {0, 0};
        /** Units a CTA of each op hosts (prefill 1, decode lanes). */
        size_t lanes[2] = {1, 1};
        std::vector<int> sm_counter;
        kernels::SmAwarePolicy policy;

        /** Pop one unit of `op`, or of the other op if drained. */
        bool
        Pop(int op, gpusim::WorkUnit* out)
        {
            if (next[op] >= units[op].size()) return false;
            *out = std::move(units[op][next[op]++]);
            return true;
        }
    };
    auto state = std::make_shared<State>();
    for (auto& work : prefill_works) {
        for (auto& unit : work.units) {
            state->units[0].push_back(std::move(unit));
        }
    }
    size_t decode_lanes = 1;
    for (auto& work : decode_works) {
        decode_lanes = std::max(decode_lanes, work.units.size());
        for (auto& unit : work.units) {
            state->units[1].push_back(std::move(unit));
        }
    }
    state->lanes[1] = decode_lanes;
    state->sm_counter.assign(static_cast<size_t>(spec.num_sms), 0);
    // The ticket cycle must fit within one SM's slot count, or the
    // minority op would never receive an initial CTA.
    state->policy = kernels::SmAwarePolicy::Proportional(
        plan.policy.ratio_a, plan.policy.ratio_b,
        std::max(2, plan.ctas_per_sm));

    int total_work_ctas =
        static_cast<int>(prefill_works.size() + decode_works.size());
    int slots = spec.num_sms * plan.ctas_per_sm;

    gpusim::KernelDesc kernel;
    kernel.name = "pod_attention_persistent";
    kernel.resources = plan.resources;
    kernel.cta_count = std::min(slots, total_work_ctas);
    kernel.max_ctas_per_sm = plan.ctas_per_sm;
    kernel.assign = [state](int /*idx*/, int sm_id) -> gpusim::CtaWork {
        State& s = *state;
        int op = s.policy.TakeTicket(
            s.sm_counter[static_cast<size_t>(sm_id)]);
        if (s.next[op] >= s.units[op].size()) op = 1 - op;
        gpusim::CtaWork work;
        for (size_t lane = 0; lane < s.lanes[op]; ++lane) {
            gpusim::WorkUnit unit;
            if (!s.Pop(op, &unit)) break;
            work.units.push_back(std::move(unit));
        }
        return work;  // may be empty if queues drained (retires at once)
    };
    kernel.refill = [state](int /*sm_id*/, gpusim::OpClass lane_op,
                            gpusim::WorkUnit* next) -> bool {
        State& s = *state;
        int op = lane_op == gpusim::OpClass::kPrefill ? 0 : 1;
        // Pull the lane's own op first; fall through to the other op
        // when drained ("persistent threads pull the right type of
        // work as necessary", paper S4.4) so no work is stranded.
        if (s.Pop(op, next)) return true;
        return s.Pop(1 - op, next);
    };
    return kernel;
}

}  // namespace

const char*
SchedPolicyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::kProportional: return "proportional";
      case SchedPolicy::kFiftyFifty: return "50:50";
    }
    return "unknown";
}

const char*
SplitPolicyName(SplitPolicy policy)
{
    switch (policy) {
      case SplitPolicy::kLimited: return "limited";
      case SplitPolicy::kVanilla: return "vanilla";
    }
    return "unknown";
}

int
ChooseCtasPerSm(const kernels::HybridBatch& batch,
                const gpusim::GpuSpec& spec, const PodOptions& options)
{
    if (options.ctas_per_sm == CtasPerSm::kTwo) return 2;
    if (options.ctas_per_sm == CtasPerSm::kFour) return 4;

    // Batch-feature rule (paper S4.2.2), a depth-3 tree fit to the
    // simulated 2-vs-4 winners (docs/DESIGN.md S4.1). Counts are read
    // per SM, so one set of thresholds serves every device. The prefill
    // CTAs are those the 4-CTA launch would have (small tile).
    const double sms = spec.num_sms;
    const TileConfig small = kernels::PrefillTileSmall();
    const double prefill_ctas =
        static_cast<double>(PrefillBaseCtas(batch, small)) *
        PrefillSplits(batch, small, spec, options);
    const double decode_units =
        static_cast<double>(batch.decode.BatchSize()) *
        batch.shape.num_kv_heads;
    const double all_ctas = prefill_ctas + decode_units;

    if (prefill_ctas <= 1.4 * sms) {
        // Short chunk: the small tile leaves the prefill few KV splits.
        // If the prefill's tensor-bound runtime rivals the decode's
        // bandwidth-bound runtime, keep the large tile and its splits.
        double prefill_flops = 0.0;
        for (const auto& p : batch.prefills) {
            // Causal FLOPs of the chunk against its full context.
            double scores =
                static_cast<double>(p.chunk_len) * p.QueryOffset() +
                0.5 * static_cast<double>(p.chunk_len) * p.chunk_len;
            prefill_flops += 4.0 * scores * batch.shape.head_dim *
                             batch.shape.num_q_heads;
        }
        double decode_bytes =
            static_cast<double>(batch.decode.TotalContext()) *
            batch.shape.head_dim * 2.0 * kernels::kElemBytes *
            batch.shape.num_kv_heads;
        double prefill_time = prefill_flops / spec.TotalTensorFlops();
        double decode_time = decode_bytes / spec.hbm_bandwidth;
        if (prefill_time > 0.73 * decode_time) return 2;
        return prefill_ctas <= 0.19 * all_ctas ? 2 : 4;
    }
    // Decode units that dominate the grid keep the device busy at 2
    // CTAs/SM, where the large prefill tile halves the KV re-reads; a
    // prefill-heavy grid co-locates better at 4. More decode units per
    // SM tolerate a larger prefill share.
    const double max_prefill_share = decode_units <= 6.3 * sms ? 0.29 : 0.41;
    return prefill_ctas <= max_prefill_share * all_ctas ? 2 : 4;
}

gpusim::KernelDesc
BuildPodKernel(const kernels::HybridBatch& batch,
               const gpusim::GpuSpec& spec, const PodOptions& options,
               PodPlan* plan_out)
{
    batch.Validate();
    POD_CHECK_ARG(batch.HasPrefill() && batch.HasDecode(),
                  "POD fused kernel needs both prefill and decode work; "
                  "use the backend dispatcher for degenerate batches");
    POD_CHECK_ARG(options.virtual_ctas_per_physical >= 1,
                  "need at least one virtual CTA per physical CTA");

    PodPlan plan;
    plan.ctas_per_sm = ChooseCtasPerSm(batch, spec, options);
    plan.prefill_tile = plan.ctas_per_sm == 2 ? kernels::PrefillTileLarge()
                                              : kernels::PrefillTileSmall();

    // ---- prefill side: limited KV splits (S4.2.4) ----
    plan.prefill_splits =
        PrefillSplits(batch, plan.prefill_tile, spec, options);

    GeomOptions prefill_opts;
    prefill_opts.tile = plan.prefill_tile;
    prefill_opts.num_splits = plan.prefill_splits;

    std::vector<gpusim::CtaWork> prefill_works;
    for (const auto& p : batch.prefills) {
        UnitGeometry geom =
            kernels::BuildPrefillUnits(batch.shape, p, prefill_opts);
        plan.useful_tensor_flops += geom.useful_tensor_flops;
        plan.issued_tensor_flops += geom.issued_tensor_flops;
        plan.mem_bytes += geom.mem_bytes;
        for (auto& unit : geom.units) {
            gpusim::CtaWork work;
            work.units.push_back(std::move(unit));
            prefill_works.push_back(std::move(work));
        }
    }
    plan.prefill_ctas = static_cast<int>(prefill_works.size());

    // ---- decode side: shrunken tile, virtual CTAs (S4.2.1/S4.2.3) ----
    int decode_base = batch.decode.BatchSize() * batch.shape.num_kv_heads;
    int min_ctx = *std::min_element(batch.decode.context_lens.begin(),
                                    batch.decode.context_lens.end());
    // Fill the slots prefill leaves free, counting virtual units.
    int slots = spec.num_sms * plan.ctas_per_sm;
    int free_slots = std::max(slots - plan.prefill_ctas, spec.num_sms);
    plan.decode_splits = kernels::PodDecodeSplits(
        decode_base, min_ctx,
        free_slots * options.virtual_ctas_per_physical);

    GeomOptions decode_opts;
    decode_opts.tile = kernels::DecodeTileVirtual();
    decode_opts.num_splits = plan.decode_splits;

    UnitGeometry decode_geom =
        kernels::BuildDecodeUnits(batch.shape, batch.decode, decode_opts);
    plan.useful_tensor_flops += decode_geom.useful_tensor_flops;
    plan.issued_tensor_flops += decode_geom.issued_tensor_flops;
    plan.mem_bytes += decode_geom.mem_bytes;
    plan.decode_virtual_units = static_cast<int>(decode_geom.units.size());

    std::vector<gpusim::CtaWork> decode_works;
    int per_cta = options.virtual_ctas_per_physical;
    for (size_t i = 0; i < decode_geom.units.size();
         i += static_cast<size_t>(per_cta)) {
        gpusim::CtaWork work;
        size_t end = std::min(i + static_cast<size_t>(per_cta),
                              decode_geom.units.size());
        for (size_t j = i; j < end; ++j) {
            work.units.push_back(std::move(decode_geom.units[j]));
        }
        decode_works.push_back(std::move(work));
    }
    plan.decode_physical_ctas = static_cast<int>(decode_works.size());

    // ---- uniform footprint: decode's virtual CTAs are sized so the
    // physical CTA matches the prefill footprint (S4.2.3/S4.3) ----
    plan.resources.threads =
        std::max(plan.prefill_tile.Threads(), per_cta * 32);
    plan.resources.shared_mem_bytes =
        plan.prefill_tile.SmemBytes(batch.shape.head_dim);

    plan.policy = options.policy == SchedPolicy::kFiftyFifty
                      ? kernels::SmAwarePolicy::FiftyFifty()
                      : kernels::SmAwarePolicy::Proportional(
                            plan.prefill_ctas, plan.decode_physical_ctas,
                            std::max(4, plan.ctas_per_sm));

    gpusim::KernelDesc kernel;
    if (options.persistent) {
        kernel = MakePersistentPodKernel(plan, spec,
                                         std::move(prefill_works),
                                         std::move(decode_works));
    } else {
        kernel = kernels::MakeSmAwareKernel(
            "pod_attention", plan.resources, std::move(prefill_works),
            std::move(decode_works), plan.policy, spec.num_sms,
            plan.ctas_per_sm);
    }

    if (plan_out != nullptr) {
        *plan_out = plan;
    }
    return kernel;
}

}  // namespace pod::core
