/**
 * @file
 * Implementation of the attention backend dispatcher.
 */
#include "core/attention.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"
#include "kernels/attn_kernels.h"
#include "kernels/flash_geometry.h"
#include "kernels/tile.h"

namespace pod::core {

namespace {

using kernels::GeomOptions;
using kernels::HybridBatch;
using kernels::UnitGeometry;

/** Aggregate geometry for (possibly several) prefill items. */
UnitGeometry
BuildPrefillGeom(const HybridBatch& batch, const gpusim::GpuSpec& spec,
                 bool vanilla_splits)
{
    UnitGeometry all;
    kernels::TileConfig tile = kernels::PrefillTileLarge();
    for (const auto& p : batch.prefills) {
        int base =
            batch.shape.num_q_heads * CeilDiv(p.chunk_len, tile.tile_q);
        GeomOptions opts;
        opts.tile = tile;
        opts.num_splits =
            vanilla_splits
                ? kernels::VanillaPrefillSplits(base, p.kv_len, spec.num_sms)
                : kernels::LimitedPrefillSplits(base, p.kv_len,
                                                spec.num_sms);
        UnitGeometry geom =
            kernels::BuildPrefillUnits(batch.shape, p, opts);
        all.resources = geom.resources;
        all.useful_tensor_flops += geom.useful_tensor_flops;
        all.issued_tensor_flops += geom.issued_tensor_flops;
        all.mem_bytes += geom.mem_bytes;
        for (auto& unit : geom.units) {
            all.units.push_back(std::move(unit));
        }
    }
    return all;
}

/** FlashAttention (FlashDecoding) decode geometry. */
UnitGeometry
BuildFaDecodeGeom(const HybridBatch& batch, const gpusim::GpuSpec& spec)
{
    GeomOptions opts;
    opts.tile = kernels::DecodeTileFa();
    int base = batch.decode.BatchSize() * batch.shape.num_kv_heads;
    int min_ctx = *std::min_element(batch.decode.context_lens.begin(),
                                    batch.decode.context_lens.end());
    opts.num_splits =
        kernels::FlashDecodingSplits(base, min_ctx, spec.num_sms);
    return kernels::BuildDecodeUnits(batch.shape, batch.decode, opts);
}

/**
 * FlashInfer decode geometry: tighter GQA packing (QSL tile 16, so
 * almost no padded compute) and slightly better memory pipelining --
 * the paper's "FI_Serial has better optimized decode kernels".
 */
UnitGeometry
BuildFiDecodeGeom(const HybridBatch& batch, const gpusim::GpuSpec& spec)
{
    GeomOptions opts;
    opts.tile = kernels::DecodeTilePod();
    opts.unit_mem_bw_cap = 17e9;
    int base = batch.decode.BatchSize() * batch.shape.num_kv_heads;
    int min_ctx = *std::min_element(batch.decode.context_lens.begin(),
                                    batch.decode.context_lens.end());
    opts.num_splits =
        kernels::FlashDecodingSplits(base, min_ctx, 2 * spec.num_sms);
    return kernels::BuildDecodeUnits(batch.shape, batch.decode, opts);
}

/** Convert a SimResult into an AttnRunResult. */
AttnRunResult
MakeResult(Backend backend, const gpusim::SimResult& sim,
           const gpusim::GpuSpec& spec, double useful_flops)
{
    AttnRunResult result;
    result.backend = backend;
    result.total_time = sim.total_time;
    result.prefill_time = sim.Op(gpusim::OpClass::kPrefill).finish_time;
    result.decode_time = sim.Op(gpusim::OpClass::kDecode).finish_time;
    result.tensor_util = sim.tensor_util;
    result.mem_util = sim.mem_util;
    result.energy_joules = sim.energy_joules;
    result.total_ctas = sim.total_ctas;
    result.analytic_fastpath_events = sim.analytic_fastpath_events;
    result.oracle_fallback_events = sim.oracle_fallback_events;
    if (sim.total_time > 0.0) {
        result.useful_tensor_util =
            useful_flops / (sim.total_time * spec.TotalTensorFlops());
    }
    return result;
}

/** Run the POD backend (full hybrid batch). */
AttnRunResult
RunPod(const HybridBatch& batch, const gpusim::GpuSpec& spec,
       const AttnRunOptions& options)
{
    PodOptions pod_options = options.pod;
    if (pod_options.ctas_per_sm == CtasPerSm::kAuto) {
        // "POD-Attention automatically picks the most suitable
        // configuration at runtime" (paper S4.2.2). Simulation makes
        // trying both configurations free, which also preserves the
        // never-worse-than-serial property the paper reports; the
        // pure heuristic remains available via ChooseCtasPerSm and
        // the forced kTwo/kFour settings.
        AttnRunOptions two = options;
        two.pod.ctas_per_sm = CtasPerSm::kTwo;
        AttnRunOptions four = options;
        four.pod.ctas_per_sm = CtasPerSm::kFour;
        AttnRunResult r2 = RunPod(batch, spec, two);
        AttnRunResult r4 = RunPod(batch, spec, four);
        return r2.total_time <= r4.total_time ? r2 : r4;
    }

    PodPlan plan;
    gpusim::KernelDesc kernel =
        BuildPodKernel(batch, spec, pod_options, &plan);
    gpusim::FluidEngine engine(spec, options.sim);
    AttnRunResult result =
        MakeResult(Backend::kPod, engine.RunKernel(kernel), spec,
                   plan.useful_tensor_flops);
    result.pod_plan = plan;
    return result;
}

}  // namespace

std::vector<Backend>
AllBackends()
{
    return {Backend::kFaSerial,  Backend::kFaStreams, Backend::kFaHFuse,
            Backend::kFiSerial,  Backend::kFiBatched, Backend::kPod};
}

const char*
BackendName(Backend backend)
{
    switch (backend) {
      case Backend::kFaSerial: return "FA_Serial";
      case Backend::kFaStreams: return "FA_Streams";
      case Backend::kFaHFuse: return "FA_HFuse";
      case Backend::kFiSerial: return "FI_Serial";
      case Backend::kFiBatched: return "FI_Batched";
      case Backend::kPod: return "POD";
    }
    return "unknown";
}

AttnRunResult
RunAttention(Backend backend, const HybridBatch& batch,
             const gpusim::GpuSpec& spec, const AttnRunOptions& options)
{
    batch.Validate();
    gpusim::FluidEngine engine(spec, options.sim);

    // ---- degenerate batches: a single standalone kernel ----
    if (!batch.HasDecode()) {
        UnitGeometry geom = BuildPrefillGeom(batch, spec,
                                             /*vanilla_splits=*/true);
        gpusim::KernelDesc kernel =
            kernels::MakeSimpleKernel("prefill_attention", geom);
        AttnRunResult result =
            MakeResult(backend, engine.RunKernel(kernel), spec,
                       geom.useful_tensor_flops);
        return result;
    }
    if (!batch.HasPrefill()) {
        UnitGeometry geom;
        switch (backend) {
          case Backend::kFiSerial:
          case Backend::kFiBatched:
          case Backend::kPod:
            geom = BuildFiDecodeGeom(batch, spec);
            break;
          default:
            geom = BuildFaDecodeGeom(batch, spec);
            break;
        }
        gpusim::KernelDesc kernel =
            kernels::MakeSimpleKernel("decode_attention", geom);
        return MakeResult(backend, engine.RunKernel(kernel), spec,
                          geom.useful_tensor_flops);
    }

    // ---- full hybrid batches ----
    switch (backend) {
      case Backend::kFaSerial: {
        UnitGeometry prefill = BuildPrefillGeom(batch, spec, true);
        UnitGeometry decode = BuildFaDecodeGeom(batch, spec);
        gpusim::SimResult sim = engine.Run(
            {gpusim::KernelLaunch{
                 kernels::MakeSimpleKernel("fa_prefill", prefill), 0},
             gpusim::KernelLaunch{
                 kernels::MakeSimpleKernel("fa_decode", decode), 0}});
        return MakeResult(backend, sim, spec,
                          prefill.useful_tensor_flops +
                              decode.useful_tensor_flops);
      }
      case Backend::kFaStreams: {
        UnitGeometry prefill = BuildPrefillGeom(batch, spec, true);
        UnitGeometry decode = BuildFaDecodeGeom(batch, spec);
        gpusim::SimResult sim = engine.Run(
            {gpusim::KernelLaunch{
                 kernels::MakeSimpleKernel("fa_prefill", prefill), 0},
             gpusim::KernelLaunch{
                 kernels::MakeSimpleKernel("fa_decode", decode), 1}});
        return MakeResult(backend, sim, spec,
                          prefill.useful_tensor_flops +
                              decode.useful_tensor_flops);
      }
      case Backend::kFaHFuse: {
        UnitGeometry prefill = BuildPrefillGeom(batch, spec, true);
        UnitGeometry decode = BuildFaDecodeGeom(batch, spec);
        gpusim::KernelDesc kernel =
            kernels::MakeHFuseKernel("fa_hfuse", prefill, decode);
        return MakeResult(backend, engine.RunKernel(kernel), spec,
                          prefill.useful_tensor_flops +
                              decode.useful_tensor_flops);
      }
      case Backend::kFiSerial: {
        UnitGeometry prefill = BuildPrefillGeom(batch, spec, true);
        UnitGeometry decode = BuildFiDecodeGeom(batch, spec);
        gpusim::SimResult sim = engine.Run(
            {gpusim::KernelLaunch{
                 kernels::MakeSimpleKernel("fi_prefill", prefill), 0},
             gpusim::KernelLaunch{
                 kernels::MakeSimpleKernel("fi_decode", decode), 0}});
        return MakeResult(backend, sim, spec,
                          prefill.useful_tensor_flops +
                              decode.useful_tensor_flops);
      }
      case Backend::kFiBatched: {
        UnitGeometry prefill = BuildPrefillGeom(batch, spec, true);
        GeomOptions opts;
        // FlashInfer's prefill kernel processes the single-token
        // ragged rows with a 64-row tile: heavily padded compute plus
        // per-q-head KV re-reads (partly L2-absorbed).
        opts.tile = kernels::TileConfig{64, 64, 4};
        UnitGeometry decode = kernels::BuildDecodeAsPrefillUnits(
            batch.shape, batch.decode, opts);
        gpusim::KernelDesc kernel = kernels::MakeBatchedPrefillKernel(
            "fi_batched", prefill, decode);
        return MakeResult(backend, engine.RunKernel(kernel), spec,
                          prefill.useful_tensor_flops +
                              decode.useful_tensor_flops);
      }
      case Backend::kPod:
        return RunPod(batch, spec, options);
    }
    Panic("unknown attention backend");
}

PodAttention::PodAttention(gpusim::GpuSpec spec, AttnRunOptions options)
    : spec_(std::move(spec)), options_(options)
{
    spec_.Validate();
}

AttnRunResult
PodAttention::Run(const HybridBatch& batch, Backend backend) const
{
    return RunAttention(backend, batch, spec_, options_);
}

double
PodAttention::SpeedupOverSerial(const HybridBatch& batch) const
{
    AttnRunResult pod = Run(batch, Backend::kPod);
    AttnRunResult serial = Run(batch, Backend::kFaSerial);
    POD_ASSERT(pod.total_time > 0.0);
    return serial.total_time / pod.total_time;
}

}  // namespace pod::core
