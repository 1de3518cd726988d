/**
 * @file
 * Quickstart: run one hybrid batch through every attention backend
 * and print timing, utilization and energy.
 *
 * This reproduces the paper's headline comparison on a single batch:
 * POD-Attention overlaps the compute-bound prefill with the
 * bandwidth-bound decode on every SM, beating serial execution and
 * all other fusion strategies.
 */
#include <cstdio>
#include <iostream>

#include "core/attention.h"
#include "common/table.h"
#include "common/units.h"
#include "gpusim/gpu_spec.h"

int
main()
{
    using namespace pod;
    using namespace pod::core;

    // Llama-3-8B on 2 A100s (tensor parallel): 16 query heads and
    // 4 KV heads per GPU, head dim 128 (paper Table 4).
    kernels::AttnShape shape;
    shape.num_q_heads = 16;
    shape.num_kv_heads = 4;
    shape.head_dim = 128;

    // Hybrid batch config C1 from paper Table 1: one 12K-token
    // prefill chunk at 12K context plus 220 decodes at 12K context
    // (the "balanced" configuration).
    kernels::HybridBatch batch =
        kernels::HybridBatch::Make(shape, /*chunk_len=*/12288,
                                   /*prefill_kv=*/12288,
                                   /*decode_bs=*/220,
                                   /*decode_ctx=*/12288);

    gpusim::GpuSpec gpu = gpusim::GpuSpec::A100Sxm80GB();

    std::printf("Hybrid batch: %s\nGPU: %s\n\n", batch.Describe().c_str(),
                gpu.name.c_str());

    Table table({"backend", "time (ms)", "speedup", "tensor util",
                 "mem util", "energy (J)", "CTAs"});
    double serial_time = 0.0;
    AttnRunResult podr;
    for (Backend backend : AllBackends()) {
        AttnRunResult r = RunAttention(backend, batch, gpu);
        if (backend == Backend::kFaSerial) serial_time = r.total_time;
        if (backend == Backend::kPod) podr = r;
        table.AddRow({BackendName(backend), Table::Num(ToMs(r.total_time), 3),
                      Table::Num(serial_time / r.total_time, 2) + "x",
                      Table::Pct(r.tensor_util), Table::Pct(r.mem_util),
                      Table::Num(r.energy_joules, 3),
                      Table::Int(r.total_ctas)});
    }
    table.Print(std::cout);

    std::printf("\nPOD plan: %d CTAs/SM, prefill tile %dx%d, "
                "%d prefill CTAs (splits=%d), %d decode virtual units "
                "(splits=%d) in %d physical CTAs, policy %d:%d\n",
                podr.pod_plan.ctas_per_sm, podr.pod_plan.prefill_tile.tile_q,
                podr.pod_plan.prefill_tile.tile_kv,
                podr.pod_plan.prefill_ctas, podr.pod_plan.prefill_splits,
                podr.pod_plan.decode_virtual_units,
                podr.pod_plan.decode_splits,
                podr.pod_plan.decode_physical_ctas,
                podr.pod_plan.policy.ratio_a, podr.pod_plan.policy.ratio_b);
    std::printf("Speedup over FA_Serial: %.2fx\n",
                serial_time / podr.total_time);
    return 0;
}
