/**
 * @file
 * Reproduces the paper's S5.1 energy result: POD-Attention reduces
 * attention energy by up to 35% (mean 20.5%) over FA_Serial, with
 * savings largely proportional to the runtime reduction. Uses the
 * same filtered hybrid-batch sweep as Figure 11 (single model for
 * brevity).
 */
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/attention.h"

using namespace pod;
using namespace pod::core;
using namespace pod::bench;

int
main()
{
    Header("Energy (S5.1)", "attention energy savings of POD vs FA_Serial");
    gpusim::GpuSpec gpu = bench::A100();
    kernels::AttnShape shape = Llama3Tp2Shape();

    SampleStats energy_savings;
    SampleStats runtime_savings;
    double correlation_num = 0.0;
    double e_sq = 0.0;
    double r_sq = 0.0;

    for (int ctx : {4096, 8192, 12288, 16384, 20480}) {
        for (int chunk : {512, 1024, 2048, 4096, 8192}) {
            if (chunk > ctx) continue;  // chunk cannot exceed its context
            for (int bs : {32, 64, 128, 192, 256}) {
                auto batch =
                    kernels::HybridBatch::Make(shape, chunk, ctx, bs, ctx);
                AttnRunResult serial =
                    RunAttention(Backend::kFaSerial, batch, gpu);
                double prefill_frac =
                    serial.prefill_time / serial.total_time;
                if (prefill_frac < 0.2 || prefill_frac > 0.8) continue;
                AttnRunResult pod =
                    RunAttention(Backend::kPod, batch, gpu);
                double de =
                    1.0 - pod.energy_joules / serial.energy_joules;
                double dr = 1.0 - pod.total_time / serial.total_time;
                energy_savings.Add(de);
                runtime_savings.Add(dr);
                correlation_num += de * dr;
                e_sq += de * de;
                r_sq += dr * dr;
            }
        }
    }

    Table t({"metric", "min", "mean", "median", "max"});
    auto row = [&](const char* name, SampleStats& s) {
        t.AddRow({name, Table::Pct(s.Min()), Table::Pct(s.Mean()),
                  Table::Pct(s.Median()), Table::Pct(s.Max())});
    };
    row("energy saving", energy_savings);
    row("runtime saving", runtime_savings);
    std::printf("%zu filtered hybrid batches (Llama-3-8B/TP-2 shape):\n\n",
                energy_savings.Count());
    t.Print(std::cout);
    double correlation =
        correlation_num / std::sqrt(e_sq * r_sq + 1e-30);
    std::printf("\nEnergy-vs-runtime saving correlation: %.3f "
                "(paper: savings largely proportional to runtime).\n",
                correlation);
    std::printf("Paper reference: up to 35%% savings, mean 20.5%%.\n");
    return 0;
}
