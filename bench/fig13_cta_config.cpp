/**
 * @file
 * Reproduces paper Figure 13: which CTAs-per-SM configuration (2 vs
 * 4) wins across decode batch size (horizontal) and context length
 * (vertical), Llama-3-8B. In the simulator, 4 CTAs/SM wins up to 64
 * decodes (up to 128 from 4K context), where the prefill holds most of
 * the grid; 2 CTAs/SM (larger prefill tiles) wins from 192 decodes.
 *
 * Each cell shows the runtime of the slower configuration normalized
 * to the faster one, prefixed by the winner, then the configuration
 * ChooseCtasPerSm's batch-feature rule picks (what kAuto simulates).
 */
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/attention.h"

using namespace pod;
using namespace pod::core;
using namespace pod::bench;

int
main()
{
    Header("Figure 13", "2 vs 4 CTAs/SM configuration map");
    gpusim::GpuSpec gpu = bench::A100();
    kernels::AttnShape shape = Llama3Tp2Shape();

    const int batch_sizes[] = {32, 64, 128, 192, 256};
    const int contexts[] = {2048, 4096, 8192, 16384, 20480};
    const int chunk = 2048;

    std::vector<std::string> headers = {"ctx \\ bs"};
    for (int bs : batch_sizes) headers.push_back(std::to_string(bs));
    Table t(headers);

    int agree_with_rule = 0;
    int four_wins = 0;
    double max_regret = 0.0;
    int cells = 0;
    for (int ctx : contexts) {
        std::vector<std::string> row = {std::to_string(ctx / 1024) + "K"};
        for (int bs : batch_sizes) {
            auto batch =
                kernels::HybridBatch::Make(shape, chunk, ctx, bs, ctx);
            AttnRunOptions two;
            two.pod.ctas_per_sm = CtasPerSm::kTwo;
            AttnRunOptions four;
            four.pod.ctas_per_sm = CtasPerSm::kFour;
            double t2 =
                RunAttention(Backend::kPod, batch, gpu, two).total_time;
            double t4 =
                RunAttention(Backend::kPod, batch, gpu, four).total_time;
            bool two_wins = t2 <= t4;
            double ratio = two_wins ? t4 / t2 : t2 / t4;
            int pick = ChooseCtasPerSm(batch, gpu, PodOptions());
            row.push_back(std::string(two_wins ? "2" : "4") + " (" +
                          Table::Num(ratio, 2) + ") rule " +
                          std::to_string(pick));
            if ((pick == 2) == two_wins) ++agree_with_rule;
            if (!two_wins) ++four_wins;
            max_regret = std::max(
                max_regret, (pick == 2 ? t2 : t4) / std::min(t2, t4) - 1.0);
            ++cells;
        }
        t.AddRow(row);
    }
    t.Print(std::cout);
    std::printf("\nCell = winning config (slower/faster runtime ratio), "
                "then the rule's pick.\n");
    std::printf("Batch-feature rule (kAuto) agrees with the simulated "
                "winner in %d/%d cells (always-4: %d/%d); max regret "
                "%.1f%%.\n",
                agree_with_rule, cells, four_wins, cells,
                100.0 * max_regret);
    return 0;
}
