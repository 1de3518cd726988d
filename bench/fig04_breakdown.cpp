/**
 * @file
 * Reproduces paper Figure 4: contribution of each operation to
 * iteration runtime with hybrid batching (Llama-3-8B, batch size 60,
 * chunk 1K), for the iteration processing the last chunk of a prompt
 * at context lengths 1K / 8K / 16K.
 */
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "model/iteration_cost.h"

using namespace pod;
using namespace pod::bench;

int
main()
{
    Header("Figure 4", "iteration runtime breakdown with hybrid batching");
    model::IterationCostModel cost(model::ModelConfig::Llama3_8B(), A100(),
                                   /*tensor_parallel=*/2,
                                   core::Backend::kFaSerial);
    kernels::AttnShape shape = Llama3Tp2Shape();

    Table t({"context", "PreProj", "PrefillAttn", "DecodeAttn", "PostProj",
             "FFN", "Others", "total (ms)"});
    for (int ctx : {16384, 8192, 1024}) {
        // Last chunk of the prompt: chunk 1K attending the full ctx.
        auto batch = kernels::HybridBatch::Make(shape, 1024, ctx, 60, ctx);
        model::IterationBreakdown b = cost.Cost(batch, 61);
        // Others: norms/rope, TP all-reduce, the LM head and the fixed
        // per-iteration overhead.
        double others = b.others + b.comm + b.logits + b.overhead;
        auto pct = [&](double v) { return Table::Pct(v / b.total); };
        t.AddRow({std::to_string(ctx / 1024) + "K", pct(b.pre_proj),
                  pct(b.prefill_attn), pct(b.decode_attn),
                  pct(b.post_proj), pct(b.ffn), pct(others),
                  Table::Num(b.total * 1e3, 2)});
    }
    t.Print(std::cout);
    std::printf("\nPaper reference (16K row): Pre 3.8%%, PrefillAttn 34.0%%, "
                "DecodeAttn 26.2%%, Post 4.7%%, FFN 28.2%%, Others 3.1%%\n");
    return 0;
}
