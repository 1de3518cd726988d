/**
 * @file
 * Reproduces paper Figure 15: request throughput of Sarathi vs
 * Sarathi+POD as the per-request prefill:decode token ratio varies
 * from 8 (decode-bound) to 24 (prefill-bound), with ~16.5K total
 * tokens per request (Llama-3-8B, TP-2). POD's gains peak in the
 * balanced 12-18 regime where most iterations are hybrid batches.
 */
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "common/table.h"
#include "serve/engine.h"
#include "serve/trace.h"

using namespace pod;
using namespace pod::serve;
using namespace pod::bench;

int
main()
{
    Header("Figure 15", "throughput vs prefill:decode token ratio");
    int requests = Scaled(32);

    Table t({"P:D ratio", "Sarathi (req/min)", "Sarathi+POD (req/min)",
             "gain"});
    double best_gain = 0.0;
    int best_ratio = 0;
    for (int ratio = 8; ratio <= 24; ratio += 2) {
        auto trace = PdRatioTrace(requests, 16500, ratio);
        double rpm[2];
        for (int sys = 0; sys < 2; ++sys) {
            ServingConfig config;
            config.model = model::ModelConfig::Llama3_8B();
            config.tensor_parallel = 2;
            config.backend =
                sys == 1 ? core::Backend::kPod : core::Backend::kFaSerial;
            ServingEngine engine(config,
                                 std::make_unique<SarathiScheduler>(1024));
            rpm[sys] = engine.Run(trace).RequestsPerMinute();
        }
        double gain = rpm[1] / rpm[0] - 1.0;
        if (gain > best_gain) {
            best_gain = gain;
            best_ratio = ratio;
        }
        t.AddRow({Table::Int(ratio), Table::Num(rpm[0], 1),
                  Table::Num(rpm[1], 1), Table::Pct(gain)});
    }
    std::printf("%d requests of ~16.5K tokens per ratio point\n\n",
                requests);
    t.Print(std::cout);
    std::printf("\nPeak gain %.1f%% at P:D %d (paper: peak gains in the "
                "12-18 range).\n",
                best_gain * 100.0, best_ratio);
    return 0;
}
