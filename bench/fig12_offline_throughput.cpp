/**
 * @file
 * Reproduces paper Figure 12: offline serving throughput
 * (requests/minute) of vLLM (original scheduler), Sarathi and
 * Sarathi+POD for Yi-6B (1 GPU), Llama-2-7B (TP-2) and Llama-3-8B
 * (TP-2) on 16K-token prompts.
 *
 * Request counts are scaled down from the paper's 1-2K (an hour of
 * A100 time each) to keep the bench minutes-long; set POD_BENCH_SCALE
 * to enlarge.
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
    Header("Figure 12", "offline serving throughput (requests/minute)");

    struct ModelDef
    {
        model::ModelConfig model;
        int tp;
        int chunk;
        int decode_tokens;
    };
    const ModelDef models[] = {
        {model::ModelConfig::Yi6B(), 1, 512, 2048},
        {model::ModelConfig::Llama2_7B(), 2, 1024, 256},
        {model::ModelConfig::Llama3_8B(), 2, 1024, 1024},
    };

    int requests = Scaled(48);
    Table t({"model", "vLLM (original)", "Sarathi", "Sarathi+POD",
             "POD vs Sarathi"});
    for (const auto& def : models) {
        auto trace = UniformTrace(requests, 16384, def.decode_tokens);
        double rpm[3] = {0, 0, 0};
        for (int sys = 0; sys < 3; ++sys) {
            ServingConfig config;
            config.model = def.model;
            config.tensor_parallel = def.tp;
            config.backend = sys == 2 ? core::Backend::kPod
                                      : core::Backend::kFaSerial;
            std::unique_ptr<Scheduler> sched;
            if (sys == 0) {
                sched = std::make_unique<VllmScheduler>();
            } else {
                sched = std::make_unique<SarathiScheduler>(def.chunk);
            }
            ServingEngine engine(config, std::move(sched));
            rpm[sys] = engine.Run(trace).RequestsPerMinute();
        }
        t.AddRow({def.model.name, Table::Num(rpm[0], 1),
                  Table::Num(rpm[1], 1), Table::Num(rpm[2], 1),
                  Table::Pct(rpm[2] / rpm[1] - 1.0)});
    }
    std::printf("%d requests per configuration, 16K prefill tokens each\n\n",
                requests);
    t.Print(std::cout);
    std::printf("\nPaper reference: Sarathi+POD beats Sarathi by 22%%/20%%/"
                "19%% (Yi/Llama-2/Llama-3) and vLLM by 27%%/13%%/12%%.\n");
    return 0;
}
