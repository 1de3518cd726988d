/**
 * @file
 * Offline serving comparison: vLLM vs Sarathi vs Sarathi+POD on
 * long-context requests (a scaled-down paper Fig. 12).
 *
 * Demonstrates the serving-level integration of POD-Attention: the
 * same Sarathi-Serve scheduler, with attention executed either by
 * serial FlashAttention kernels or by the fused POD kernel.
 */
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/table.h"
#include "serve/engine.h"
#include "serve/trace.h"

int
main(int argc, char** argv)
{
    using namespace pod;
    using namespace pod::serve;

    int num_requests = argc > 1 ? std::atoi(argv[1]) : 48;

    // Llama-3-8B on 2 A100s, 16K-token prompts, 1K outputs, chunk 1K
    // (paper S5.2).
    ServingConfig base;
    base.model = model::ModelConfig::Llama3_8B();
    base.tensor_parallel = 2;

    std::vector<Request> trace = UniformTrace(num_requests, 16384, 1024);

    struct SystemDef
    {
        const char* name;
        core::Backend backend;
        bool vllm_sched;
    };
    const SystemDef systems[] = {
        {"vLLM (original)", core::Backend::kFaSerial, true},
        {"Sarathi", core::Backend::kFaSerial, false},
        {"Sarathi+POD", core::Backend::kPod, false},
    };

    Table table({"system", "req/min", "makespan (s)", "iterations",
                 "P99 TBT (ms)", "stalls>200ms"});
    for (const auto& sys : systems) {
        ServingConfig config = base;
        config.backend = sys.backend;
        std::unique_ptr<Scheduler> sched;
        if (sys.vllm_sched) {
            sched = std::make_unique<VllmScheduler>();
        } else {
            sched = std::make_unique<SarathiScheduler>(1024);
        }
        ServingEngine engine(config, std::move(sched));
        MetricsReport report = engine.Run(trace);
        table.AddRow({sys.name, Table::Num(report.RequestsPerMinute(), 1),
                      Table::Num(report.makespan, 1),
                      Table::Int(report.iterations),
                      Table::Num(report.tbt.Percentile(99) * 1e3, 1),
                      Table::Pct(report.FracStalled200ms())});
    }
    std::printf("Offline serving, Llama-3-8B TP-2, %d requests "
                "(16K prefill + 1K decode each):\n\n",
                num_requests);
    table.Print(std::cout);
    return 0;
}
