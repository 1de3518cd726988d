/**
 * @file
 * Shared harness for the online-latency tables (paper Tables 5-7):
 * runs vLLM, Sarathi and Sarathi+POD on a synthetic workload at loads
 * near the system's serving capacity and prints the paper's metric
 * rows (TTFT / TBT / request latency percentiles, stall fractions).
 */
#ifndef POD_BENCH_ONLINE_COMMON_H
#define POD_BENCH_ONLINE_COMMON_H

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "serve/engine.h"
#include "serve/trace.h"

namespace pod::bench {

/** One serving system under test. */
struct OnlineSystem
{
    std::string name;
    core::Backend backend;
    bool vllm_scheduler = false;
    int chunk = 1024;
};

/** The three systems the paper compares, at a given chunk size. */
inline std::vector<OnlineSystem>
PaperSystems(int chunk)
{
    return {
        {"vLLM (original)", core::Backend::kFaSerial, true, chunk},
        {"Sarathi", core::Backend::kFaSerial, false, chunk},
        {"Sarathi+POD", core::Backend::kPod, false, chunk},
    };
}

/** Run one system on a trace and return its metrics. */
inline serve::MetricsReport
RunOnlineSystem(const OnlineSystem& system,
                const std::vector<serve::Request>& trace)
{
    serve::ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = system.backend;
    std::unique_ptr<serve::Scheduler> sched;
    if (system.vllm_scheduler) {
        sched = std::make_unique<serve::VllmScheduler>();
    } else {
        sched = std::make_unique<serve::SarathiScheduler>(system.chunk);
    }
    serve::ServingEngine engine(config, std::move(sched));
    return engine.Run(trace);
}

/**
 * Estimate the serving capacity (QPS) of Sarathi on a workload: the
 * offline completion rate of a probe slice of the trace.
 */
inline double
EstimateCapacityQps(const serve::WorkloadSpec& spec, int chunk,
                    int probe_requests, uint64_t seed)
{
    Rng rng(seed);
    auto probe = serve::GenerateTrace(spec, probe_requests, 0.0, rng);
    OnlineSystem sarathi{"probe", core::Backend::kFaSerial, false, chunk};
    serve::MetricsReport report = RunOnlineSystem(sarathi, probe);
    return report.RequestsPerMinute() / 60.0;
}

/** Print one QPS block of the paper's online-latency tables. */
inline void
PrintOnlineBlock(const serve::WorkloadSpec& spec, double qps, int chunk,
                 int requests, uint64_t seed)
{
    Rng rng(seed);
    auto trace = serve::GenerateTrace(spec, requests, qps, rng);
    Table t({"System", "TTFT P50 (s)", "TTFT P99 (s)", "TBT P50 (s)",
             "TBT P99 (s)", "Latency P50 (s)", "Latency P99 (s)",
             "stalls>200ms", "stalls>500ms"});
    for (const auto& system : PaperSystems(chunk)) {
        serve::MetricsReport r = RunOnlineSystem(system, trace);
        t.AddRow({system.name, Table::Num(r.ttft.Percentile(50), 2),
                  Table::Num(r.ttft.Percentile(99), 2),
                  Table::Num(r.tbt.Percentile(50), 3),
                  Table::Num(r.tbt.Percentile(99), 3),
                  Table::Num(r.latency.Percentile(50), 2),
                  Table::Num(r.latency.Percentile(99), 2),
                  Table::Pct(r.FracStalled200ms()),
                  Table::Pct(r.FracStalled500ms())});
    }
    std::printf("QPS %.2f (%d requests):\n", qps, requests);
    t.Print(std::cout);
    std::printf("\n");
}

}  // namespace pod::bench

#endif  // POD_BENCH_ONLINE_COMMON_H
