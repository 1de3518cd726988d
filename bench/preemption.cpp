/**
 * @file
 * Preemption overload sweep (beyond the paper): arrival rate x
 * admission watermark x KV allocation policy {conservative,
 * watermark-recompute, watermark-swap} on one memory-tight A100
 * replica (docs/DESIGN.md S2).
 *
 * The KV pool is deliberately shrunk to a few thousand tokens
 * (memory_fraction, the failure_test.cc trick) to emulate a
 * memory-tight deployment where vLLM's watermark regime matters:
 * conservative admission head-of-line-blocks the queue, watermark
 * admission packs more requests on prompt-only reservations and pays
 * for it with preemptions — recompute burns iterations re-running
 * prefills, swap burns PCIe transfer time. The sweep shows which
 * side of that trade wins at each load level, pinned by the
 * preemption counters the lifecycle API surfaces.
 *
 * `--smoke` shrinks everything to a seconds-long CI exercise of all
 * three policies (wired into .github/workflows/ci.yml).
 */
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/telemetry/trace.h"
#include "serve/engine.h"
#include "serve/scheduler.h"
#include "serve/trace.h"

using namespace pod;
using namespace pod::bench;
using namespace pod::serve;

namespace {

constexpr uint64_t kSeed = 2026;
constexpr int kChunk = 512;

/** One policy point of the sweep. */
struct Policy
{
    std::string name;
    KvPolicy kv_policy;
    PreemptMode preempt_mode;
};

ServingConfig
TightConfig(const Policy& policy, double watermark)
{
    ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = core::Backend::kPod;
    // Shrink the usable memory so the KV pool holds only a few
    // requests: the watermark-vs-conservative decision then dominates.
    config.memory_fraction = 0.0958;
    config.kv_policy = policy.kv_policy;
    config.kv_watermark = watermark;
    config.kv_preempt_mode = policy.preempt_mode;
    // Coarse memo-cache buckets: the sweep builds many engines.
    config.kv_bucket = 2048;
    config.context_bucket = 2048;
    config.decode_bs_bucket = 16;
    return config;
}

/** Moderate prompts, long-ish decode chains: the preemption regime. */
WorkloadSpec
TightWorkload()
{
    WorkloadSpec spec;
    spec.name = "memory-tight";
    spec.prefill_mean = 512.0;
    spec.prefill_stddev = 256.0;
    spec.prefill_min = 64;
    spec.prefill_max = 2048;
    spec.decode_mean = 192.0;
    spec.decode_stddev = 96.0;
    spec.decode_min = 32;
    spec.decode_max = 512;
    return spec;
}

void
AddRow(Table& table, const Policy& policy, double qps, double watermark,
       const ServingEngine& engine, const MetricsReport& report)
{
    table.AddRow(
        {policy.name, Table::Num(qps, 1), Table::Pct(watermark),
         Table::Num(report.requests_per_minute, 1),
         Table::Num(report.ttft.Percentile(50), 2),
         Table::Num(report.ttft.Percentile(99), 2),
         Table::Num(report.tbt.Percentile(99) * 1e3, 1),
         Table::Int(static_cast<int>(report.preemptions)),
         Table::Num(engine.Counters().swap_time_total, 3),
         Table::Pct(report.frac_stalled_200ms)});
}

}  // namespace

int
main(int argc, char** argv)
{
    TelemetryOptions telemetry = StripTelemetryFlags(argc, argv);
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    Header("preemption",
           "KV allocation policy sweep on a memory-tight replica: "
           "conservative vs watermark admission with "
           "recompute/swap preemption");

    const std::vector<Policy> policies = {
        {"conservative", KvPolicy::kConservative, PreemptMode::kRecompute},
        {"wm-recompute", KvPolicy::kWatermark, PreemptMode::kRecompute},
        {"wm-swap", KvPolicy::kWatermark, PreemptMode::kSwap},
    };
    std::vector<double> qps_sweep =
        smoke ? std::vector<double>{4.0} : std::vector<double>{1.0, 2.0,
                                                               4.0};
    std::vector<double> watermarks =
        smoke ? std::vector<double>{0.01}
              : std::vector<double>{0.01, 0.05, 0.10};
    int requests = smoke ? 12 : Scaled(48);

    WorkloadSpec spec = TightWorkload();
    std::printf("Workload: %s (prefill ~%.0f, decode ~%.0f tokens), "
                "%d requests, Llama-3-8B TP-2, Sarathi+POD chunk %d,\n"
                "KV pool shrunk to a few thousand tokens "
                "(memory_fraction=0.0958).\n\n",
                spec.name.c_str(), spec.prefill_mean, spec.decode_mean,
                requests, kChunk);

    bool watermark_preempted = false;
    for (double qps : qps_sweep) {
        Rng rng(kSeed);  // same trace per load level for all cells
        auto trace = GenerateTrace(spec, requests, qps, rng);
        std::printf("Arrival rate %.1f QPS:\n\n", qps);
        Table table({"policy", "QPS", "watermark", "req/min",
                     "TTFT P50 (s)", "TTFT P99 (s)", "TBT P99 (ms)",
                     "preempt", "swap (s)", "stall>200ms"});
        for (const auto& policy : policies) {
            // The conservative policy ignores the watermark; one row
            // suffices.
            std::vector<double> cell_watermarks =
                policy.kv_policy == KvPolicy::kConservative
                    ? std::vector<double>{watermarks.front()}
                    : watermarks;
            for (double watermark : cell_watermarks) {
                ServingEngine engine(
                    TightConfig(policy, watermark),
                    std::make_unique<SarathiScheduler>(kChunk));
                MetricsReport report = engine.Run(trace);
                if (policy.kv_policy == KvPolicy::kWatermark &&
                    report.preemptions > 0) {
                    watermark_preempted = true;
                }
                AddRow(table, policy, qps, watermark, engine, report);
            }
        }
        table.Print(std::cout);
        std::printf("\n");
    }

    if (smoke && !watermark_preempted) {
        std::printf("FAIL: smoke overload produced no preemption under "
                    "the watermark policies -- the preemption path is "
                    "not being exercised\n");
        return 1;
    }

    if (telemetry.Enabled()) {
        // Instrumented single-replica run of the wm-swap cell: its
        // timeline shows the admit/preempt/restore churn this bench
        // exists to study (docs/OBSERVABILITY.md).
        pod::telemetry::TraceRecorder recorder(0, "memory-tight replica");
        ServingEngine engine(
            TightConfig(policies.back(), watermarks.front()),
            std::make_unique<SarathiScheduler>(kChunk));
        engine.SetTraceRecorder(&recorder);
        Rng rng(kSeed);
        auto trace =
            GenerateTrace(spec, requests, qps_sweep.back(), rng);
        MetricsReport report = engine.Run(trace);
        if (!telemetry.trace_out.empty()) {
            WriteOutputFile(telemetry.trace_out, [&](std::ostream& out) {
                pod::telemetry::WriteChromeTrace(out, {&recorder});
            });
        }
        if (!telemetry.json_out.empty()) {
            pod::telemetry::MetricRegistry registry;
            FillRegistry(report, registry);
            WriteMetricsFile(telemetry, registry);
        }
    }

    std::printf("PASS\n");
    return 0;
}
