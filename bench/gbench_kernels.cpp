/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths: the
 * fluid GPU simulator, the attention backends, the numeric reference
 * attention and the serving engine's iteration costing. These guard
 * the simulator's own performance (the serving benches run hundreds
 * of thousands of iterations through these paths).
 */
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "attnref/attention_ref.h"
#include "bench_util.h"
#include "core/attention.h"
#include "kernels/micro.h"
#include "model/iteration_cost.h"
#include "serve/engine.h"
#include "serve/scheduler.h"

using namespace pod;
using namespace pod::bench;

namespace {

void
BM_AttentionBackend(benchmark::State& state)
{
    auto backend = static_cast<core::Backend>(state.range(0));
    gpusim::GpuSpec gpu = A100();
    auto batch = kernels::HybridBatch::Make(Llama3Tp2Shape(), 1024, 12288,
                                            80, 12288);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::RunAttention(backend, batch, gpu).total_time);
    }
}
BENCHMARK(BM_AttentionBackend)
    ->DenseRange(0, 5, 1)
    ->Unit(benchmark::kMillisecond);

void
BM_MicroStrategy(benchmark::State& state)
{
    auto strategy = static_cast<kernels::FusionStrategy>(state.range(0));
    gpusim::GpuSpec gpu = A100();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernels::RunMicroStrategy(strategy, /*compute_iters=*/100, gpu));
    }
}
BENCHMARK(BM_MicroStrategy)
    ->DenseRange(0, 5, 1)
    ->Unit(benchmark::kMillisecond);

void
BM_FlashRefTiled(benchmark::State& state)
{
    size_t n = static_cast<size_t>(state.range(0));
    Rng rng(1);
    attnref::Matrix q(16, 64);
    attnref::Matrix k(n, 64);
    attnref::Matrix v(n, 64);
    q.FillRandom(rng);
    k.FillRandom(rng);
    v.FillRandom(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(attnref::FlashAttentionTiled(
            q, k, v, static_cast<int>(n) - 16, true, 0.125f, 16, 64));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n) * 16);
}
BENCHMARK(BM_FlashRefTiled)->Arg(256)->Arg(1024)->Arg(4096);

/**
 * The serving engine's per-iteration costing path, on both event
 * cores (docs/DESIGN.md S3): arg 0 is the analytic fast path (the
 * default everywhere), arg 1 the stepwise ExactOracle. CI uploads the
 * JSON of this run as the `bench-trajectory` artifact, so the pair
 * tracks both the fast path's absolute cost and its speedup over the
 * oracle across commits. The user counters record how one costing
 * call splits across the cores — the analytic run must report zero
 * oracle events and vice versa (the same discipline the regression
 * suites assert).
 */
void
BM_IterationCost(benchmark::State& state)
{
    core::AttnRunOptions options;
    options.sim.core = state.range(0) == 0
                           ? gpusim::EngineCore::kAnalytic
                           : gpusim::EngineCore::kExactOracle;
    model::IterationCostModel cost(model::ModelConfig::Llama3_8B(), A100(),
                                   2, core::Backend::kPod, options);
    auto batch = kernels::HybridBatch::Make(Llama3Tp2Shape(), 1024, 16384,
                                            48, 16384);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cost.Cost(batch, 49).total);
    }
    auto probe = core::RunAttention(core::Backend::kPod, batch, A100(),
                                    options);
    state.counters["fastpath_events"] = benchmark::Counter(
        static_cast<double>(probe.analytic_fastpath_events));
    state.counters["fallback_events"] = benchmark::Counter(
        static_cast<double>(probe.oracle_fallback_events));
}
BENCHMARK(BM_IterationCost)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("core")
    ->Unit(benchmark::kMillisecond);

/**
 * Serving drain with a warm attention memo cache: one ServingEngine
 * draining an offline trace, steady-state (the cache persists across
 * benchmark iterations, as it does across production Reset()s). The
 * hits/misses counters show the steady-state hit rate behind the
 * number; docs/EXPERIMENTS.md records the cache's measured value.
 */
void
BM_ServeMemoCache(benchmark::State& state)
{
    serve::ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = core::Backend::kPod;
    serve::ServingEngine engine(
        config, std::make_unique<serve::SarathiScheduler>(2048));

    std::vector<serve::Request> trace;
    for (int i = 0; i < 16; ++i) {
        serve::Request r;
        r.id = i;
        r.arrival_time = 0.0;
        r.prefill_tokens = 512 + 731 * (i % 7);
        r.decode_tokens = 16 + 37 * (i % 6);
        trace.push_back(r);
    }

    long iterations = 0;
    for (auto _ : state) {
        iterations += engine.Run(trace).iterations;
    }
    state.counters["sim_iterations"] =
        benchmark::Counter(static_cast<double>(iterations),
                           benchmark::Counter::kIsRate);
    state.counters["cache_hits"] = benchmark::Counter(
        static_cast<double>(engine.AttnCacheHits()));
    state.counters["cache_misses"] = benchmark::Counter(
        static_cast<double>(engine.AttnCacheMisses()));
}
BENCHMARK(BM_ServeMemoCache)->Unit(benchmark::kMillisecond);

}  // namespace

/**
 * Hand-rolled main instead of BENCHMARK_MAIN(): defaults the min-time
 * flag to the 1.7.x-compatible spelling (GbenchMinTimeFlag) so the
 * binary runs quickly out of the box, while explicit user flags win.
 */
int
main(int argc, char** argv)
{
    std::vector<char*> args(argv, argv + argc);
    bool has_min_time = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--benchmark_min_time", 0) == 0) {
            has_min_time = true;
        }
    }
    std::string default_min_time = GbenchMinTimeFlag();
    if (!has_min_time) args.push_back(default_min_time.data());

    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
