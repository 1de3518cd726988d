/**
 * @file
 * Shared-prefix KV reuse sweep (docs/DESIGN.md S2.6): how much
 * prefill work the radix prefix cache removes from chat-style
 * session traces, and how much of that reuse survives data-parallel
 * routing.
 *
 * Four parts:
 *  1. Share-ratio sweep — single replica, prefix cache OFF vs ON on
 *     session traces whose fraction of Zipf-shared system prompts
 *     varies. Reports prefill tokens actually processed, tokens
 *     served from cache, hit rate, and the processed P:D token
 *     ratio: cached prefix blocks turn prefill-heavy requests into
 *     decode-shaped work (the knob paper Fig. 15 sweeps statically).
 *  2. Session-depth sweep — deeper multi-turn sessions replay a
 *     growing conversation prefix every turn, so savings climb with
 *     depth even at share ratio 0.
 *  3. Block-size sweep — smaller KV blocks hash more boundaries
 *     (finer-grained hits, more radix nodes); larger blocks waste
 *     the partial tail block of every prompt.
 *  4. Router comparison — a 4-replica fleet under least-kv vs
 *     prefix-affinity routing. Affinity steers each session (and
 *     each popular system prompt) to the replica already holding its
 *     blocks; pressure-based routing scatters turns across the
 *     fleet and re-prefills the same prefix everywhere.
 *
 * `--smoke` shrinks everything to a seconds-long CI run and enforces
 * the PR's two acceptance gates, exiting nonzero on failure:
 *   - at 50% share the cache must cut processed prefill tokens by
 *     >= 30% vs the same trace with the cache off;
 *   - the prefix-affinity router must beat least-kv on fleet prefix
 *     hit rate.
 *
 * `--json-out PATH` dumps the prefix-affinity fleet's metric
 * registry plus the bench-level gate readings (bench.prefix.*);
 * `--trace-out PATH` writes that fleet run's sim-time Chrome trace
 * (docs/OBSERVABILITY.md).
 */
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster_engine.h"
#include "common/rng.h"
#include "common/table.h"
#include "serve/engine.h"
#include "serve/trace.h"

using namespace pod;
using namespace pod::bench;
using namespace pod::serve;

namespace {

constexpr uint64_t kSeed = 2025;
constexpr int kChunk = 2048;

ServingConfig
BaseConfig()
{
    ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = core::Backend::kPod;
    // Coarse memo-cache buckets: this sweep builds dozens of engines
    // and only token-accounting deltas matter, not absolute latency.
    config.kv_bucket = 2048;
    config.context_bucket = 2048;
    config.decode_bs_bucket = 16;
    return config;
}

SessionWorkloadSpec
BenchSpec(bool smoke)
{
    SessionWorkloadSpec spec = SessionWorkloadSpec::Chat();
    // Mid-size system prompts and short decodes keep the simulated
    // iterations cheap while leaving plenty of prefix to reuse.
    spec.system_tokens_min = 1024;
    spec.system_tokens_max = 2048;
    spec.user_mean = 128.0;
    spec.user_stddev = 64.0;
    spec.decode_mean = smoke ? 48.0 : 96.0;
    spec.decode_stddev = 32.0;
    spec.decode_min = 8;
    spec.decode_max = 256;
    spec.min_turns = smoke ? 2 : 1;
    spec.max_turns = smoke ? 3 : 4;
    spec.num_system_prompts = 8;
    return spec;
}

struct RunResult
{
    long prefill_processed = 0;
    long decode_processed = 0;
    long prefill_submitted = 0;
    long tokens_saved = 0;
    double hit_rate = 0.0;
    double rpm = 0.0;
};

RunResult
RunReplica(const std::vector<Request>& trace, bool prefix_on,
           int block_size = 16)
{
    ServingConfig config = BaseConfig();
    config.prefix_cache_enabled = prefix_on;
    config.kv_block_size = block_size;
    ServingEngine engine(config,
                         std::make_unique<SarathiScheduler>(kChunk));
    MetricsReport report = engine.Run(trace);
    RunResult r;
    r.prefill_processed = report.prefill_tokens_processed;
    r.decode_processed = report.decode_tokens_processed;
    r.tokens_saved = report.prefix_tokens_saved;
    long lookups = report.prefix_hits + report.prefix_misses;
    r.hit_rate = lookups > 0 ? static_cast<double>(report.prefix_hits) /
                                   static_cast<double>(lookups)
                             : 0.0;
    r.rpm = report.RequestsPerMinute();
    for (const Request& req : trace) {
        r.prefill_submitted += req.prefill_tokens;
    }
    return r;
}

/** Processed-token savings of ON vs OFF: 1 - on/off. */
double
SavingsFraction(const RunResult& off, const RunResult& on)
{
    if (off.prefill_processed <= 0) return 0.0;
    return 1.0 - static_cast<double>(on.prefill_processed) /
                     static_cast<double>(off.prefill_processed);
}

/** Processed prefill:decode token ratio ("P:D" in the tables). */
double
PdRatio(const RunResult& r)
{
    if (r.decode_processed <= 0) return 0.0;
    return static_cast<double>(r.prefill_processed) /
           static_cast<double>(r.decode_processed);
}

/** Run the fleet; a non-empty `trace_out` records and writes its
 * sim-time trace. */
cluster::ClusterMetricsReport
RunFleet(const std::vector<Request>& trace,
         std::unique_ptr<cluster::Router> router, int replicas,
         const std::string& trace_out = "")
{
    ServingConfig config = BaseConfig();
    config.prefix_cache_enabled = true;
    cluster::ClusterEngine fleet(
        cluster::ClusterConfig::Homogeneous(config, replicas),
        [](int) { return std::make_unique<SarathiScheduler>(kChunk); },
        std::move(router));
    if (!trace_out.empty()) fleet.EnableTracing();
    cluster::ClusterMetricsReport report = fleet.Run(trace);
    if (!trace_out.empty()) {
        WriteOutputFile(trace_out, [&](std::ostream& out) {
            fleet.WriteChromeTrace(out);
        });
    }
    return report;
}

}  // namespace

int
main(int argc, char** argv)
{
    TelemetryOptions telemetry = StripTelemetryFlags(argc, argv);
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--json-out PATH] "
                         "[--trace-out PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    Header("prefix_reuse",
           "shared-prefix KV reuse: radix cache savings + routing");

    const int sessions = smoke ? 16 : Scaled(48);
    const double qps = 2.0;
    bool ok = true;

    // Part 1: share-ratio sweep, prefix OFF vs ON.
    std::printf("Share-ratio sweep: %d sessions, Zipf system prompts, "
                "Sarathi chunk %d\n\n",
                sessions, kChunk);
    Table share_table({"share", "prefill OFF", "prefill ON", "saved",
                       "savings", "hit rate", "P:D OFF", "P:D ON"});
    double savings_at_half = 0.0;
    std::vector<double> shares =
        smoke ? std::vector<double>{0.0, 0.5}
              : std::vector<double>{0.0, 0.25, 0.5, 0.75};
    for (double share : shares) {
        SessionWorkloadSpec spec = BenchSpec(smoke);
        spec.share_ratio = share;
        Rng rng(kSeed);
        auto trace = GenerateSessionTrace(spec, sessions, qps, rng);
        RunResult off = RunReplica(trace, false);
        RunResult on = RunReplica(trace, true);
        double savings = SavingsFraction(off, on);
        if (share == 0.5) savings_at_half = savings;
        share_table.AddRow(
            {Table::Num(share, 2), Table::Int(off.prefill_processed),
             Table::Int(on.prefill_processed), Table::Int(on.tokens_saved),
             Table::Pct(savings), Table::Pct(on.hit_rate),
             Table::Num(PdRatio(off), 2), Table::Num(PdRatio(on), 2)});
    }
    share_table.Print(std::cout);
    std::printf("\n");

    // Part 2: session-depth sweep at 50%% share. Turn j replays the
    // whole conversation so far, so deeper sessions reuse more even
    // when no two sessions share a system prompt.
    Table depth_table(
        {"turns", "prefill OFF", "prefill ON", "savings", "hit rate"});
    std::vector<int> depths =
        smoke ? std::vector<int>{1, 3} : std::vector<int>{1, 2, 4};
    for (int turns : depths) {
        SessionWorkloadSpec spec = BenchSpec(smoke);
        spec.min_turns = turns;
        spec.max_turns = turns;
        Rng rng(kSeed);
        auto trace = GenerateSessionTrace(spec, sessions, qps, rng);
        RunResult off = RunReplica(trace, false);
        RunResult on = RunReplica(trace, true);
        depth_table.AddRow({Table::Int(turns),
                            Table::Int(off.prefill_processed),
                            Table::Int(on.prefill_processed),
                            Table::Pct(SavingsFraction(off, on)),
                            Table::Pct(on.hit_rate)});
    }
    std::printf("Session-depth sweep (share 0.50):\n\n");
    depth_table.Print(std::cout);
    std::printf("\n");

    // Part 3: KV block-size sweep. Hashing happens per full block,
    // so the block size sets both hit granularity and the unhashable
    // tail of every prompt.
    Table block_table(
        {"block", "prefill ON", "saved", "savings", "hit rate"});
    std::vector<int> block_sizes =
        smoke ? std::vector<int>{16, 64} : std::vector<int>{16, 32, 64};
    {
        SessionWorkloadSpec spec = BenchSpec(smoke);
        Rng rng(kSeed);
        auto trace = GenerateSessionTrace(spec, sessions, qps, rng);
        for (int block : block_sizes) {
            RunResult off = RunReplica(trace, false, block);
            RunResult on = RunReplica(trace, true, block);
            block_table.AddRow({Table::Int(block),
                                Table::Int(on.prefill_processed),
                                Table::Int(on.tokens_saved),
                                Table::Pct(SavingsFraction(off, on)),
                                Table::Pct(on.hit_rate)});
        }
    }
    std::printf("Block-size sweep (share 0.50):\n\n");
    block_table.Print(std::cout);
    std::printf("\n");

    // Part 4: routing. Same trace, 4 prefix-caching replicas,
    // pressure-based vs affinity routing.
    const int replicas = smoke ? 2 : 4;
    SessionWorkloadSpec fleet_spec = BenchSpec(smoke);
    Rng fleet_rng(kSeed);
    auto fleet_trace = GenerateSessionTrace(
        fleet_spec, smoke ? sessions * 2 : sessions * 2, qps, fleet_rng);
    Table router_table({"router", "hit rate", "tokens saved",
                        "prefill processed", "req/min"});
    double least_kv_hit_rate = 0.0;
    double affinity_hit_rate = 0.0;
    cluster::ClusterMetricsReport affinity_report;
    std::vector<std::string> routers = {"least-kv", "prefix-affinity"};
    if (!smoke) routers.insert(routers.begin(), "round-robin");
    for (const std::string& name : routers) {
        const bool affinity = name == "prefix-affinity";
        std::unique_ptr<cluster::Router> router =
            affinity ? std::make_unique<cluster::PrefixAffinityRouter>(
                           BaseConfig().kv_block_size)
                     : cluster::MakeRouter(name);
        cluster::ClusterMetricsReport report =
            RunFleet(fleet_trace, std::move(router), replicas,
                     affinity ? telemetry.trace_out : "");
        if (name == "least-kv") least_kv_hit_rate = report.PrefixHitRate();
        if (affinity) {
            affinity_hit_rate = report.PrefixHitRate();
            affinity_report = report;
        }
        router_table.AddRow(
            {name, Table::Pct(report.PrefixHitRate()),
             Table::Int(report.prefix_tokens_saved),
             Table::Int(report.prefill_tokens_processed),
             Table::Num(report.fleet.RequestsPerMinute(), 1)});
    }
    std::printf("Router comparison (%d replicas, prefix cache ON, "
                "%zu requests):\n\n",
                replicas, fleet_trace.size());
    router_table.Print(std::cout);
    std::printf("\n");

    // Acceptance gates (docs/EXPERIMENTS.md): enforced under --smoke,
    // reported otherwise.
    std::printf("Gate 1: savings at 50%% share = %.1f%% (need >= 30%%)\n",
                savings_at_half * 100.0);
    std::printf("Gate 2: prefix-affinity hit rate %.1f%% vs least-kv "
                "%.1f%% (need affinity > least-kv)\n",
                affinity_hit_rate * 100.0, least_kv_hit_rate * 100.0);
    if (savings_at_half < 0.30) {
        std::printf("FAIL: prefix cache saved < 30%% of prefill tokens "
                    "at 50%% share\n");
        ok = false;
    }
    if (affinity_hit_rate <= least_kv_hit_rate) {
        std::printf("FAIL: prefix-affinity did not beat least-kv on "
                    "fleet hit rate\n");
        ok = false;
    }
    if (ok) std::printf("PASS: both prefix-reuse gates hold\n");

    if (!telemetry.json_out.empty()) {
        telemetry::MetricRegistry registry;
        cluster::FillRegistry(affinity_report, registry);
        registry.SetGauge("bench.prefix.savings_at_half_share",
                          savings_at_half);
        registry.SetGauge("bench.prefix.affinity_hit_rate",
                          affinity_hit_rate);
        registry.SetGauge("bench.prefix.least_kv_hit_rate",
                          least_kv_hit_rate);
        WriteMetricsFile(telemetry, registry);
    }

    return (smoke && !ok) ? 1 : 0;
}
