/**
 * @file
 * Cluster scaling sweep (beyond the paper): fleet throughput and tail
 * latency across 1/2/4/8 data-parallel replicas x routing policy x
 * the Internal/arXiv workloads, plus a bursty near-capacity run that
 * separates the load-aware routers from round-robin on P99 TTFT.
 *
 * Two parts:
 *  1. Offline saturation sweep — the whole trace queued at t=0
 *     measures pure fleet throughput scaling and load balance.
 *  2. Bursty online run — Poisson arrivals slightly above the
 *     fleet's estimated capacity; queueing makes the routing policy
 *     visible in the TTFT tail.
 *
 * `--smoke` shrinks everything to a seconds-long CI exercise of the
 * full routing loop (2 replicas, 2 policies, tiny trace).
 *
 * `--threads N` runs every fleet through the parallel cluster engine
 * (docs/DESIGN.md S8) with N executing threads (0 = all hardware
 * threads). Results are bit-identical to serial at any N — the knob
 * only changes wall-clock time.
 *
 * `--long-smoke` runs a 1M-request, 2-replica trace against a
 * wall-clock budget. It exists to pin the O(active) complexity of the
 * serving/cluster loops end to end: the pre-PR-3 full-state rescans
 * (O(N^2 * R) in trace length) and the pre-admitted-watermark
 * scheduler scans (O(trace) per iteration while a long backlog
 * queues) each cost ~380 s on the dev box at this trace length,
 * versus ~6 s with the incremental accounting plus bounded
 * batch-building scans. A regression of either class bursts the 60 s
 * budget (the CI runs this on every push; the budget leaves ~10x
 * headroom for slow shared runners while sitting ~6x under the
 * regressed cost). The serial run also prints the process peak RSS
 * (`getrusage` ru_maxrss, recorded as `profile.peak_rss_mb` in
 * --json-out) and fails above 1 GB: storing one double per TBT
 * sample in the serve loop peaked at ~1.7 GB, the run-length TBT set
 * at ~0.3 GB (4-core x86-64 host, Release, GCC 12.2).
 *
 * `--long-smoke --threads N` is the parallel pin: the same 1M
 * requests on an 8-replica fleet, run serial then parallel, with the
 * two reports compared bit-exactly and the parallel run held to the
 * same wall-clock budget. When the host has >= N hardware threads
 * and N >= 4 it additionally requires a >= 2x speedup over the
 * serial 8-replica run, failing the build if the parallel engine's
 * scaling regresses. It then runs the heterogeneous advance pin: a
 * mixed H100/A6000 fleet under a deterministically skewed router,
 * drained at N threads and checked bit-identical to the serial
 * oracle; its advance seconds and barrier-wait fraction are printed
 * and recorded as non-gating gauges (docs/DESIGN.md S8.4).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench_util.h"
#include "cluster/cluster_engine.h"
#include "common/rng.h"
#include "common/table.h"
#include "serve/trace.h"

using namespace pod;
using namespace pod::bench;
using namespace pod::cluster;

namespace {

constexpr uint64_t kSeed = 2025;
constexpr int kChunk = 2048;

/** Peak resident set size of this process so far, in MB. */
double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

serve::ServingConfig
ReplicaConfig()
{
    serve::ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = core::Backend::kPod;
    // Coarser memo-cache buckets than the latency tables: every
    // replica engine fills its own cache, and this sweep builds
    // 15 replica-engines per router x workload cell. Relative fleet
    // throughput is insensitive to the extra quantization.
    config.kv_bucket = 2048;
    config.context_bucket = 2048;
    config.decode_bs_bucket = 16;
    return config;
}

SchedulerFactory
Sarathi()
{
    return [](int) {
        return std::make_unique<serve::SarathiScheduler>(kChunk);
    };
}

/**
 * Bench-local deterministic weighted round-robin (smooth-WRR): over
 * any window of sum(weights) consecutive requests, replica r receives
 * exactly weights[r] of them, smoothly interleaved. It ignores load
 * on purpose — the skew is the point. The heterogeneous advance pin
 * needs per-replica windows that stay imbalanced for the whole drain,
 * which any load-aware policy would erode; a fixed skew makes the
 * advance phase's barrier-wait share reproducible run over run.
 */
class SkewedRouter : public Router
{
  public:
    explicit SkewedRouter(std::vector<int> weights)
        : weights_(std::move(weights)), current_(weights_.size(), 0)
    {
    }

    int
    Route(const serve::Request&,
          const std::vector<serve::ReplicaSnapshot>& replicas) override
    {
        // Smooth WRR: raise every replica by its weight, pick the
        // highest (lowest index wins ties), charge the pick the total.
        size_t n = std::min(weights_.size(), replicas.size());
        int total = 0;
        size_t pick = 0;
        for (size_t r = 0; r < n; ++r) {
            current_[r] += weights_[r];
            total += weights_[r];
            if (current_[r] > current_[pick]) pick = r;
        }
        current_[pick] -= total;
        return static_cast<int>(pick);
    }

    void
    Reset() override
    {
        std::fill(current_.begin(), current_.end(), 0);
    }

    std::string
    Name() const override
    {
        return "skewed-wrr";
    }

  private:
    std::vector<int> weights_;
    std::vector<int> current_;
};

ClusterMetricsReport
RunFleet(const std::vector<serve::Request>& trace, int replicas,
         const std::string& router, int threads = 1)
{
    ClusterEngine cluster(
        ClusterConfig::Homogeneous(ReplicaConfig(), replicas), Sarathi(),
        MakeRouter(router), threads);
    return cluster.Run(trace);
}

void
AddReportRow(Table& table, int replicas,
             const ClusterMetricsReport& report)
{
    double kv_mean = 0.0;
    double kv_peak = 0.0;
    for (const auto& u : report.utilization) {
        kv_mean += u.kv_mean / report.num_replicas;
        kv_peak = std::max(kv_peak, u.kv_peak);
    }
    table.AddRow({Table::Int(replicas), report.router,
                  Table::Num(report.fleet.RequestsPerMinute(), 1),
                  Table::Num(report.fleet.ttft.Percentile(50), 2),
                  Table::Num(report.fleet.ttft.Percentile(99), 2),
                  Table::Num(report.fleet.tbt.Percentile(99) * 1e3, 1),
                  Table::Num(report.request_imbalance_cv, 3),
                  Table::Num(report.token_imbalance_cv, 3),
                  Table::Pct(kv_mean), Table::Pct(kv_peak)});
}

/**
 * Dedicated instrumented run for --json-out / --trace-out
 * (docs/OBSERVABILITY.md): a small 2-replica fleet with sim-time
 * tracing and wall-clock profiling enabled. Kept separate from the
 * sweep runs above so their timings stay unperturbed; the trace bytes
 * are deterministic (identical at every thread count).
 */
void
EmitTelemetry(const TelemetryOptions& telemetry, int threads)
{
    if (!telemetry.Enabled()) return;
    Rng rng(kSeed);
    auto trace = serve::GenerateTrace(serve::WorkloadSpec::Internal(),
                                      8, 4.0, rng);
    ClusterEngine cluster(ClusterConfig::Homogeneous(ReplicaConfig(), 2),
                          Sarathi(), MakeRouter("least-kv"), threads);
    cluster.EnableTracing();
    cluster.EnableProfiling(true);
    ClusterMetricsReport report = cluster.Run(trace);

    if (!telemetry.trace_out.empty()) {
        WriteOutputFile(telemetry.trace_out, [&](std::ostream& out) {
            cluster.WriteChromeTrace(out);
        });
    }
    if (!telemetry.json_out.empty()) {
        telemetry::MetricRegistry registry;
        FillRegistry(report, registry);
        cluster.Profile().FillRegistry(registry, "profile.");
        registry.SetGauge("profile.peak_rss_mb", PeakRssMb());
        WriteMetricsFile(telemetry, registry);
    }
}

/**
 * The 1M-request complexity pin. Short prompts and decodes keep the
 * per-iteration simulation work small, so wall-clock time is
 * dominated by the loop bookkeeping this smoke exists to bound. The
 * budget sits ~10x above the measured O(active) runtime (6.3 s) and
 * ~6x under the measured cost of unbounded batch-building scans
 * (382 s), so it tolerates slow shared CI runners while still
 * failing on an O(N^2)-class regression.
 */
std::vector<serve::Request>
LongSmokeTrace(int requests)
{
    serve::WorkloadSpec spec;
    spec.name = "long-smoke";
    spec.prefill_mean = 768.0;
    spec.prefill_stddev = 512.0;
    spec.prefill_min = 64;
    spec.prefill_max = 4096;
    spec.decode_mean = 48.0;
    spec.decode_stddev = 32.0;
    spec.decode_min = 4;
    spec.decode_max = 256;
    Rng rng(kSeed);
    return serve::GenerateTrace(spec, requests, 0.0, rng);
}

/** One timed long-smoke fleet run; prints its summary lines. */
double
TimedLongRun(const std::vector<serve::Request>& trace, int replicas,
             int threads, ClusterMetricsReport* report_out)
{
    auto t0 = std::chrono::steady_clock::now();
    ClusterMetricsReport report =
        RunFleet(trace, replicas, "least-kv", threads);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    std::printf("  [%d thread%s] %d requests in %ld fleet iterations, "
                "makespan %.1f s (sim), wall clock %.1f s\n",
                threads, threads == 1 ? "" : "s",
                report.fleet.num_requests, report.fleet.iterations,
                report.fleet.makespan, elapsed);
    if (report_out != nullptr) *report_out = std::move(report);
    return elapsed;
}

/** Bit-exact equality on the fleet-report fields the pins compare. */
bool
ReportsBitIdentical(const ClusterMetricsReport& a,
                    const ClusterMetricsReport& b)
{
    return a.fleet.makespan == b.fleet.makespan &&
           a.fleet.iterations == b.fleet.iterations &&
           a.fleet.RequestsPerMinute() == b.fleet.RequestsPerMinute() &&
           a.fleet.ttft.Sum() == b.fleet.ttft.Sum() &&
           a.fleet.tbt.Sum() == b.fleet.tbt.Sum();
}

/** Pool barrier-wait share of total thread residency in `profile`. */
double
BarrierWaitFraction(const telemetry::ClusterProfile& profile)
{
    double busy = 0.0;
    double wait = 0.0;
    for (const auto& t : profile.threads) {
        busy += t.busy;
        wait += t.barrier_wait;
    }
    double total = busy + wait;
    return total > 0.0 ? wait / total : 0.0;
}

struct HetRun
{
    ClusterMetricsReport report;
    telemetry::ClusterProfile profile;
};

HetRun
RunHetFleet(const std::vector<serve::Request>& trace,
            const std::vector<int>& weights, int threads)
{
    // Mixed fleet: even replicas H100, odd A6000, so equal token
    // streams already advance at unequal speeds before the router
    // skew piles on (hot replica 7 is an A6000).
    ClusterConfig fleet = ClusterConfig::Homogeneous(
        ReplicaConfig(), static_cast<int>(weights.size()));
    for (size_t r = 0; r < fleet.replicas.size(); ++r) {
        fleet.replicas[r].gpu = r % 2 == 0
                                    ? gpusim::GpuSpec::H100Sxm80GB()
                                    : gpusim::GpuSpec::RtxA6000();
    }
    ClusterEngine cluster(fleet, Sarathi(),
                          std::make_unique<SkewedRouter>(weights),
                          threads);
    cluster.EnableProfiling(true);
    HetRun out;
    out.report = cluster.Run(trace);
    out.profile = cluster.Profile();
    return out;
}

/**
 * The heterogeneous advance pin (docs/EXPERIMENTS.md): an offline
 * drain of a mixed H100/A6000 fleet under the skewed router is one
 * long advance window with genuinely uneven per-replica work — the
 * workload longest-first dispatch exists for. The N-thread run must
 * be bit-identical to the serial oracle; its advance-phase seconds
 * and barrier-wait fraction are reported, not gated. Writes the
 * registry dump for --json-out: the N-thread profile plus the pin
 * gauges, which is what the CI bench-trajectory artifact tracks.
 */
int
RunHeterogeneousPin(int threads, const TelemetryOptions& telemetry)
{
    constexpr int kRequests = 200'000;
    const std::vector<int> weights = {2, 2, 2, 2, 1, 1, 2, 4};
    auto trace = LongSmokeTrace(kRequests);
    std::printf("Heterogeneous advance pin: %d requests, %zu replicas "
                "(H100/A6000 alternating), skewed-wrr router\n",
                kRequests, weights.size());

    HetRun oracle = RunHetFleet(trace, weights, 1);
    HetRun run = RunHetFleet(trace, weights, threads);
    if (!ReportsBitIdentical(oracle.report, run.report)) {
        std::printf("FAIL: heterogeneous pin diverged from the serial "
                    "oracle -- determinism regression\n");
        return 1;
    }
    const double frac = BarrierWaitFraction(run.profile);
    std::printf("  [%d threads] bit-identical to the serial oracle; "
                "advance %.2f s, barrier-wait fraction %.1f%%\n",
                threads, run.profile.advance.seconds, 100.0 * frac);

    if (!telemetry.json_out.empty()) {
        telemetry::MetricRegistry registry;
        FillRegistry(run.report, registry);
        run.profile.FillRegistry(registry, "profile.");
        registry.SetGauge("pin.advance_seconds",
                          run.profile.advance.seconds);
        registry.SetGauge("pin.barrier_wait_fraction", frac);
        registry.SetGauge("profile.peak_rss_mb", PeakRssMb());
        WriteMetricsFile(telemetry, registry);
    }
    return 0;
}

int
RunLongSmoke(int threads, const TelemetryOptions& telemetry)
{
    constexpr int kRequests = 1'000'000;
    constexpr double kBudgetSeconds = 60.0;
    constexpr double kRssBudgetMb = 1024.0;
    // Serial pin: 2 replicas. Parallel pin: 8 replicas, where a
    // 4-thread advance phase has enough independent replica work to
    // show its >= 2x.
    const int replicas = threads > 1 ? 8 : 2;

    auto trace = LongSmokeTrace(kRequests);
    std::printf("Long-trace smoke: %d requests, %d replicas, least-kv "
                "router, budget %.0f s\n",
                kRequests, replicas, kBudgetSeconds);

    ClusterMetricsReport report;
    double elapsed = TimedLongRun(trace, replicas, 1, &report);
    std::printf("  attn memo cache: %ld entries, %.1f%% hit rate "
                "(%ld hits / %ld misses)\n",
                report.attn_cache_entries,
                100.0 * report.AttnCacheHitRate(),
                report.attn_cache_hits, report.attn_cache_misses);

    if (threads > 1) {
        // The parallel pin proper: same fleet, same trace, N-thread
        // advance phase. Bit-identity first — a fast parallel run
        // that computes something else is a failure, not a speedup.
        ClusterMetricsReport parallel;
        double parallel_elapsed =
            TimedLongRun(trace, replicas, threads, &parallel);
        if (!ReportsBitIdentical(parallel, report)) {
            std::printf("FAIL: parallel long-smoke diverged from the "
                        "serial oracle -- determinism regression\n");
            return 1;
        }
        std::printf("  parallel report bit-identical to serial\n");
        double speedup = elapsed / parallel_elapsed;
        std::printf("  speedup: %.2fx at %d replicas / %d threads\n",
                    speedup, replicas, threads);
        unsigned hw = std::thread::hardware_concurrency();
        if (threads >= 4 && hw >= static_cast<unsigned>(threads)) {
            if (speedup < 2.0) {
                std::printf("FAIL: parallel advance phase below 2x "
                            "on %u-thread hardware -- scaling "
                            "regression\n",
                            hw);
                return 1;
            }
        } else {
            std::printf("  (speedup threshold skipped: %u hardware "
                        "threads for %d requested)\n",
                        hw, threads);
        }
        elapsed = parallel_elapsed;

        int het_rc = RunHeterogeneousPin(threads, telemetry);
        if (het_rc != 0) return het_rc;
    }

    std::printf("  wall clock: %.1f s (budget %.0f s)\n", elapsed,
                kBudgetSeconds);
    if (elapsed > kBudgetSeconds) {
        std::printf("FAIL: long-trace smoke exceeded its wall-clock "
                    "budget -- the O(active) cluster loop has "
                    "regressed\n");
        return 1;
    }
    const double rss_mb = PeakRssMb();
    if (threads > 1) {
        std::printf("  peak RSS: %.0f MB\n", rss_mb);
    } else {
        std::printf("  peak RSS: %.0f MB (budget %.0f MB)\n", rss_mb,
                    kRssBudgetMb);
        if (rss_mb > kRssBudgetMb) {
            std::printf("FAIL: long-trace smoke exceeded its memory "
                        "budget -- per-token storage has crept back "
                        "into the serve loop\n");
            return 1;
        }
    }
    std::printf("PASS\n");
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    TelemetryOptions telemetry = StripTelemetryFlags(argc, argv);
    bool smoke = false;
    bool long_smoke = false;
    int threads = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--long-smoke") == 0) {
            long_smoke = true;
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            threads = ThreadPool::ResolveThreads(std::atoi(argv[++i]));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke | --long-smoke] "
                         "[--threads N] [--json-out PATH] "
                         "[--trace-out PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    if (long_smoke) {
        Header("cluster_scaling --long-smoke",
               threads > 1
                   ? "1M-request pin for the parallel cluster "
                     "engine: bit-identity and scaling vs the serial "
                     "oracle"
                   : "1M-request complexity pin for the O(active) "
                     "serving/cluster loops");
        int rc = RunLongSmoke(threads, telemetry);
        // In the parallel case the heterogeneous pin owns the
        // registry dump (its profile + the pin gauges beat the
        // generic 2-replica instrumented run as a trajectory
        // artifact); the Chrome trace still comes from EmitTelemetry.
        TelemetryOptions secondary = telemetry;
        if (threads > 1) secondary.json_out.clear();
        EmitTelemetry(secondary, threads);
        return rc;
    }

    Header("cluster_scaling",
           "fleet throughput and routing-policy comparison across "
           "data-parallel replicas");
    if (threads > 1) {
        std::printf("(parallel cluster engine, %d threads — results "
                    "are bit-identical to serial)\n\n",
                    threads);
    }

    std::vector<int> replica_counts =
        smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    std::vector<std::string> routers =
        smoke ? std::vector<std::string>{"round-robin", "least-kv"}
              : RouterNames();
    // Enough requests that even an 8-replica fleet keeps a deep
    // per-replica queue: fleet makespan is prefill-throughput work
    // (which replicates) plus the longest sequential decode chain
    // (which does not), so the request count must keep the first
    // term dominant for the sweep to expose the scaling.
    int offline_requests = smoke ? 8 : Scaled(256);

    std::vector<serve::WorkloadSpec> workloads = {
        serve::WorkloadSpec::Internal()};
    if (!smoke) workloads.push_back(serve::WorkloadSpec::Arxiv());

    // ---- Part 1: offline saturation scaling sweep ----
    // rpm[workload][replicas][router]
    std::map<std::string, std::map<int, std::map<std::string, double>>>
        rpm;
    for (const auto& spec : workloads) {
        Rng rng(kSeed);
        auto trace =
            serve::GenerateTrace(spec, offline_requests, 0.0, rng);
        std::printf("Offline scaling sweep, %s workload (%d requests, "
                    "Llama-3-8B TP-2, Sarathi+POD chunk %d):\n\n",
                    spec.name.c_str(), offline_requests, kChunk);
        Table table({"replicas", "router", "req/min", "TTFT P50 (s)",
                     "TTFT P99 (s)", "TBT P99 (ms)", "req CV", "tok CV",
                     "KV mean", "KV peak"});
        for (int replicas : replica_counts) {
            for (const auto& router : routers) {
                // With one replica every router is the identity;
                // simulate once and reuse the report.
                if (replicas == 1 && router != routers.front()) {
                    rpm[spec.name][1][router] =
                        rpm[spec.name][1][routers.front()];
                    continue;
                }
                ClusterMetricsReport report =
                    RunFleet(trace, replicas, router, threads);
                report.workload = spec.name;
                rpm[spec.name][replicas][router] =
                    report.fleet.RequestsPerMinute();
                AddReportRow(table, replicas, report);
            }
        }
        table.Print(std::cout);
        std::printf("\n");
    }

    if (!smoke) {
        for (const auto& spec : workloads) {
            double base = rpm[spec.name][1]["round-robin"];
            double four = rpm[spec.name][4]["round-robin"];
            std::printf("Fleet speedup at 4 replicas vs 1 (%s, "
                        "round-robin): %.2fx\n",
                        spec.name.c_str(), four / base);
        }
        std::printf("\n");
    }

    // ---- Part 2: bursty near-capacity routing comparison ----
    {
        serve::WorkloadSpec spec = serve::WorkloadSpec::Internal();
        int fleet_size = smoke ? 2 : 4;
        int bursty_requests = smoke ? 10 : Scaled(64);
        // Offered load: 20% above the fleet's estimated capacity, so
        // queues build and the routing decision shows in the tail.
        double capacity_qps = rpm[spec.name][1]["round-robin"] / 60.0;
        double qps = capacity_qps * fleet_size * 1.2;

        Rng rng(kSeed + 1);
        auto trace =
            serve::GenerateTrace(spec, bursty_requests, qps, rng);
        std::printf("Bursty online run, %s workload (%d requests at "
                    "%.2f QPS ~ 1.2x fleet capacity, %d replicas):\n\n",
                    spec.name.c_str(), bursty_requests, qps, fleet_size);

        Table table({"replicas", "router", "req/min", "TTFT P50 (s)",
                     "TTFT P99 (s)", "TBT P99 (ms)", "req CV", "tok CV",
                     "KV mean", "KV peak"});
        std::map<std::string, double> p99_ttft;
        for (const auto& router : routers) {
            ClusterMetricsReport report =
                RunFleet(trace, fleet_size, router, threads);
            report.workload = spec.name;
            p99_ttft[router] = report.fleet.ttft.Percentile(99);
            AddReportRow(table, fleet_size, report);
        }
        table.Print(std::cout);
        std::printf("\nBursty P99 TTFT: least-kv %.2f s vs round-robin "
                    "%.2f s (%.2fx)\n",
                    p99_ttft["least-kv"], p99_ttft["round-robin"],
                    p99_ttft["least-kv"] / p99_ttft["round-robin"]);
    }

    EmitTelemetry(telemetry, threads);
    return 0;
}
