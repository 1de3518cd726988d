/**
 * @file
 * Randomized analytic/oracle equivalence stress for the fluid engine.
 *
 * ~40 seeded random workloads (kernel count, stream layout, CTA
 * counts, phase shapes, warp counts, per-unit bandwidth caps,
 * residency limits, SM-aware assignment, persistent refill, launch
 * overhead) each run through the closed-form analytic core and the
 * stepwise ExactOracle core, then compared:
 *
 *  - every discrete field bit-exactly (CTA counts, per-op unit
 *    counts): the cores share all placement/dispatch/refill
 *    decisions, so any integer divergence is a bug, not drift;
 *  - every continuous field within a documented tolerance band.
 *
 * Tolerance bands (justified in docs/DESIGN.md S3.2). The analytic
 * core freezes each paced unit's average drain rate between the
 * events that touch its SM; the oracle re-derives the instantaneous
 * pacing cap at every global event, so the oracle's own trajectory
 * depends on its event density — it is not the continuum limit, and
 * no o(N)-per-event core can track it exactly. The bands below cover
 * exactly that relaxation and nothing else: forcing the analytic core
 * to recompute every SM at every event (matching the oracle's
 * refresh density) collapses every field in this suite to ~1e-14,
 * which pins all remaining drift on the documented rate freeze, not
 * on the shared discrete machinery.
 *
 *  - kWorkBand = 1e-9 on per-op served work (flops/bytes): the
 *    average-rate freeze changes when work is served, never how much;
 *    conservation is exact by construction (measured max 2.9e-14,
 *    band is pure float headroom).
 *  - kAggBand = 8e-2 on aggregate times, utilizations, energy and
 *    per-op busy/finish times: measured max across this adversarial
 *    sweep is 5.1e-2 (kernel end times), with most workloads under
 *    1e-3; serving-shaped workloads (dense event streams) sit near
 *    the oracle and reuse a 1e-3 band in the serve/cluster suites.
 *  - kCtaBand = 4e-1 on per-CTA completion times: order statistics.
 *    A completion shifted by the rate freeze can cross an occupancy
 *    boundary and re-time an entire later dispatch wave, so per-unit
 *    drift is chaotically amplified (measured max 2.6e-1 element-wise
 *    AND on the sorted distribution) while every aggregate above
 *    stays tight.
 *  - kAbsFloor = 1e-12 s absolute: times below a picosecond are
 *    dominated by representation noise, not model drift.
 *
 * Every workload is generated from common/rng.h with a fixed suite
 * seed, and the full configuration is attached to the assertion scope
 * so a mismatch log line reproduces the failing case standalone.
 */
#include "gpusim/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"

namespace pod::gpusim {
namespace {

constexpr uint64_t kSuiteSeed = 0xAB5010'2026ull;
constexpr int kNumWorkloads = 40;

constexpr double kWorkBand = 1e-9;
constexpr double kAggBand = 8e-2;
constexpr double kCtaBand = 4e-1;
constexpr double kAbsFloor = 1e-12;

double
Band(double oracle_value, double rel_band)
{
    double mag = oracle_value < 0.0 ? -oracle_value : oracle_value;
    return kAbsFloor + mag * rel_band;
}

struct WorkloadConfig
{
    uint64_t sim_seed = 1;
    int gpu_pick = 0;  // 0=A100, 1=H100, 2=A6000
    double launch_overhead = 0.0;
    int num_kernels = 1;
    int num_streams = 1;
    bool use_refill = false;

    std::string
    Describe() const
    {
        std::ostringstream os;
        os << "sim_seed=" << sim_seed << " gpu=" << gpu_pick
           << " launch_overhead=" << launch_overhead
           << " kernels=" << num_kernels << " streams=" << num_streams
           << " refill=" << use_refill;
        return os.str();
    }
};

WorkloadConfig
DrawConfig(Rng& rng)
{
    WorkloadConfig c;
    c.sim_seed = static_cast<uint64_t>(rng.UniformInt(1, 1ll << 40));
    c.gpu_pick = static_cast<int>(rng.UniformInt(0, 2));
    // Draws with no use left (they picked the removed placement
    // jitter), kept so every workload keeps the fields it was drawn
    // with.
    if (rng.Bernoulli(0.5)) rng.UniformReal(0.05, 0.35);
    c.launch_overhead = rng.Bernoulli(0.5) ? 3e-6 : 0.0;
    c.num_kernels = static_cast<int>(rng.UniformInt(1, 5));
    c.num_streams = static_cast<int>(rng.UniformInt(1, 3));
    c.use_refill = rng.Bernoulli(0.3);
    return c;
}

GpuSpec
PickGpu(int pick)
{
    switch (pick) {
        case 1: return GpuSpec::H100Sxm80GB();
        case 2: return GpuSpec::RtxA6000();
        default: return GpuSpec::A100Sxm80GB();
    }
}

WorkUnit
DrawUnit(Rng& rng)
{
    WorkUnit u;
    u.op = static_cast<OpClass>(rng.UniformInt(0, kNumOpClasses - 1));
    u.warps = static_cast<int>(rng.UniformInt(2, 12));
    if (rng.Bernoulli(0.25)) {
        u.mem_bw_cap = rng.UniformReal(20e9, 120e9);
    }
    int phases = static_cast<int>(rng.UniformInt(1, 3));
    for (int p = 0; p < phases; ++p) {
        Phase ph;
        // Mix compute-bound, memory-bound and balanced phases so both
        // the pacing cap and the undersubscribed shortcut see work.
        double kind = rng.UniformReal(0.0, 1.0);
        if (kind < 0.4) {
            ph.tensor_flops = rng.UniformReal(1e8, 4e9);
            ph.cuda_flops = rng.UniformReal(1e7, 4e8);
            ph.mem_bytes = rng.UniformReal(1e5, 8e6);
        } else if (kind < 0.7) {
            ph.cuda_flops = rng.UniformReal(1e6, 1e8);
            ph.mem_bytes = rng.UniformReal(4e6, 6e7);
        } else {
            ph.tensor_flops = rng.UniformReal(1e8, 1e9);
            ph.cuda_flops = rng.UniformReal(1e7, 1e8);
            ph.mem_bytes = rng.UniformReal(1e6, 2e7);
        }
        u.phases.push_back(ph);
    }
    return u;
}

/**
 * Builds the launch set for a config. Called once per engine run so
 * stateful refill closures never leak state across the two cores; the
 * same (config, kSuiteSeed-derived) RNG stream makes both builds
 * identical.
 */
std::vector<KernelLaunch>
BuildLaunches(const WorkloadConfig& c)
{
    Rng rng(c.sim_seed ^ 0x9E3779B97F4A7C15ull);
    std::vector<KernelLaunch> launches;
    for (int k = 0; k < c.num_kernels; ++k) {
        // Refill kernels are homogeneous (single op class, fixed
        // refill shape): lane completion order is not identical
        // across cores inside the tolerance band, so order-sensitive
        // draws or mixed-op lanes would turn timing drift into
        // work-assignment divergence — a test artifact, not an
        // engine property.
        bool refill_kernel = c.use_refill && k == 0;
        OpClass kernel_op = static_cast<OpClass>(
            rng.UniformInt(0, kNumOpClasses - 1));
        int cta_count = static_cast<int>(rng.UniformInt(4, 160));
        std::vector<CtaWork> works;
        for (int i = 0; i < cta_count; ++i) {
            CtaWork w;
            int units = rng.Bernoulli(0.2)
                            ? static_cast<int>(rng.UniformInt(2, 3))
                            : 1;
            for (int u = 0; u < units; ++u) {
                w.units.push_back(DrawUnit(rng));
                if (refill_kernel) w.units.back().op = kernel_op;
            }
            works.push_back(std::move(w));
        }
        CtaResources res;
        res.threads = static_cast<int>(64 * rng.UniformInt(1, 4));
        res.shared_mem_bytes = 1024.0 * rng.UniformInt(0, 48);
        KernelDesc kd = KernelDesc::FromWorks(
            "rand_" + std::to_string(k), res, std::move(works));
        if (rng.Bernoulli(0.3)) {
            kd.max_ctas_per_sm = static_cast<int>(rng.UniformInt(1, 4));
        }
        if (refill_kernel) {
            // Persistent-lane refill: completed lanes pull up to
            // budget extra items. The budget counter lives in the
            // closure, so a fresh BuildLaunches gives each engine run
            // its own.
            auto budget = std::make_shared<int>(
                static_cast<int>(rng.UniformInt(8, 64)));
            auto item = std::make_shared<WorkUnit>(DrawUnit(rng));
            item->op = kernel_op;
            kd.refill = [budget, item](int /*sm_id*/, OpClass lane_op,
                                       WorkUnit* next) {
                if (*budget <= 0) return false;
                --*budget;
                *next = *item;
                next->op = lane_op;
                return true;
            };
        }
        int stream = static_cast<int>(
            rng.UniformInt(0, c.num_streams - 1));
        launches.push_back(KernelLaunch{std::move(kd), stream});
    }
    return launches;
}

SimResult
RunCore(const WorkloadConfig& c, EngineCore core)
{
    SimOptions opt;
    opt.kernel_launch_overhead = c.launch_overhead;
    opt.record_cta_times = true;
    opt.core = core;
    FluidEngine engine(PickGpu(c.gpu_pick), opt);
    return engine.Run(BuildLaunches(c));
}

void
ExpectResultsWithinBands(const SimResult& a, const SimResult& o)
{
    // Discrete trajectory: bit-exact.
    EXPECT_EQ(a.total_ctas, o.total_ctas);
    ASSERT_EQ(a.kernels.size(), o.kernels.size());
    for (int op = 0; op < kNumOpClasses; ++op) {
        EXPECT_EQ(a.per_op[op].unit_count, o.per_op[op].unit_count)
            << "op " << op;
    }

    // Counter discipline: the analytic core must run heap-driven with
    // no defensive full-rescan fallbacks; the oracle is all fallback.
    EXPECT_GT(a.analytic_fastpath_events, 0);
    EXPECT_EQ(a.oracle_fallback_events, 0);
    EXPECT_EQ(o.analytic_fastpath_events, 0);
    EXPECT_GT(o.oracle_fallback_events, 0);

    // Served work: conserved exactly (kWorkBand is float headroom).
    for (int op = 0; op < kNumOpClasses; ++op) {
        const OpStats& ao = a.per_op[op];
        const OpStats& oo = o.per_op[op];
        EXPECT_NEAR(ao.tensor_flops, oo.tensor_flops,
                    Band(oo.tensor_flops, kWorkBand))
            << "op " << op;
        EXPECT_NEAR(ao.cuda_flops, oo.cuda_flops,
                    Band(oo.cuda_flops, kWorkBand))
            << "op " << op;
        EXPECT_NEAR(ao.mem_bytes, oo.mem_bytes,
                    Band(oo.mem_bytes, kWorkBand))
            << "op " << op;
    }

    // Aggregate trajectory: banded by the pacing relaxation.
    EXPECT_NEAR(a.total_time, o.total_time,
                Band(o.total_time, kAggBand));
    for (size_t k = 0; k < o.kernels.size(); ++k) {
        EXPECT_NEAR(a.kernels[k].start_time, o.kernels[k].start_time,
                    Band(o.kernels[k].start_time, kAggBand))
            << "kernel " << k;
        EXPECT_NEAR(a.kernels[k].end_time, o.kernels[k].end_time,
                    Band(o.kernels[k].end_time, kAggBand))
            << "kernel " << k;
    }
    EXPECT_NEAR(a.tensor_util, o.tensor_util,
                Band(o.tensor_util, kAggBand));
    EXPECT_NEAR(a.cuda_util, o.cuda_util, Band(o.cuda_util, kAggBand));
    EXPECT_NEAR(a.mem_util, o.mem_util, Band(o.mem_util, kAggBand));
    EXPECT_NEAR(a.energy_joules, o.energy_joules,
                Band(o.energy_joules, kAggBand));
    for (int op = 0; op < kNumOpClasses; ++op) {
        const OpStats& ao = a.per_op[op];
        const OpStats& oo = o.per_op[op];
        EXPECT_NEAR(ao.busy_time, oo.busy_time,
                    Band(oo.busy_time, kAggBand))
            << "op " << op;
        EXPECT_NEAR(ao.finish_time, oo.finish_time,
                    Band(oo.finish_time, kAggBand))
            << "op " << op;
    }

    // Per-unit (per-CTA) completion times: the cores dispatch CTAs in
    // the same order, so completion vectors correspond index-by-index.
    // Wide band: per-unit order statistics, chaotically amplified (see
    // file header).
    ASSERT_EQ(a.cta_finish_times.size(), o.cta_finish_times.size());
    int reported = 0;
    for (size_t i = 0; i < o.cta_finish_times.size(); ++i) {
        double diff = a.cta_finish_times[i] - o.cta_finish_times[i];
        if (diff < 0.0) diff = -diff;
        if (diff <= Band(o.cta_finish_times[i], kCtaBand)) continue;
        EXPECT_NEAR(a.cta_finish_times[i], o.cta_finish_times[i],
                    Band(o.cta_finish_times[i], kCtaBand))
            << "cta " << i;
        if (++reported >= 5) break;  // cap log flood on systematic drift
    }
}

TEST(AnalyticOracleTest, RandomWorkloadsAgreeWithinBands)
{
    Rng rng(kSuiteSeed);
    for (int i = 0; i < kNumWorkloads; ++i) {
        WorkloadConfig c = DrawConfig(rng);
        SCOPED_TRACE("workload " + std::to_string(i) + ": " +
                     c.Describe());
        SimResult a = RunCore(c, EngineCore::kAnalytic);
        SimResult o = RunCore(c, EngineCore::kExactOracle);
        ExpectResultsWithinBands(a, o);
        if (HasFatalFailure()) return;
    }
}

}  // namespace
}  // namespace pod::gpusim
