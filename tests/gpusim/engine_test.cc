/**
 * @file
 * Unit tests for the fluid GPU execution engine: exact timings on the
 * deterministic test GPU, occupancy limits, wave quantization,
 * streams, stragglers and resource contention.
 */
#include "gpusim/engine.h"

#include <gtest/gtest.h>

#include "gpusim/gpu_spec.h"

namespace pod::gpusim {
namespace {

/** A convenient zero-overhead option set for exact-time tests. */
SimOptions
NoOverhead()
{
    SimOptions opts;
    opts.kernel_launch_overhead = 0.0;
    return opts;
}

/** Build a single-unit CTA with one phase. */
CtaWork
SimpleCta(double tensor, double cuda, double mem, int warps = 4,
          OpClass op = OpClass::kOther)
{
    WorkUnit unit;
    unit.phases.push_back(Phase{tensor, cuda, mem});
    unit.warps = warps;
    unit.op = op;
    CtaWork work;
    work.units.push_back(unit);
    return work;
}

KernelDesc
OneCtaKernel(double tensor, double cuda, double mem, int warps = 4)
{
    CtaResources res;
    res.threads = warps * 32;
    res.shared_mem_bytes = 0.0;
    return KernelDesc::FromWorks("k", res,
                                 {SimpleCta(tensor, cuda, mem, warps)});
}

TEST(FluidEngine, SingleComputeCtaExactTime)
{
    // Test GPU: 1e12 tensor FLOP/s per SM, 4 warps saturate.
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result = engine.RunKernel(OneCtaKernel(1e9, 0.0, 0.0));
    EXPECT_NEAR(result.total_time, 1e-3, 1e-9);
    EXPECT_EQ(result.total_ctas, 1);
}

TEST(FluidEngine, SingleMemoryCtaLimitedByWarpCap)
{
    // 4 warps x 4 GB/s per warp = 16 GB/s for one CTA.
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result = engine.RunKernel(OneCtaKernel(0.0, 0.0, 16e6));
    EXPECT_NEAR(result.total_time, 1e-3, 1e-9);
}

TEST(FluidEngine, SingleWarpUnitHasQuarterBandwidth)
{
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result =
        engine.RunKernel(OneCtaKernel(0.0, 0.0, 16e6, /*warps=*/1));
    EXPECT_NEAR(result.total_time, 4e-3, 1e-9);
}

TEST(FluidEngine, ComputeAndMemoryOverlapWithinPhase)
{
    // 1e9 tensor FLOPs (1 ms) and 8e6 bytes (0.5 ms at 16 GB/s)
    // proceed concurrently: total is max, not sum.
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result = engine.RunKernel(OneCtaKernel(1e9, 0.0, 8e6));
    EXPECT_NEAR(result.total_time, 1e-3, 1e-9);
}

TEST(FluidEngine, PhasesSerializeWithinUnit)
{
    WorkUnit unit;
    unit.phases.push_back(Phase{1e9, 0.0, 0.0});   // 1 ms compute
    unit.phases.push_back(Phase{0.0, 0.0, 16e6});  // 1 ms memory
    unit.warps = 4;
    CtaWork work;
    work.units.push_back(unit);
    KernelDesc kernel = KernelDesc::FromWorks("k", CtaResources{128, 0.0},
                                              {work});
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    // Barrier between phases: no overlap across them.
    EXPECT_NEAR(result.total_time, 2e-3, 1e-9);
}

TEST(FluidEngine, TwoUnitsInOneCtaProgressIndependently)
{
    // HFuse-style CTA: one compute unit (1 ms) + one memory unit
    // (0.5 ms). Both run concurrently; CTA retires at 1 ms.
    WorkUnit compute;
    compute.phases.push_back(Phase{1e9, 0.0, 0.0});
    compute.warps = 4;
    WorkUnit memory;
    memory.phases.push_back(Phase{0.0, 0.0, 8e6});
    memory.warps = 4;
    CtaWork work;
    work.units.push_back(compute);
    work.units.push_back(memory);
    KernelDesc kernel = KernelDesc::FromWorks("k", CtaResources{256, 0.0},
                                              {work});
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    EXPECT_NEAR(result.total_time, 1e-3, 1e-9);
}

TEST(FluidEngine, TensorSharingOnOneSm)
{
    // Two 4-warp compute CTAs forced onto one SM (8-SM GPU, 16 CTAs
    // would spread; instead use max_ctas_per_sm trick with a 1-SM GPU).
    GpuSpec spec = GpuSpec::TestGpu8Sm();
    spec.num_sms = 1;
    std::vector<CtaWork> works = {SimpleCta(1e9, 0.0, 0.0),
                                  SimpleCta(1e9, 0.0, 0.0)};
    KernelDesc kernel =
        KernelDesc::FromWorks("k", CtaResources{128, 0.0}, works);
    FluidEngine engine(spec, NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    // Both CTAs can each use the full SM (4 warps saturate) but must
    // share: 2e9 FLOPs at 1e12 FLOP/s -> 2 ms.
    EXPECT_NEAR(result.total_time, 2e-3, 1e-9);
}

TEST(FluidEngine, WaveQuantization)
{
    // 8 SMs, 1 CTA per SM by thread occupancy (1024 threads each).
    // 8 CTAs -> one wave (1 ms); 9 CTAs -> two waves (2 ms).
    GpuSpec spec = GpuSpec::TestGpu8Sm();
    auto make = [&](int n) {
        std::vector<CtaWork> works;
        for (int i = 0; i < n; ++i) {
            works.push_back(SimpleCta(1e9, 0.0, 0.0));
        }
        return KernelDesc::FromWorks("k", CtaResources{1024, 0.0},
                                     std::move(works));
    };
    FluidEngine engine(spec, NoOverhead());
    EXPECT_NEAR(engine.RunKernel(make(8)).total_time, 1e-3, 1e-9);
    EXPECT_NEAR(engine.RunKernel(make(9)).total_time, 2e-3, 1e-9);
}

TEST(FluidEngine, GlobalBandwidthSaturation)
{
    // 8 SMs x 2 CTAs x 16 GB/s per-CTA want = 256 GB/s want, but the
    // SM cap (16 GB/s) binds per SM -> 8 x 16 = 128 GB/s want, then
    // the global cap 64 GB/s halves it. 16 CTAs x 16e6 B = 256e6 B
    // at 64 GB/s -> 4 ms.
    GpuSpec spec = GpuSpec::TestGpu8Sm();
    std::vector<CtaWork> works;
    for (int i = 0; i < 16; ++i) {
        works.push_back(SimpleCta(0.0, 0.0, 16e6));
    }
    KernelDesc kernel =
        KernelDesc::FromWorks("k", CtaResources{128, 0.0}, works);
    FluidEngine engine(spec, NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    EXPECT_NEAR(result.total_time, 4e-3, 1e-9);
    EXPECT_NEAR(result.mem_util, 1.0, 1e-6);
}

TEST(FluidEngine, StreamsSerializeWithinStream)
{
    KernelDesc a = OneCtaKernel(1e9, 0.0, 0.0);
    KernelDesc b = OneCtaKernel(1e9, 0.0, 0.0);
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result =
        engine.Run({KernelLaunch{a, 0}, KernelLaunch{b, 0}});
    EXPECT_NEAR(result.total_time, 2e-3, 1e-9);
    EXPECT_NEAR(result.kernels[1].start_time, 1e-3, 1e-9);
}

TEST(FluidEngine, DifferentStreamsOverlap)
{
    // Compute-only kernel and memory-only kernel on different streams
    // overlap nearly perfectly on an idle GPU.
    KernelDesc a = OneCtaKernel(1e9, 0.0, 0.0);
    KernelDesc b = OneCtaKernel(0.0, 0.0, 16e6);
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result =
        engine.Run({KernelLaunch{a, 0}, KernelLaunch{b, 1}});
    EXPECT_NEAR(result.total_time, 1e-3, 1e-9);
}

TEST(FluidEngine, SharedMemoryLimitsOccupancy)
{
    // Each CTA needs 64 KiB of the 128 KiB SM -> 2 CTAs per SM.
    // 1-SM GPU, 4 CTAs of 1 ms each -> 2 waves -> 2 ms.
    GpuSpec spec = GpuSpec::TestGpu8Sm();
    spec.num_sms = 1;
    std::vector<CtaWork> works;
    for (int i = 0; i < 4; ++i) {
        // Use 1-warp units so two resident CTAs don't contend (each
        // can draw at most 1/4 of the SM's tensor throughput).
        works.push_back(SimpleCta(0.25e9, 0.0, 0.0, /*warps=*/1));
    }
    KernelDesc kernel = KernelDesc::FromWorks(
        "k", CtaResources{32, 64.0 * 1024.0}, std::move(works));
    FluidEngine engine(spec, NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    EXPECT_NEAR(result.total_time, 2e-3, 1e-9);
}

TEST(FluidEngine, MaxCtasPerSmKernelLimit)
{
    GpuSpec spec = GpuSpec::TestGpu8Sm();
    spec.num_sms = 1;
    std::vector<CtaWork> works;
    for (int i = 0; i < 2; ++i) {
        works.push_back(SimpleCta(0.25e9, 0.0, 0.0, /*warps=*/1));
    }
    KernelDesc kernel =
        KernelDesc::FromWorks("k", CtaResources{32, 0.0}, std::move(works));
    kernel.max_ctas_per_sm = 1;
    FluidEngine engine(spec, NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    // Serialized by the kernel's own CTA/SM limit.
    EXPECT_NEAR(result.total_time, 2e-3, 1e-9);
}

TEST(FluidEngine, SmAwareAssignSeesSmId)
{
    // The assign callback must receive the SM the CTA landed on.
    GpuSpec spec = GpuSpec::TestGpu8Sm();
    std::vector<int> seen_sms;
    KernelDesc kernel;
    kernel.name = "dynamic";
    kernel.resources = CtaResources{1024, 0.0};
    kernel.cta_count = 8;
    kernel.assign = [&seen_sms](int /*idx*/, int sm_id) {
        seen_sms.push_back(sm_id);
        return SimpleCta(1e6, 0.0, 0.0);
    };
    FluidEngine engine(spec, NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    EXPECT_EQ(result.total_ctas, 8);
    ASSERT_EQ(seen_sms.size(), 8u);
    // 1024-thread CTAs: exactly one per SM, so all SMs distinct.
    std::sort(seen_sms.begin(), seen_sms.end());
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(seen_sms[static_cast<size_t>(i)], i);
    }
}

TEST(FluidEngine, PerOpAccounting)
{
    std::vector<CtaWork> works = {
        SimpleCta(1e9, 0.0, 0.0, 4, OpClass::kPrefill),
        SimpleCta(0.0, 0.0, 16e6, 4, OpClass::kDecode),
    };
    KernelDesc kernel =
        KernelDesc::FromWorks("k", CtaResources{128, 0.0}, works);
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    EXPECT_NEAR(result.Op(OpClass::kPrefill).tensor_flops, 1e9, 1.0);
    EXPECT_NEAR(result.Op(OpClass::kDecode).mem_bytes, 16e6, 1.0);
    EXPECT_EQ(result.Op(OpClass::kPrefill).unit_count, 1);
    EXPECT_EQ(result.Op(OpClass::kDecode).unit_count, 1);
    EXPECT_GT(result.Op(OpClass::kPrefill).finish_time, 0.0);
}

TEST(FluidEngine, UtilizationBounds)
{
    std::vector<CtaWork> works;
    for (int i = 0; i < 32; ++i) {
        works.push_back(SimpleCta(1e8, 1e6, 1e6));
    }
    KernelDesc kernel =
        KernelDesc::FromWorks("k", CtaResources{128, 0.0}, works);
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    EXPECT_GT(result.tensor_util, 0.0);
    EXPECT_LE(result.tensor_util, 1.0 + 1e-9);
    EXPECT_GT(result.mem_util, 0.0);
    EXPECT_LE(result.mem_util, 1.0 + 1e-9);
    EXPECT_GT(result.energy_joules, 0.0);
}

TEST(FluidEngine, LaunchOverheadDelaysExecution)
{
    SimOptions opts;
    opts.kernel_launch_overhead = 1e-4;
    FluidEngine engine(GpuSpec::TestGpu8Sm(), opts);
    SimResult result = engine.RunKernel(OneCtaKernel(1e9, 0.0, 0.0));
    EXPECT_NEAR(result.total_time, 1e-3 + 1e-4, 1e-9);
}

TEST(FluidEngine, EmptyKernelCompletes)
{
    KernelDesc kernel;
    kernel.name = "empty";
    kernel.cta_count = 0;
    FluidEngine engine(GpuSpec::TestGpu8Sm(), NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    EXPECT_GE(result.total_time, 0.0);
    EXPECT_EQ(result.total_ctas, 0);
}

TEST(FluidEngine, BackfillAfterCompletion)
{
    // 1-SM GPU, one long CTA and one short CTA in the kernel, then a
    // second kernel CTA backfills as soon as the short one retires.
    GpuSpec spec = GpuSpec::TestGpu8Sm();
    spec.num_sms = 1;
    spec.max_threads_per_sm = 256;  // room for two 128-thread CTAs
    std::vector<CtaWork> first = {SimpleCta(0.0, 0.0, 4e6, 1),
                                  SimpleCta(0.0, 0.0, 16e6, 1)};
    std::vector<CtaWork> second = {SimpleCta(0.0, 0.0, 4e6, 1)};
    KernelDesc a = KernelDesc::FromWorks("a", CtaResources{128, 0.0},
                                         std::move(first));
    KernelDesc b = KernelDesc::FromWorks("b", CtaResources{128, 0.0},
                                         std::move(second));
    FluidEngine engine(spec, NoOverhead());
    SimResult result = engine.Run({KernelLaunch{a, 0}, KernelLaunch{b, 1}});
    // Unit bandwidth: 1 warp = 4 GB/s. First kernel: 1 ms and 4 ms
    // units. b's CTA (1 ms) starts when the 1 ms CTA retires and
    // finishes at 2 ms, well before a's 4 ms CTA.
    EXPECT_NEAR(result.kernels[1].end_time, 2e-3, 1e-6);
    EXPECT_NEAR(result.total_time, 4e-3, 1e-6);
}

TEST(FluidEngine, RefillChainsWorkOnOneLane)
{
    // Persistent-threads support: a single CTA lane executes three
    // queued 1 ms work items back to back via refill, holding its
    // resources throughout.
    GpuSpec spec = GpuSpec::TestGpu8Sm();
    spec.num_sms = 1;
    auto remaining = std::make_shared<int>(2);

    KernelDesc kernel;
    kernel.name = "persistent";
    kernel.resources = CtaResources{1024, 0.0};
    kernel.cta_count = 1;
    kernel.assign = [](int, int) { return SimpleCta(1e9, 0.0, 0.0); };
    kernel.refill = [remaining](int, OpClass, WorkUnit* next) {
        if (*remaining == 0) return false;
        --*remaining;
        WorkUnit unit;
        unit.warps = 4;
        unit.phases.push_back(Phase{1e9, 0.0, 0.0});
        *next = unit;
        return true;
    };
    FluidEngine engine(spec, NoOverhead());
    SimResult result = engine.RunKernel(kernel);
    EXPECT_NEAR(result.total_time, 3e-3, 1e-9);
    EXPECT_EQ(result.total_ctas, 1);
}

TEST(FluidEngine, RefillKeepsResourcesOccupied)
{
    // While a persistent CTA refills, a second kernel's CTA cannot
    // enter the SM.
    GpuSpec spec = GpuSpec::TestGpu8Sm();
    spec.num_sms = 1;
    auto remaining = std::make_shared<int>(1);

    KernelDesc persistent;
    persistent.name = "persistent";
    persistent.resources = CtaResources{1024, 0.0};
    persistent.cta_count = 1;
    persistent.assign = [](int, int) { return SimpleCta(1e9, 0.0, 0.0); };
    persistent.refill = [remaining](int, OpClass, WorkUnit* next) {
        if (*remaining == 0) return false;
        --*remaining;
        WorkUnit unit;
        unit.warps = 4;
        unit.phases.push_back(Phase{1e9, 0.0, 0.0});
        *next = unit;
        return true;
    };
    KernelDesc other = OneCtaKernel(1e9, 0.0, 0.0);
    other.resources.threads = 1024;

    FluidEngine engine(spec, NoOverhead());
    SimResult result = engine.Run(
        {KernelLaunch{persistent, 0}, KernelLaunch{other, 1}});
    // other starts only after both persistent work items (2 ms).
    EXPECT_NEAR(result.kernels[1].start_time, 2e-3, 1e-9);
    EXPECT_NEAR(result.total_time, 3e-3, 1e-9);
}

}  // namespace
}  // namespace pod::gpusim
