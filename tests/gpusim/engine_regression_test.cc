/**
 * @file
 * Bit-identical regression pin for the fluid engine.
 *
 * Runs the fixed five-kernel scenario from tests/golden_scenarios.h
 * through the EngineCore::kExactOracle core and compares every
 * SimResult field against exact golden doubles captured from the
 * pre-refactor engine (PR 3). EXPECT_EQ on doubles is deliberate: the
 * oracle core is the project's ground truth and must never change
 * simulated behaviour at all, only its cost. The scenario avoids
 * libm, so the literals are stable on any IEEE-754 platform.
 *
 * The default analytic core is NOT bit-identical by design; its
 * agreement with the oracle is pinned by the tolerance-banded tests
 * in analytic_oracle_test.cc (bands justified in docs/DESIGN.md
 * S3.2).
 */
#include "gpusim/engine.h"

#include <gtest/gtest.h>

#include "../golden_scenarios.h"

namespace pod::gpusim {
namespace {

double
CtaFinishSum(const SimResult& r)
{
    double sum = 0.0;
    for (double t : r.cta_finish_times) sum += t;
    return sum;
}

double
CtaFinishMax(const SimResult& r)
{
    double mx = 0.0;
    for (double t : r.cta_finish_times) mx = std::max(mx, t);
    return mx;
}

TEST(EngineRegressionTest, CtaFinishTimesAreBitIdenticalToGolden)
{
    // The only exact pin on per-CTA completion times; recording them
    // must not move total_time either.
    SimOptions opt;
    opt.record_cta_times = true;
    opt.core = EngineCore::kExactOracle;
    FluidEngine engine(GpuSpec::A100Sxm80GB(), opt);
    SimResult r = engine.Run(golden::GpusimLaunches());

    EXPECT_EQ(r.total_time, 0x1.7db6d717c6b8fp-7);
    ASSERT_EQ(r.cta_finish_times.size(), 420u);
    EXPECT_EQ(CtaFinishSum(r), 0x1.7f1ae3c33c46fp+1);
    EXPECT_EQ(CtaFinishMax(r), 0x1.7db6d717c6b8fp-7);
    EXPECT_EQ(r.cta_finish_times.front(), 0x1.9f36e8dd3a5a5p-9);
    EXPECT_EQ(r.cta_finish_times.back(), 0x1.7db6d717c6b8fp-7);
}

TEST(EngineRegressionTest, DeterministicRunIsBitIdenticalToGolden)
{
    SimOptions opt;
    opt.core = EngineCore::kExactOracle;
    FluidEngine engine(GpuSpec::A100Sxm80GB(), opt);
    SimResult r = engine.Run(golden::GpusimLaunches());

    EXPECT_EQ(r.total_time, 0x1.7db6d717c6b8fp-7);  // 0.011648993516748777
    ASSERT_EQ(r.kernels.size(), 5u);
    EXPECT_EQ(r.kernels[0].start_time, 0x1.92a737110e454p-19);
    EXPECT_EQ(r.kernels[0].end_time, 0x1.721128c5df07p-7);
    EXPECT_EQ(r.kernels[1].start_time, 0x1.722a53395017ep-7);
    EXPECT_EQ(r.kernels[1].end_time, 0x1.722a53395017ep-7);
    EXPECT_EQ(r.kernels[2].start_time, 0x1.722a53395017ep-7);
    EXPECT_EQ(r.kernels[2].end_time, 0x1.7db6d717c6b8fp-7);
    EXPECT_EQ(r.kernels[3].start_time, 0x1.92a737110e454p-19);
    EXPECT_EQ(r.kernels[3].end_time, 0x1.0375bc508befap-8);
    EXPECT_EQ(r.kernels[4].start_time, 0x1.03a811376e117p-8);
    EXPECT_EQ(r.kernels[4].end_time, 0x1.59bb5f94e0d0ap-8);
    EXPECT_EQ(r.tensor_util, 0x1.a510ca5340f4dp-3);
    EXPECT_EQ(r.cuda_util, 0x1.3ed7ae79ccf1cp-1);
    EXPECT_EQ(r.mem_util, 0x1.1793890b5ab18p-3);
    EXPECT_EQ(r.energy_joules, 0x1.073a332bc470bp+1);
    EXPECT_EQ(r.total_ctas, 420);
    EXPECT_EQ(r.per_op[0].tensor_flops, 0x1.543fd7fbfff9ap+38);
    EXPECT_EQ(r.per_op[0].cuda_flops, 0x1.103e84dfffe85p+36);
    EXPECT_EQ(r.per_op[0].mem_bytes, 0x1.5c6c2ac00008dp+30);
    EXPECT_EQ(r.per_op[0].busy_time, 0x1.71f7fe526df62p-7);
    EXPECT_EQ(r.per_op[0].finish_time, 0x1.721128c5df07p-7);
    EXPECT_EQ(r.per_op[0].unit_count, 180);
    EXPECT_EQ(r.per_op[1].tensor_flops, 0x1.b481d598001a6p+35);
    EXPECT_EQ(r.per_op[1].cuda_flops, 0x1.77825effffdb2p+33);
    EXPECT_EQ(r.per_op[1].mem_bytes, 0x1.4010090000008p+28);
    EXPECT_EQ(r.per_op[1].busy_time, 0x1.584d3975caf9dp-8);
    EXPECT_EQ(r.per_op[1].finish_time, 0x1.58b1e3438f3d6p-8);
    EXPECT_EQ(r.per_op[1].unit_count, 150);
    EXPECT_EQ(r.per_op[2].tensor_flops, 0x1.9ced136ffffdep+35);
    EXPECT_EQ(r.per_op[2].cuda_flops, 0x1.65a0bbffffa13p+33);
    EXPECT_EQ(r.per_op[2].mem_bytes, 0x1.20f69bffffff2p+28);
    EXPECT_EQ(r.per_op[2].busy_time, 0x1.03436769a9cdep-8);
    EXPECT_EQ(r.per_op[2].finish_time, 0x1.0375bc508befap-8);
    EXPECT_EQ(r.per_op[2].unit_count, 120);
    EXPECT_EQ(r.per_op[3].tensor_flops, 0x0p+0);
    EXPECT_EQ(r.per_op[3].cuda_flops, 0x1.6e36000000004p+26);
    EXPECT_EQ(r.per_op[3].mem_bytes, 0x1.19aaeefffffdp+29);
    EXPECT_EQ(r.per_op[3].busy_time, 0x1.71907bced4272p-12);
    EXPECT_EQ(r.per_op[3].finish_time, 0x1.7db6d717c6b8fp-7);
    EXPECT_EQ(r.per_op[3].unit_count, 96);
    EXPECT_EQ(r.per_op[4].tensor_flops, 0x1.7b15e60000041p+32);
    EXPECT_EQ(r.per_op[4].cuda_flops, 0x1.28d4c5000007dp+30);
    EXPECT_EQ(r.per_op[4].mem_bytes, 0x1.f2f6600000004p+25);
    EXPECT_EQ(r.per_op[4].busy_time, 0x1.584d3975caf7cp-10);
    EXPECT_EQ(r.per_op[4].finish_time, 0x1.59bb5f94e0d0ap-8);
    EXPECT_EQ(r.per_op[4].unit_count, 60);
    EXPECT_EQ(r.cta_finish_times.size(), 0u);
}

}  // namespace
}  // namespace pod::gpusim
