/**
 * @file
 * Exact-equivalence test of the indexed CTA placement (fit bitsets +
 * count-trailing-zeros PickSm in engine_internal.h) against the linear
 * round-robin first-fit scan it replaced.
 *
 * A minimal SimulationBase derivative drives random dispatch/retire
 * sequences of two co-resident kernels over 8, 108 and 132 SMs (one,
 * two and three bitset words), with and without per-kernel CTA
 * limits. Before every placement the reference scan runs on a copy of
 * the round-robin pointer; the indexed pick must choose the same SM
 * (or fail the same way) and leave the same pointer. After every step
 * every fit bit must equal a fresh Fits() evaluation.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpusim/engine_internal.h"

namespace pod::gpusim::detail {
namespace {

/** SimulationBase with inert rate hooks: placement/occupancy only. */
class PlacementHarness : public SimulationBase<PlacementHarness>
{
    using Base = SimulationBase<PlacementHarness>;
    friend Base;

  public:
    PlacementHarness(const GpuSpec& spec, const SimOptions& options,
                     const std::vector<KernelLaunch>& launches)
        : Base(spec, options, launches)
    {
    }

    /** The pre-index placement: linear first-fit from the pointer. */
    int
    ReferencePick(int kernel_id, int& rr) const
    {
        const KernelDesc& desc =
            *kernels_[static_cast<size_t>(kernel_id)].desc;
        for (int off = 0; off < spec_.num_sms; ++off) {
            int sm = (rr + off) % spec_.num_sms;
            if (Fits(sms_[static_cast<size_t>(sm)], desc, kernel_id)) {
                rr = (sm + 1) % spec_.num_sms;
                return sm;
            }
        }
        return -1;
    }

    /** Every fit bit equals a fresh Fits() evaluation. */
    bool
    IndexMatchesFits() const
    {
        for (size_t k = 0; k < kernels_.size(); ++k) {
            const KernelState& ks = kernels_[k];
            for (int sm = 0; sm < spec_.num_sms; ++sm) {
                uint64_t word = fit_words_[k * fit_stride_ +
                                           static_cast<size_t>(sm) / 64];
                bool bit = (word >> (sm % 64)) & 1u;
                if (bit != Fits(sms_[static_cast<size_t>(sm)], *ks.desc,
                                static_cast<int>(k))) {
                    return false;
                }
            }
        }
        return true;
    }

    bool
    HasCtasLeft(int kernel_id) const
    {
        const KernelState& ks = kernels_[static_cast<size_t>(kernel_id)];
        return ks.dispatched < ks.desc->cta_count;
    }

    using Base::DispatchOne;
    using Base::RetireCta;
    using Base::ctas_;
    using Base::rr_pointer_;

  private:
    bool
    AddUnit(UnitState& us, const UnitCaps& /*caps*/)
    {
        units_.push_back(us);
        return true;
    }
    void OnSmTouched(int /*sm_id*/) {}
    void SetUnitCaps(int /*uid*/, const UnitState& /*u*/) {}
    void OnUnitRetired(int /*uid*/, int /*sm_id*/) {}
};

/** A kernel whose every CTA carries one single-phase unit. */
KernelDesc
GridKernel(const std::string& name, int ctas, int threads, double smem,
           int max_ctas_per_sm)
{
    KernelDesc k;
    k.name = name;
    k.resources = CtaResources{threads, smem};
    k.cta_count = ctas;
    k.max_ctas_per_sm = max_ctas_per_sm;
    k.assign = [](int /*cta_index*/, int /*sm_id*/) {
        CtaWork w;
        WorkUnit u;
        Phase ph;
        ph.tensor_flops = 1.0;
        u.phases.push_back(ph);
        w.units.push_back(u);
        return w;
    };
    return k;
}

struct PlacementCase
{
    int num_sms;
    int limit_a;
    int limit_b;
};

/** Steps taken, and how many placements failed on a full GPU. */
struct PlacementStats
{
    int placements = 0;
    int failures = 0;
};

PlacementStats
RunRandomPlacements(const PlacementCase& c, uint64_t seed)
{
    GpuSpec spec = GpuSpec::A100Sxm80GB();
    spec.num_sms = c.num_sms;
    SimOptions options;

    // Two kernels on separate streams, both resident at once, with
    // different footprints so one can fit where the other cannot.
    // Kernel 0 runs out of CTAs mid-run.
    std::vector<KernelLaunch> launches;
    launches.push_back(KernelLaunch{
        GridKernel("a", 8 * c.num_sms, 256, 40.0 * 1024, c.limit_a), 0});
    launches.push_back(KernelLaunch{
        GridKernel("b", 1'000'000, 512, 12.0 * 1024, c.limit_b), 1});
    PlacementHarness sim(spec, options, launches);

    Rng walk(seed * 7919 + 1);
    std::vector<int> live;
    PlacementStats stats;
    for (int step = 0; step < 60 * c.num_sms; ++step) {
        // Bias toward dispatch so the GPU spends time full.
        bool dispatch = live.empty() || walk.Bernoulli(0.6);
        if (dispatch) {
            int kid = static_cast<int>(walk.UniformInt(0, 1));
            if (!sim.HasCtasLeft(kid)) kid = 1 - kid;
            int rr = sim.rr_pointer_;
            int expected = sim.ReferencePick(kid, rr);
            size_t ctas_before = sim.ctas_.size();
            bool placed = sim.DispatchOne(kid, 0.0);
            ++stats.placements;
            if (expected < 0) {
                ++stats.failures;
                EXPECT_FALSE(placed) << "step " << step;
                EXPECT_EQ(sim.ctas_.size(), ctas_before);
            } else {
                EXPECT_TRUE(placed) << "step " << step;
                if (!placed) return stats;
                EXPECT_EQ(sim.ctas_.back().sm, expected) << "step " << step;
                live.push_back(static_cast<int>(ctas_before));
            }
            EXPECT_EQ(sim.rr_pointer_, rr) << "step " << step;
        } else {
            size_t pick = static_cast<size_t>(walk.UniformInt(
                0, static_cast<int64_t>(live.size()) - 1));
            sim.RetireCta(live[pick], 0.0);
            live[pick] = live.back();
            live.pop_back();
        }
        EXPECT_TRUE(sim.IndexMatchesFits()) << "step " << step;
        if (::testing::Test::HasFailure()) return stats;
    }
    return stats;
}

TEST(PlacementIndexTest, MatchesLinearScanAcrossWordCounts)
{
    const PlacementCase cases[] = {
        {8, 0, 0},   {8, 2, 1},   {108, 3, 0}, {108, 0, 2},
        {132, 2, 1}, {132, 3, 0}, {108, 1, 1}, {132, 0, 0},
    };
    for (const auto& c : cases) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE("sms=" + std::to_string(c.num_sms) +
                         " limits=" + std::to_string(c.limit_a) + "/" +
                         std::to_string(c.limit_b) +
                         " seed=" + std::to_string(seed));
            PlacementStats stats = RunRandomPlacements(c, seed);
            ASSERT_FALSE(::testing::Test::HasFailure());
            // The walk must reach a full GPU, not just easy first fits.
            EXPECT_GT(stats.failures, 0);
            EXPECT_LT(stats.failures, stats.placements);
        }
    }
}

}  // namespace
}  // namespace pod::gpusim::detail
