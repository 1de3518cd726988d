/**
 * @file
 * Implementation of SM-aware and naive CTA-parallel fused kernels.
 */
#include "kernels/sm_aware.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace pod::kernels {

namespace {

/** Mutable scheduling state shared by all CTAs of a fused kernel,
 * mirroring the device-memory counters of paper Fig. 9. */
struct SchedState
{
    /** Per-SM ticket counters (sm_ctr in Fig. 9). */
    std::vector<int> sm_counter;

    /** Next CTA id per op (cta_assign in Fig. 9). */
    int cta_assign[2] = {0, 0};

    std::vector<gpusim::CtaWork> works[2];
    SmAwarePolicy policy;
};

}  // namespace

SmAwarePolicy
SmAwarePolicy::Proportional(int count_a, int count_b, int max_sum)
{
    if (count_a <= 0) return SmAwarePolicy{1, std::max(1, max_sum - 1)};
    if (count_b <= 0) return SmAwarePolicy{std::max(1, max_sum - 1), 1};
    double target = static_cast<double>(count_a) / (count_a + count_b);
    SmAwarePolicy best{1, 1};
    double best_err = 1e9;
    for (int sum = 2; sum <= std::max(2, max_sum); ++sum) {
        for (int a = 1; a < sum; ++a) {
            double err = target - static_cast<double>(a) / sum;
            if (err < 0) err = -err;
            // Prefer smaller sums on ties (faster cycling per SM).
            if (err < best_err - 1e-12) {
                best_err = err;
                best = SmAwarePolicy{a, sum - a};
            }
        }
    }
    return best;
}

gpusim::KernelDesc
MakeSmAwareKernel(std::string name, gpusim::CtaResources resources,
                  std::vector<gpusim::CtaWork> works_a,
                  std::vector<gpusim::CtaWork> works_b, SmAwarePolicy policy,
                  int num_sms, int max_ctas_per_sm)
{
    POD_CHECK_ARG(num_sms > 0, "need the device SM count");
    POD_CHECK_ARG(policy.ratio_a > 0 && policy.ratio_b > 0,
                  "policy ratios must be positive");

    auto state = std::make_shared<SchedState>();
    state->sm_counter.assign(static_cast<size_t>(num_sms), 0);
    state->works[0] = std::move(works_a);
    state->works[1] = std::move(works_b);
    state->policy = policy;

    gpusim::KernelDesc desc;
    desc.name = std::move(name);
    desc.resources = resources;
    desc.cta_count = static_cast<int>(state->works[0].size() +
                                      state->works[1].size());
    desc.max_ctas_per_sm = max_ctas_per_sm;
    desc.assign = [state](int /*cta_index*/, int sm_id) -> gpusim::CtaWork {
        SchedState& s = *state;
        POD_ASSERT(sm_id >= 0 &&
                   sm_id < static_cast<int>(s.sm_counter.size()));

        int op = s.policy.TakeTicket(
            s.sm_counter[static_cast<size_t>(sm_id)]);

        // Fig. 9 lines 10-18: claim the next CTA id for the op; if
        // the op has no CTAs left, switch to the other op.
        int cta_id = s.cta_assign[op]++;
        if (cta_id >= static_cast<int>(s.works[op].size())) {
            op = 1 - op;
            cta_id = s.cta_assign[op]++;
        }
        POD_ASSERT_MSG(cta_id < static_cast<int>(s.works[op].size()),
                       "fused kernel over-dispatched op %d", op);
        return s.works[op][static_cast<size_t>(cta_id)];
    };
    return desc;
}

gpusim::KernelDesc
MakeCtaParallelKernel(std::string name, gpusim::CtaResources resources,
                      std::vector<gpusim::CtaWork> works_a,
                      std::vector<gpusim::CtaWork> works_b)
{
    // Static proportional interleaving by blockIdx, each step taking
    // from the side behind its quota; where a CTA runs is entirely up
    // to the hardware scheduler.
    const size_t na = works_a.size();
    const size_t nb = works_b.size();
    std::vector<gpusim::CtaWork> works;
    works.reserve(na + nb);
    size_t ia = 0;
    size_t ib = 0;
    while (ia < na || ib < nb) {
        if (ib >= nb || (ia < na && ia * nb <= ib * na)) {
            works.push_back(std::move(works_a[ia++]));
        } else {
            works.push_back(std::move(works_b[ib++]));
        }
    }
    return gpusim::KernelDesc::FromWorks(std::move(name), resources,
                                         std::move(works));
}

}  // namespace pod::kernels
