/**
 * @file
 * SM-aware CTA scheduling: runtime operation binding (paper S4.1).
 *
 * A fused kernel is launched with enough identical CTAs for both
 * operations. Each CTA decides *after* the hardware scheduler places
 * it on an SM whether to run op A or op B, by taking a ticket from a
 * per-SM counter (paper Fig. 9): co-location of the two ops on every
 * SM is thereby guaranteed regardless of hardware placement. This is
 * the generic machinery; POD-Attention instantiates it with prefill
 * and decode work, and the S3.3 micro-benchmark with compute and
 * memory kernels.
 */
#ifndef POD_KERNELS_SM_AWARE_H
#define POD_KERNELS_SM_AWARE_H

#include <cstddef>
#include <string>
#include <vector>

#include "gpusim/work.h"

namespace pod::kernels {

/**
 * Ticket policy: of every (ratio_a + ratio_b) consecutive CTAs
 * arriving on one SM, the first ratio_a run op A.
 *
 * 50:50 -> {1, 1}; proportional -> {count_a, count_b} (paper S4.1).
 */
struct SmAwarePolicy
{
    int ratio_a = 1;
    int ratio_b = 1;

    /** The paper's 50:50 allocation. */
    static SmAwarePolicy FiftyFifty() { return SmAwarePolicy{1, 1}; }

    /**
     * The paper's proportional allocation, reduced to small terms.
     *
     * Tickets are taken per SM, so the ratio must cycle within the
     * few CTAs resident on one SM: 50 prefill and 100 decode CTAs
     * become 1:2 (the paper's own example), not 50:100. The reduced
     * ratio (a+b <= max_sum) closest to count_a/(count_a+count_b) is
     * chosen.
     */
    static SmAwarePolicy Proportional(int count_a, int count_b,
                                      int max_sum = 8);

    /**
     * Fig. 9 lines 5-8: take the next ticket from the arriving CTA's
     * per-SM counter and return the op it binds (0 = A, 1 = B).
     */
    int
    TakeTicket(int& sm_counter) const
    {
        int ticket = sm_counter++ % (ratio_a + ratio_b);
        return ticket < ratio_a ? 0 : 1;
    }
};

/**
 * Build a fused kernel whose CTAs bind to op A or op B at dispatch
 * time via SM-aware scheduling.
 *
 * @param name kernel name.
 * @param resources uniform per-CTA footprint (max of both ops,
 *        hand-balanced as in paper S4.3).
 * @param works_a CTA work list of op A.
 * @param works_b CTA work list of op B.
 * @param policy ticket policy.
 * @param num_sms SM count of the target device (per-SM counters).
 * @param max_ctas_per_sm resident-CTA cap (paper S4.2.2; 0 = none).
 */
gpusim::KernelDesc MakeSmAwareKernel(std::string name,
                                     gpusim::CtaResources resources,
                                     std::vector<gpusim::CtaWork> works_a,
                                     std::vector<gpusim::CtaWork> works_b,
                                     SmAwarePolicy policy, int num_sms,
                                     int max_ctas_per_sm = 0);

/**
 * Build a naive CTA-parallel fused kernel for comparison: op A and
 * op B CTAs are statically interleaved proportionally in dispatch
 * order, with no SM awareness -- co-location is accidental
 * (paper S3.1, "CTA-parallel").
 */
gpusim::KernelDesc MakeCtaParallelKernel(std::string name,
                                         gpusim::CtaResources resources,
                                         std::vector<gpusim::CtaWork> works_a,
                                         std::vector<gpusim::CtaWork> works_b);

}  // namespace pod::kernels

#endif  // POD_KERNELS_SM_AWARE_H
