/**
 * @file
 * Configuration knobs of POD-Attention (paper S4.2).
 */
#ifndef POD_CORE_POD_CONFIG_H
#define POD_CORE_POD_CONFIG_H

namespace pod::core {

/** Intra-SM CTA scheduling policy (paper S4.1, S5.4.2). */
enum class SchedPolicy : int {
    kProportional = 0,  ///< Tickets proportional to CTA counts.
    kFiftyFifty = 1,    ///< Alternate prefill/decode per SM.
};

/**
 * Concurrent CTAs per SM (paper S4.2.2).
 *
 * kAuto is not a heuristic: RunAttention's POD backend simulates both
 * 2 and 4 CTAs/SM and keeps the faster. Only a direct BuildPodKernel
 * call with kAuto falls back to ChooseCtasPerSm's prefill-vs-decode
 * estimate, which picks the simulated winner on too few batches to
 * replace the second simulation (docs/EXPERIMENTS.md).
 */
enum class CtasPerSm : int {
    kAuto = 0,  ///< Simulate 2 and 4, keep the faster.
    kTwo = 2,   ///< 2 CTAs/SM: large prefill tiles.
    kFour = 4,  ///< 4 CTAs/SM: finer co-location ratios.
};

/** Prefill KV-split policy (paper S4.2.4). */
enum class SplitPolicy : int {
    kLimited = 0,  ///< POD: at most two full waves of prefill CTAs.
    kVanilla = 1,  ///< FlashAttention's aggressive splitting.
};

/** POD-Attention configuration. */
struct PodOptions
{
    SchedPolicy policy = SchedPolicy::kProportional;
    CtasPerSm ctas_per_sm = CtasPerSm::kAuto;
    SplitPolicy split_policy = SplitPolicy::kLimited;

    /** Virtual decode CTAs packed into one physical CTA (S4.2.3). */
    int virtual_ctas_per_physical = 4;

    /**
     * Use the persistent-threads alternative (paper S4.4): launch
     * only enough CTAs to fill the device once; lanes pull queued
     * work items of their op as they finish. The paper reports this
     * performs on par with CTA-parallel fusion once combined with
     * SM-aware scheduling.
     */
    bool persistent = false;

    /** Field-by-field equality. */
    bool
    operator==(const PodOptions& o) const
    {
        return policy == o.policy && ctas_per_sm == o.ctas_per_sm &&
               split_policy == o.split_policy &&
               virtual_ctas_per_physical == o.virtual_ctas_per_physical &&
               persistent == o.persistent;
    }
};

/** Printable names. */
const char* SchedPolicyName(SchedPolicy policy);
const char* SplitPolicyName(SplitPolicy policy);

}  // namespace pod::core

#endif  // POD_CORE_POD_CONFIG_H
