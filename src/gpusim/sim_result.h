/**
 * @file
 * Results reported by the fluid GPU simulator.
 */
#ifndef POD_GPUSIM_SIM_RESULT_H
#define POD_GPUSIM_SIM_RESULT_H

#include <array>
#include <string>
#include <vector>

#include "gpusim/work.h"

namespace pod::gpusim {

/** Timing of one kernel launch. */
struct KernelTiming
{
    std::string name;

    /** Time the first CTA of the kernel was dispatched. */
    double start_time = 0.0;

    /** Time the last CTA of the kernel completed. */
    double end_time = 0.0;
};

/** Per-OpClass accounting. */
struct OpStats
{
    /** Tensor FLOPs served to units of this class. */
    double tensor_flops = 0.0;

    /** CUDA FLOPs served to units of this class. */
    double cuda_flops = 0.0;

    /** DRAM bytes served to units of this class. */
    double mem_bytes = 0.0;

    /** Wall time during which >= 1 unit of this class was resident. */
    double busy_time = 0.0;

    /** Completion time of the last unit of this class (0 if none). */
    double finish_time = 0.0;

    /** Number of work units of this class. */
    int unit_count = 0;
};

/** Complete result of one simulation run. */
struct SimResult
{
    /** Total elapsed time until the last CTA retired. */
    double total_time = 0.0;

    /** Per-launch timings, in submission order. */
    std::vector<KernelTiming> kernels;

    /**
     * Average tensor-core utilization over the run, relative to the
     * device's effective tensor throughput (0..1).
     */
    double tensor_util = 0.0;

    /** Average CUDA-core utilization over the run (0..1). */
    double cuda_util = 0.0;

    /** Average HBM bandwidth utilization over the run (0..1). */
    double mem_util = 0.0;

    /** Energy consumed in joules (utilization-weighted power model). */
    double energy_joules = 0.0;

    /** Per-operation-class accounting. */
    std::array<OpStats, kNumOpClasses> per_op;

    /** CTA completion times (only if SimOptions::record_cta_times). */
    std::vector<double> cta_finish_times;

    /** Total CTAs dispatched. */
    int total_ctas = 0;

    /**
     * Events the analytic core advanced with closed-form integration
     * (one per event-loop iteration). Zero under the
     * ExactOracle core.
     */
    long analytic_fastpath_events = 0;

    /**
     * Events that fell back to stepwise/full-rescan handling: every
     * event under the ExactOracle core, plus the analytic core's
     * defensive full-rescan recoveries (expected 0 in normal runs --
     * nonzero values flag an analytic-core bug worth reporting).
     */
    long oracle_fallback_events = 0;

    /** Access accounting for one op class. */
    const OpStats&
    Op(OpClass op) const
    {
        return per_op[static_cast<size_t>(op)];
    }
};

}  // namespace pod::gpusim

#endif  // POD_GPUSIM_SIM_RESULT_H
