/**
 * @file
 * The fluid GPU execution engine.
 *
 * An event-driven simulator that models kernel execution at CTA
 * granularity. Between events, every resident work unit draws
 * tensor-core throughput, CUDA-core throughput and HBM bandwidth at
 * rates determined by water-filling the resource hierarchy:
 *
 *  - per-SM tensor/CUDA capacity shared max-min among resident units
 *    (capped by each unit's warp count);
 *  - HBM bandwidth limited per warp (outstanding loads), per SM, and
 *    globally, shared proportionally.
 *
 * The hardware CTA scheduler dispatches CTAs in stream-priority order
 * to SMs chosen round-robin among those with room (first-fit from a
 * rotating pointer), which reproduces the real scheduler's wave
 * behaviour: wave quantization, backfill, and the *absence* of any
 * SM-level co-location guarantee that motivates POD-Attention's
 * SM-aware scheduling.
 */
#ifndef POD_GPUSIM_ENGINE_H
#define POD_GPUSIM_ENGINE_H

#include <vector>

#include "common/rng.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/sim_result.h"
#include "gpusim/work.h"

namespace pod::gpusim {

/**
 * Which event core executes the simulation (docs/DESIGN.md S3).
 *
 * Both cores share every discrete decision (placement, dispatch order,
 * phase/refill transitions); they differ only in how unit progress is
 * advanced between events:
 *
 *  - kAnalytic (default): closed-form integration. Rates are frozen
 *    per interval and completion times come from two per-SM event
 *    trees, so an event costs O(touched SM) instead of O(active
 *    units). Pacing
 *    caps refresh at every transition on the unit's SM rather than at
 *    every global event -- a deliberate, tolerance-banded model
 *    relaxation (docs/DESIGN.md S3.2).
 *  - kExactOracle: the stepwise PR-3 engine, bit-identical to the
 *    seed simulator. Every exact golden in the regression suites pins
 *    this core, and the analytic core is cross-checked against it.
 */
enum class EngineCore
{
    kAnalytic = 0,
    kExactOracle = 1,
};

/** Engine configuration. */
struct SimOptions
{
    /** Seed for placement tie-breaking. */
    uint64_t seed = 1;

    /** Record per-CTA completion times in the result. */
    bool record_cta_times = false;

    /**
     * Probability that the hardware scheduler skips an otherwise
     * chosen SM, modelling placement nondeterminism. 0 disables.
     */
    double placement_jitter = 0.0;

    /**
     * Fixed per-kernel launch overhead in seconds, charged when a
     * kernel begins dispatching after all prior work in its stream.
     */
    double kernel_launch_overhead = 3e-6;

    /** Event core to run (see EngineCore). */
    EngineCore core = EngineCore::kAnalytic;

    /** Field-by-field equality. */
    bool
    operator==(const SimOptions& o) const
    {
        return seed == o.seed && record_cta_times == o.record_cta_times &&
               placement_jitter == o.placement_jitter &&
               kernel_launch_overhead == o.kernel_launch_overhead &&
               core == o.core;
    }
};

/**
 * Runs kernel launches on a simulated GPU and reports timing,
 * utilization and energy.
 *
 * The engine is stateless across Run() calls; each call simulates an
 * idle GPU executing the given launches to completion.
 */
class FluidEngine
{
  public:
    /** Construct for a device; the spec is validated. */
    explicit FluidEngine(GpuSpec spec, SimOptions options = SimOptions());

    /**
     * Simulate the launches to completion.
     * @param launches kernels with stream assignments; kernels within
     *        a stream serialize, different streams may overlap.
     */
    SimResult Run(const std::vector<KernelLaunch>& launches);

    /** Convenience: run a single kernel on stream 0. */
    SimResult RunKernel(const KernelDesc& kernel);

    /** Device spec in use. */
    const GpuSpec& Spec() const { return spec_; }

  private:
    GpuSpec spec_;
    SimOptions options_;
};

}  // namespace pod::gpusim

#endif  // POD_GPUSIM_ENGINE_H
