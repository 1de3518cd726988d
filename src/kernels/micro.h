/**
 * @file
 * The paper's S3.3 concurrent-execution case study (Fig. 7).
 *
 * A compute-bound kernel (repeated scalar multiplies) and a
 * memory-bound kernel (repeated three-array adds), each with a
 * barrier after every iteration, are executed with each candidate
 * fusion strategy: serial, kernel-parallel (streams), naive
 * CTA-parallel, intra-thread fusion, SM-aware CTA scheduling, and the
 * perfect-overlap oracle.
 */
#ifndef POD_KERNELS_MICRO_H
#define POD_KERNELS_MICRO_H

#include "gpusim/engine.h"
#include "gpusim/gpu_spec.h"

namespace pod::kernels {

/** Fusion strategies of Table 2 / Fig. 7. */
enum class FusionStrategy : int {
    kSerial = 0,       ///< One kernel after the other.
    kStreams = 1,      ///< Kernel-parallel via two CUDA streams.
    kCtaParallel = 2,  ///< Static CTA split, no SM awareness.
    kIntraThread = 3,  ///< Instruction interleaving within threads.
    kSmAwareCta = 4,   ///< POD's SM-aware CTA scheduling.
    kOracle = 5,       ///< Perfect overlap: max of the two kernels.
};

/** Printable strategy name. */
const char* FusionStrategyName(FusionStrategy strategy);

/**
 * Execute the micro-benchmark with one strategy and return the total
 * runtime in seconds.
 * @param compute_iters iterations of the compute kernel (x axis of
 *        Fig. 7). The memory kernel always runs 100 iterations, and
 *        both kernels are calibrated so that 100 iterations take 1 ms
 *        with the device full: 100 is the balanced point.
 */
double RunMicroStrategy(FusionStrategy strategy, int compute_iters,
                        const gpusim::GpuSpec& spec,
                        const gpusim::SimOptions& sim_options =
                            gpusim::SimOptions());

}  // namespace pod::kernels

#endif  // POD_KERNELS_MICRO_H
