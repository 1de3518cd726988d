/**
 * @file
 * Kernel assembly for the baseline attention strategies.
 *
 * These functions wrap UnitGeometry work lists into simulator
 * KernelDescs for the execution strategies the paper compares
 * against: standalone prefill/decode kernels (FA/FI serial and
 * streams) and HFuse-style warp-parallel fusion with its straggler
 * semantics (paper S3). The FI_Batched single-kernel strategy is a
 * CTA-parallel kernel (sm_aware.h) over two OneCtaPerUnit lists.
 */
#ifndef POD_KERNELS_ATTN_KERNELS_H
#define POD_KERNELS_ATTN_KERNELS_H

#include <string>
#include <vector>

#include "gpusim/work.h"
#include "kernels/flash_geometry.h"

namespace pod::kernels {

/** One CTA per work unit of a geometry, in unit order. */
std::vector<gpusim::CtaWork> OneCtaPerUnit(const UnitGeometry& geom);

/**
 * Wrap a geometry into a plain kernel: one CTA per work unit, CTAs
 * dispatched in unit order.
 */
gpusim::KernelDesc MakeSimpleKernel(std::string name,
                                    const UnitGeometry& geom);

/**
 * HFuse-style horizontal (warp-parallel) fusion: CTA i hosts prefill
 * unit i and decode unit i side by side; the grid is
 * max(prefill, decode) CTAs and every CTA reserves the *sum* of both
 * footprints for its entire lifetime. A CTA retires only when its
 * slowest unit finishes -- the straggler problem (paper S3.1).
 */
gpusim::KernelDesc MakeHFuseKernel(std::string name,
                                   const UnitGeometry& prefill,
                                   const UnitGeometry& decode);

}  // namespace pod::kernels

#endif  // POD_KERNELS_ATTN_KERNELS_H
