/**
 * @file
 * Implementation of baseline attention kernel assembly.
 */
#include "kernels/attn_kernels.h"

#include <algorithm>

#include "common/logging.h"
#include "kernels/sm_aware.h"

namespace pod::kernels {

gpusim::KernelDesc
MakeSimpleKernel(std::string name, const UnitGeometry& geom)
{
    std::vector<gpusim::CtaWork> works;
    works.reserve(geom.units.size());
    for (const auto& unit : geom.units) {
        gpusim::CtaWork work;
        work.units.push_back(unit);
        works.push_back(std::move(work));
    }
    return gpusim::KernelDesc::FromWorks(std::move(name), geom.resources,
                                         std::move(works));
}

gpusim::KernelDesc
MakeBatchedPrefillKernel(std::string name, const UnitGeometry& prefill,
                         const UnitGeometry& decode)
{
    // Both sides were built with the same (prefill) tile, so their
    // footprints match; take the larger to be safe.
    gpusim::CtaResources res;
    res.threads =
        std::max(prefill.resources.threads, decode.resources.threads);
    res.shared_mem_bytes = std::max(prefill.resources.shared_mem_bytes,
                                    decode.resources.shared_mem_bytes);

    // Interleave proportionally, approximating the CTA order a
    // ragged-batch prefill kernel produces (requests in submission
    // order: chunk first, then decode rows, tiled across heads).
    std::vector<gpusim::CtaWork> works;
    works.reserve(prefill.units.size() + decode.units.size());
    InterleaveProportionally(
        prefill.units.size(), decode.units.size(),
        [&](bool take_prefill, size_t i) {
            gpusim::CtaWork work;
            work.units.push_back(take_prefill ? prefill.units[i]
                                              : decode.units[i]);
            works.push_back(std::move(work));
        });
    return gpusim::KernelDesc::FromWorks(std::move(name), res,
                                         std::move(works));
}

gpusim::KernelDesc
MakeHFuseKernel(std::string name, const UnitGeometry& prefill,
                const UnitGeometry& decode)
{
    // HFuse reserves the union of both kernels' resources in every
    // CTA of the fused grid, whether or not both sides have work.
    gpusim::CtaResources res;
    res.threads = prefill.resources.threads + decode.resources.threads;
    res.shared_mem_bytes = prefill.resources.shared_mem_bytes +
                           decode.resources.shared_mem_bytes;

    size_t n = std::max(prefill.units.size(), decode.units.size());
    POD_CHECK_ARG(n > 0, "HFuse kernel needs at least one work unit");
    std::vector<gpusim::CtaWork> works;
    works.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        gpusim::CtaWork work;
        if (i < prefill.units.size()) {
            work.units.push_back(prefill.units[i]);
        }
        if (i < decode.units.size()) {
            work.units.push_back(decode.units[i]);
        }
        works.push_back(std::move(work));
    }
    return gpusim::KernelDesc::FromWorks(std::move(name), res,
                                         std::move(works));
}

}  // namespace pod::kernels
