/**
 * @file
 * Implementation of baseline attention kernel assembly.
 */
#include "kernels/attn_kernels.h"

#include <algorithm>

#include "common/logging.h"

namespace pod::kernels {

std::vector<gpusim::CtaWork>
OneCtaPerUnit(const UnitGeometry& geom)
{
    std::vector<gpusim::CtaWork> works(geom.units.size());
    for (size_t i = 0; i < works.size(); ++i) {
        works[i].units.push_back(geom.units[i]);
    }
    return works;
}

gpusim::KernelDesc
MakeSimpleKernel(std::string name, const UnitGeometry& geom)
{
    return gpusim::KernelDesc::FromWorks(std::move(name), geom.resources,
                                         OneCtaPerUnit(geom));
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
