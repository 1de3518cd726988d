/**
 * @file
 * Implementation of the S3.3 fusion case-study micro-benchmark.
 */
#include "kernels/micro.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "kernels/sm_aware.h"

namespace pod::kernels {

namespace {

/** Threads per micro CTA: large CTAs, two resident per SM. */
constexpr int kMicroThreads = 1024;

/** Iterations of the memory kernel. */
constexpr int kMemoryIters = 100;

/**
 * Fraction of a fused iteration's memory traffic that intra-thread
 * fusion can hide under compute; the barrier after each iteration
 * prevents hiding the rest (paper S3.1, "Intra-thread").
 */
constexpr double kIntraThreadOverlap = 0.4;

/**
 * Per-CTA work of one iteration, calibrated so that kMemoryIters
 * iterations take 1 ms with the device fully occupied (2 CTAs per SM)
 * -- matching the paper's "at 100 compute iterations, both operations
 * consume equal time" setup.
 */
struct Calibration
{
    int ctas;
    double flops_per_iter;
    double bytes_per_iter;
};

Calibration
Calibrate(const gpusim::GpuSpec& spec)
{
    const double t0 = 1e-3;
    const double iters0 = kMemoryIters;
    Calibration r;
    r.ctas = 2 * spec.num_sms;
    r.flops_per_iter = spec.TotalCudaFlops() * t0 / (r.ctas * iters0);
    r.bytes_per_iter = spec.hbm_bandwidth * t0 / (r.ctas * iters0);
    return r;
}

/** One compute-kernel CTA: compute_iters barrier-delimited multiplies. */
gpusim::CtaWork
ComputeCta(const Calibration& r, int iters)
{
    gpusim::WorkUnit unit;
    unit.op = gpusim::OpClass::kCompute;
    unit.warps = kMicroThreads / 32;
    unit.phases.reserve(static_cast<size_t>(iters));
    for (int i = 0; i < iters; ++i) {
        unit.phases.push_back(gpusim::Phase{0.0, r.flops_per_iter, 0.0});
    }
    gpusim::CtaWork work;
    work.units.push_back(std::move(unit));
    return work;
}

/** One memory-kernel CTA: kMemoryIters barrier-delimited array adds. */
gpusim::CtaWork
MemoryCta(const Calibration& r)
{
    gpusim::WorkUnit unit;
    unit.op = gpusim::OpClass::kMemory;
    unit.warps = kMicroThreads / 32;
    unit.phases.reserve(static_cast<size_t>(kMemoryIters));
    for (int i = 0; i < kMemoryIters; ++i) {
        unit.phases.push_back(gpusim::Phase{0.0, 0.0, r.bytes_per_iter});
    }
    gpusim::CtaWork work;
    work.units.push_back(std::move(unit));
    return work;
}

std::vector<gpusim::CtaWork>
Replicate(const gpusim::CtaWork& work, int n)
{
    return std::vector<gpusim::CtaWork>(static_cast<size_t>(n), work);
}

gpusim::CtaResources
MicroResources()
{
    return gpusim::CtaResources{kMicroThreads, 0.0};
}

/**
 * Intra-thread fused CTA: each iteration interleaves the compute
 * multiply with a slice of the memory add. Only kIntraThreadOverlap
 * of the memory traffic hides under the compute; the barrier forces
 * the remainder to run exposed (paper S3.1). Leftover iterations of
 * the longer op run pure.
 */
gpusim::CtaWork
IntraThreadCta(const Calibration& r, int compute_iters)
{
    gpusim::WorkUnit unit;
    unit.op = gpusim::OpClass::kOther;
    unit.warps = kMicroThreads / 32;
    int fused = std::min(compute_iters, kMemoryIters);
    for (int i = 0; i < fused; ++i) {
        unit.phases.push_back(gpusim::Phase{
            0.0, r.flops_per_iter, kIntraThreadOverlap * r.bytes_per_iter});
        unit.phases.push_back(gpusim::Phase{
            0.0, 0.0, (1.0 - kIntraThreadOverlap) * r.bytes_per_iter});
    }
    for (int i = fused; i < compute_iters; ++i) {
        unit.phases.push_back(gpusim::Phase{0.0, r.flops_per_iter, 0.0});
    }
    for (int i = fused; i < kMemoryIters; ++i) {
        unit.phases.push_back(gpusim::Phase{0.0, 0.0, r.bytes_per_iter});
    }
    gpusim::CtaWork work;
    work.units.push_back(std::move(unit));
    return work;
}

}  // namespace

const char*
FusionStrategyName(FusionStrategy strategy)
{
    switch (strategy) {
      case FusionStrategy::kSerial: return "Serial";
      case FusionStrategy::kStreams: return "Kernel (Streams)";
      case FusionStrategy::kCtaParallel: return "CTA";
      case FusionStrategy::kIntraThread: return "Intra-thread";
      case FusionStrategy::kSmAwareCta: return "SM-aware CTA";
      case FusionStrategy::kOracle: return "Optimal";
    }
    return "unknown";
}

double
RunMicroStrategy(FusionStrategy strategy, int compute_iters,
                 const gpusim::GpuSpec& spec,
                 const gpusim::SimOptions& sim_options)
{
    POD_CHECK_ARG(compute_iters > 0, "compute iterations must be positive");
    Calibration r = Calibrate(spec);
    gpusim::FluidEngine engine(spec, sim_options);

    gpusim::KernelDesc compute_kernel = gpusim::KernelDesc::FromWorks(
        "micro_compute", MicroResources(),
        Replicate(ComputeCta(r, compute_iters), r.ctas));
    gpusim::KernelDesc memory_kernel = gpusim::KernelDesc::FromWorks(
        "micro_memory", MicroResources(),
        Replicate(MemoryCta(r), r.ctas));

    switch (strategy) {
      case FusionStrategy::kSerial: {
        return engine
            .Run({gpusim::KernelLaunch{compute_kernel, 0},
                  gpusim::KernelLaunch{memory_kernel, 0}})
            .total_time;
      }
      case FusionStrategy::kStreams: {
        return engine
            .Run({gpusim::KernelLaunch{compute_kernel, 0},
                  gpusim::KernelLaunch{memory_kernel, 1}})
            .total_time;
      }
      case FusionStrategy::kCtaParallel: {
        gpusim::KernelDesc fused = MakeCtaParallelKernel(
            "micro_cta_fused", MicroResources(),
            Replicate(ComputeCta(r, compute_iters), r.ctas),
            Replicate(MemoryCta(r), r.ctas));
        return engine.RunKernel(fused).total_time;
      }
      case FusionStrategy::kIntraThread: {
        gpusim::KernelDesc fused = gpusim::KernelDesc::FromWorks(
            "micro_intra_thread", MicroResources(),
            Replicate(IntraThreadCta(r, compute_iters), r.ctas));
        return engine.RunKernel(fused).total_time;
      }
      case FusionStrategy::kSmAwareCta: {
        gpusim::KernelDesc fused = MakeSmAwareKernel(
            "micro_sm_aware", MicroResources(),
            Replicate(ComputeCta(r, compute_iters), r.ctas),
            Replicate(MemoryCta(r), r.ctas),
            SmAwarePolicy::FiftyFifty(), spec.num_sms);
        return engine.RunKernel(fused).total_time;
      }
      case FusionStrategy::kOracle: {
        double tc = engine.RunKernel(compute_kernel).total_time;
        double tm = engine.RunKernel(memory_kernel).total_time;
        return std::max(tc, tm);
      }
    }
    Panic("unknown fusion strategy");
}

}  // namespace pod::kernels
