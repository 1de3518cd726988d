/**
 * @file
 * GpuSpec presets and validation.
 */
#include "gpusim/gpu_spec.h"

#include "common/logging.h"

namespace pod::gpusim {

void
GpuSpec::Validate() const
{
    POD_CHECK_ARG(num_sms > 0, "GPU must have at least one SM");
    POD_CHECK_ARG(tensor_flops_per_sm > 0, "tensor throughput must be > 0");
    POD_CHECK_ARG(cuda_flops_per_sm > 0, "CUDA throughput must be > 0");
    POD_CHECK_ARG(hbm_bandwidth > 0, "HBM bandwidth must be > 0");
    POD_CHECK_ARG(sm_bandwidth_cap > 0, "per-SM bandwidth cap must be > 0");
    POD_CHECK_ARG(warp_bandwidth_cap > 0,
                  "per-warp bandwidth cap must be > 0");
    POD_CHECK_ARG(shared_mem_per_sm > 0, "shared memory must be > 0");
    POD_CHECK_ARG(max_threads_per_sm >= 32, "SM must host at least a warp");
    POD_CHECK_ARG(max_ctas_per_sm > 0, "SM must host at least one CTA");
    POD_CHECK_ARG(warps_per_tensor_saturation > 0,
                  "tensor saturation warp count must be > 0");
    POD_CHECK_ARG(warps_per_cuda_saturation > 0,
                  "CUDA saturation warp count must be > 0");
    POD_CHECK_ARG(pcie_bandwidth > 0, "PCIe bandwidth must be > 0");
}

bool
GpuSpec::operator==(const GpuSpec& o) const
{
    return name == o.name && num_sms == o.num_sms &&
           tensor_flops_per_sm == o.tensor_flops_per_sm &&
           cuda_flops_per_sm == o.cuda_flops_per_sm &&
           hbm_bandwidth == o.hbm_bandwidth &&
           sm_bandwidth_cap == o.sm_bandwidth_cap &&
           warp_bandwidth_cap == o.warp_bandwidth_cap &&
           warps_per_tensor_saturation == o.warps_per_tensor_saturation &&
           warps_per_cuda_saturation == o.warps_per_cuda_saturation &&
           shared_mem_per_sm == o.shared_mem_per_sm &&
           max_threads_per_sm == o.max_threads_per_sm &&
           max_ctas_per_sm == o.max_ctas_per_sm &&
           hbm_capacity == o.hbm_capacity &&
           nvlink_bandwidth == o.nvlink_bandwidth &&
           pcie_bandwidth == o.pcie_bandwidth &&
           idle_power_w == o.idle_power_w &&
           tensor_power_w == o.tensor_power_w &&
           cuda_power_w == o.cuda_power_w && hbm_power_w == o.hbm_power_w;
}

GpuSpec
GpuSpec::A100Sxm80GB()
{
    GpuSpec spec;
    spec.name = "A100-SXM4-80GB";
    // Defaults in the struct already describe the A100; restated here
    // explicitly so the preset is self-contained even if defaults move.
    spec.num_sms = 108;
    spec.tensor_flops_per_sm = 312e12 * 0.65 / 108.0;
    spec.cuda_flops_per_sm = 19.5e12 * 0.7 / 108.0;
    spec.hbm_bandwidth = 2039e9 * 0.85;
    spec.sm_bandwidth_cap = 48e9;
    spec.warp_bandwidth_cap = 6e9;
    spec.shared_mem_per_sm = 163.0 * 1024.0;
    spec.max_threads_per_sm = 2048;
    spec.max_ctas_per_sm = 32;
    spec.hbm_capacity = 80.0 * 1024.0 * 1024.0 * 1024.0;
    spec.nvlink_bandwidth = 600e9;
    spec.pcie_bandwidth = 32e9 * 0.8;  // PCIe Gen4 x16
    return spec;
}

GpuSpec
GpuSpec::H100Sxm80GB()
{
    GpuSpec spec;
    spec.name = "H100-SXM5-80GB";
    spec.num_sms = 132;
    // Same achievable-efficiency factors as the A100 preset so the
    // specs stay comparable: 0.65 on dense tensor peak (989 TFLOPS
    // FP16), 0.7 on FP32 peak (67 TFLOPS), 0.85 on HBM3 peak
    // (3352 GB/s).
    spec.tensor_flops_per_sm = 989e12 * 0.65 / 132.0;
    spec.cuda_flops_per_sm = 67e12 * 0.7 / 132.0;
    spec.hbm_bandwidth = 3352e9 * 0.85;
    // Per-SM/per-warp caps scaled from the A100 values by the HBM
    // bandwidth ratio (Hopper widens the LSU path with the memory).
    spec.sm_bandwidth_cap = 75e9;
    spec.warp_bandwidth_cap = 8e9;
    spec.shared_mem_per_sm = 227.0 * 1024.0;
    spec.max_threads_per_sm = 2048;
    spec.max_ctas_per_sm = 32;
    spec.hbm_capacity = 80.0 * 1024.0 * 1024.0 * 1024.0;
    spec.nvlink_bandwidth = 900e9;
    spec.pcie_bandwidth = 64e9 * 0.8;  // PCIe Gen5 x16
    // Component split of the 700 W SXM5 TDP, same proportions as the
    // A100 model.
    spec.idle_power_w = 110.0;
    spec.tensor_power_w = 330.0;
    spec.cuda_power_w = 70.0;
    spec.hbm_power_w = 190.0;
    return spec;
}

GpuSpec
GpuSpec::RtxA6000()
{
    GpuSpec spec;
    spec.name = "RTX-A6000";
    spec.num_sms = 84;
    // 154.8 TFLOPS dense FP16 tensor (FP32 accumulate) and 38.7
    // TFLOPS FP32 per the datasheet, with the shared efficiency
    // factors; 768 GB/s GDDR6 (GDDR achieves a slightly lower
    // fraction of peak than HBM -- 0.8).
    spec.tensor_flops_per_sm = 154.8e12 * 0.65 / 84.0;
    spec.cuda_flops_per_sm = 38.7e12 * 0.7 / 84.0;
    spec.hbm_bandwidth = 768e9 * 0.80;
    spec.sm_bandwidth_cap = 18e9;
    spec.warp_bandwidth_cap = 4e9;
    // GA102 keeps 128 KiB unified L1/shared per SM; up to 100 KiB is
    // configurable as shared memory.
    spec.shared_mem_per_sm = 100.0 * 1024.0;
    spec.max_threads_per_sm = 1536;
    spec.max_ctas_per_sm = 16;
    spec.hbm_capacity = 48.0 * 1024.0 * 1024.0 * 1024.0;
    // NVLink3 bridge between a pair of A6000s.
    spec.nvlink_bandwidth = 112.5e9;
    spec.pcie_bandwidth = 32e9 * 0.8;  // PCIe Gen4 x16
    // Component split of the 300 W TDP.
    spec.idle_power_w = 60.0;
    spec.tensor_power_w = 130.0;
    spec.cuda_power_w = 40.0;
    spec.hbm_power_w = 70.0;
    return spec;
}

GpuSpec
GpuSpec::TestGpu8Sm()
{
    GpuSpec spec;
    spec.name = "test-8sm";
    spec.num_sms = 8;
    // Round numbers so tests can assert exact times:
    // 1 TFLOP/s tensor, 0.25 TFLOP/s CUDA per SM; 64 GB/s HBM total.
    spec.tensor_flops_per_sm = 1e12;
    spec.cuda_flops_per_sm = 0.25e12;
    spec.hbm_bandwidth = 64e9;
    spec.sm_bandwidth_cap = 16e9;
    spec.warp_bandwidth_cap = 4e9;
    spec.shared_mem_per_sm = 128.0 * 1024.0;
    spec.max_threads_per_sm = 1024;
    spec.max_ctas_per_sm = 8;
    spec.hbm_capacity = 16.0 * 1024.0 * 1024.0 * 1024.0;
    spec.pcie_bandwidth = 8e9;  // round number for exact-time tests
    return spec;
}

}  // namespace pod::gpusim
