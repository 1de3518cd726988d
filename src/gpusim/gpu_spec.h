/**
 * @file
 * GPU hardware specification used by the fluid execution simulator.
 *
 * The spec captures exactly the resources the POD-Attention paper
 * reasons about: SM count, per-SM tensor-core and CUDA-core
 * throughput, shared-memory and thread occupancy limits, and the HBM
 * bandwidth hierarchy (per-warp, per-SM, global). Power coefficients
 * support the paper's energy-consumption measurements (S5.1).
 */
#ifndef POD_GPUSIM_GPU_SPEC_H
#define POD_GPUSIM_GPU_SPEC_H

#include <string>

namespace pod::gpusim {

/**
 * Hardware description of one GPU.
 *
 * All throughput numbers are *effective* (peak multiplied by an
 * achievable-efficiency factor, documented per field). Utilization
 * figures reported by the simulator are relative to these effective
 * capacities, matching how profiler-reported utilization behaves for
 * well-tuned kernels.
 */
struct GpuSpec
{
    /** Human-readable device name. */
    std::string name = "generic";

    /** Number of streaming multiprocessors. */
    int num_sms = 108;

    /**
     * Effective tensor-core throughput per SM in FLOP/s.
     * A100: 312 TFLOPS FP16 peak x 0.65 attention-shape efficiency
     * / 108 SMs.
     */
    double tensor_flops_per_sm = 312e12 * 0.65 / 108.0;

    /**
     * Effective CUDA-core (FP32) throughput per SM in FLOP/s.
     * A100: 19.5 TFLOPS x 0.7 / 108.
     */
    double cuda_flops_per_sm = 19.5e12 * 0.7 / 108.0;

    /**
     * Achievable global HBM bandwidth in bytes/s.
     * A100-80GB: 2039 GB/s peak x 0.85 achievable.
     */
    double hbm_bandwidth = 2039e9 * 0.85;

    /**
     * Maximum memory bandwidth a single SM can draw (bytes/s).
     * Single-SM streaming on A100 measures well above the fair share
     * (hbm/num_sms ~ 16 GB/s); 48 GB/s models the LSU/sector limits.
     */
    double sm_bandwidth_cap = 48e9;

    /**
     * Maximum memory bandwidth one warp can sustain (bytes/s), set by
     * the number of outstanding loads a warp can keep in flight. This
     * is why decode kernels need many CTAs to saturate HBM (Fig. 10b).
     */
    double warp_bandwidth_cap = 6e9;

    /** Number of warps needed to saturate an SM's tensor cores. */
    int warps_per_tensor_saturation = 4;

    /** Number of warps needed to saturate an SM's CUDA cores. */
    int warps_per_cuda_saturation = 8;

    /** Usable shared memory per SM in bytes (A100: 164 KiB - 1 KiB). */
    double shared_mem_per_sm = 163.0 * 1024.0;

    /** Maximum resident threads per SM. */
    int max_threads_per_sm = 2048;

    /** Maximum resident CTAs per SM (hardware slot limit). */
    int max_ctas_per_sm = 32;

    /** HBM capacity in bytes (for KV-cache sizing in serving). */
    double hbm_capacity = 80.0 * 1024.0 * 1024.0 * 1024.0;

    /** NVLink bandwidth per GPU in bytes/s (for TP all-reduce). */
    double nvlink_bandwidth = 600e9;

    /**
     * Achievable host-device PCIe bandwidth in bytes/s (for KV swap
     * traffic under preemption). A100: PCIe Gen4 x16, 32 GB/s peak
     * x 0.8 achievable.
     */
    double pcie_bandwidth = 32e9 * 0.8;

    // -------- power model (S5.1 energy evaluation) --------

    /** Static/idle power draw in watts. */
    double idle_power_w = 90.0;

    /** Additional watts at 100% tensor-core utilization. */
    double tensor_power_w = 190.0;

    /** Additional watts at 100% CUDA-core utilization. */
    double cuda_power_w = 50.0;

    /** Additional watts at 100% HBM bandwidth utilization. */
    double hbm_power_w = 120.0;

    /** Total effective tensor throughput of the device (FLOP/s). */
    double TotalTensorFlops() const { return tensor_flops_per_sm * num_sms; }

    /** Total effective CUDA-core throughput of the device (FLOP/s). */
    double TotalCudaFlops() const { return cuda_flops_per_sm * num_sms; }

    /** Validate internal consistency; Fatal() on nonsensical values. */
    void Validate() const;

    /** Field-by-field equality (name included). */
    bool operator==(const GpuSpec& other) const;

    /** NVIDIA A100-SXM4-80GB preset (the paper's testbed GPU). */
    static GpuSpec A100Sxm80GB();

    /**
     * NVIDIA H100-SXM5-80GB preset (Hopper). Peak numbers from the
     * NVIDIA H100 datasheet / Hopper whitepaper: 132 SMs, 989 TFLOPS
     * dense FP16 tensor, 67 TFLOPS FP32, 3.35 TB/s HBM3, 228 KiB
     * shared memory per SM (227 KiB usable per CTA, as modeled),
     * 900 GB/s NVLink4.
     */
    static GpuSpec H100Sxm80GB();

    /**
     * NVIDIA RTX A6000 preset (Ampere GA102, workstation). Peak
     * numbers from the NVIDIA RTX A6000 datasheet: 84 SMs, 154.8
     * TFLOPS dense FP16 tensor (FP32 accumulate), 38.7 TFLOPS FP32,
     * 768 GB/s GDDR6, 48 GiB, 112.5 GB/s NVLink3 bridge.
     */
    static GpuSpec RtxA6000();

    /**
     * A small 8-SM toy GPU, convenient for fast unit tests that need
     * to reason about exact wave/occupancy behaviour.
     */
    static GpuSpec TestGpu8Sm();
};

}  // namespace pod::gpusim

#endif  // POD_GPUSIM_GPU_SPEC_H
