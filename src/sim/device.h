// Analytic GPU device model (the A10/T4 substitution — see DESIGN.md §2).
//
// Every engine in the repo (DISC and all baselines) is charged by this one
// model, so relative results reflect the mechanisms under study — kernel
// launch counts, global-memory traffic, padding waste, recompilation — not
// hand-tuned constants per system. The model is a roofline with launch
// latency and a wave/occupancy correction:
//
//   t = launch + max(flops / achieved_flops,  bytes / achieved_bandwidth)
//
// achieved_* depend on the kernel's launch geometry (too few threads cannot
// saturate DRAM) and on the variant (vectorized access streams better;
// scalar strided access wastes transactions).
#ifndef DISC_SIM_DEVICE_H_
#define DISC_SIM_DEVICE_H_

#include <string>

#include "kernel/kernel.h"
#include "kernel/library.h"

namespace disc {

/// Hardware parameters of a simulated accelerator.
struct DeviceSpec {
  std::string name;
  int sm_count = 40;
  double fp32_tflops = 8.1;     // peak FP32
  double dram_gbps = 320.0;     // peak DRAM bandwidth
  double kernel_launch_us = 4.0;  // host->device launch + driver latency
  int max_threads_per_sm = 1024;
  /// Threads needed in flight to saturate DRAM.
  int64_t saturation_threads = 32 * 1024;

  /// Same name and parameters: the model prices every kernel alike.
  bool operator==(const DeviceSpec&) const = default;

  /// NVIDIA A10 (GA102): 72 SMs, 31.2 TF FP32, 600 GB/s GDDR6.
  static DeviceSpec A10();
  /// NVIDIA T4 (TU104): 40 SMs, 8.1 TF FP32, 320 GB/s GDDR6.
  static DeviceSpec T4();
  /// Server-class x86 CPU (the paper's system also targets CPU backends):
  /// far lower peak but near-zero dispatch latency — launch-bound workloads
  /// shift character completely.
  static DeviceSpec XeonCpu();
};

/// Result of one kernel-cost estimation.
struct KernelCost {
  double time_us = 0.0;        // includes launch overhead
  double body_us = 0.0;        // excludes launch overhead
  bool memory_bound = false;
  double utilization = 1.0;    // fraction of DRAM bandwidth achievable
};

/// \brief Converts kernel footprints into simulated time on one device.
class DeviceModel {
 public:
  explicit DeviceModel(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }
  double launch_overhead_us() const { return spec_.kernel_launch_us; }

  /// \brief Cost of one generated (fused) kernel launch.
  KernelCost EstimateGenerated(const KernelStats& stats,
                               const KernelVariant& variant) const;

  /// \brief Cost of one vendor library call (GEMM/Conv). `efficiency`
  /// scales peak FLOPs (cuBLAS-class kernels reach ~0.85; a tuned
  /// TVM kernel ~0.9; a naive one less).
  KernelCost EstimateLibrary(const LibraryCallStats& stats,
                             double efficiency = 0.85) const;

 private:
  DeviceSpec spec_;
};

}  // namespace disc

#endif  // DISC_SIM_DEVICE_H_
