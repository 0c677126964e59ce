// The compiled artifact and its runtime.
//
// An Executable owns the optimized graph, the shape analysis (whose DimExprs
// double as the host-side shape program), the fusion plan and the compiled
// kernels. One compilation serves every input shape: each Run solves the
// symbolic dims from the actual input shapes, evaluates every kernel's
// guards to pick variants, computes launch dims, and executes — no
// recompilation, mirroring the paper's compile-once design.
//
// Runs are split into two phases (see runtime/launch_plan.h):
//   * plan build  — all host-side work that depends only on the input-
//     shape signature: symbol solve, the shape table (every value's dims,
//     evaluated and checked once), guard evaluation, launch geometry,
//     library footprints, buffer sizes and the arena size, the Run's
//     totals (launches, bytes, variant counts), each step's simulated cost
//     and the Run's device time under the building Run's device and
//     library efficiency, and each memory mode's allocation tape (the
//     allocator's whole traffic, recorded once); for plans that serve
//     data-mode Runs also the data layout (kernel bindings, resolved
//     library calls, every value's offset);
//   * plan execute — the allocator checks against the tape, trace spans
//     and kernel-ledger observations per step, and (in data mode) numeric
//     execution from a finished plan. A Run under the plan's pricing key
//     reads its device time from the plan; one under another key prices
//     each step. A timing-only Run under the plan's key that nothing
//     observes step by step (no failpoint armed, no memory limit, tracing
//     and the kernel ledger off) walks no step.
// Plans are memoized per signature in a bounded thread-safe LRU keyed by
// the input dims, so repeated-shape Runs (decode loops, hot serving
// signatures) skip the symbolic phase entirely. A timing-only hit
// allocates nothing, and a data-mode hit allocates only its returned
// outputs. Cached runs are strictly observational: same outputs
// bit-for-bit, same simulated device time, same profile — less host work.
//
// Data path. Compile numbers every value a step reads or writes with a
// dense index. A data-mode Run checks its inputs' dtypes, takes one byte
// buffer from a per-executable pool (grown when a plan needs more, never
// zero-filled) and resolves every value to a pointer through a dense
// table: graph inputs, constants and host results are read in place,
// graph outputs are written straight into the returned tensors, and every
// other kernel or library result lives in the buffer at its arena slot's
// offset (runtime/memory_plan.h), which the plan evaluated once. Kernel
// steps run their bound loops on those pointers and library steps call
// the contraction kernels with the plan's resolved call, all sharing one
// scratch region past the arena. The arena frees a slot only after its
// occupant's last use, so no step's outputs overlap its inputs. Under
// AddressSanitizer the buffer is poisoned except for the values live at
// each step, so a loop that runs past its value still fails.
//
// Device memory follows the compile-time arena plan in both memory modes:
// the arena mode allocates its peak formula once, and the caching-allocator
// mode frees each value after the last-use step the plan's liveness pass
// found. Both are simulated once per signature, when the plan records its
// tapes; the mode chooses only that accounting, and both run the same data
// path, so their outputs are bit-identical by construction.
//
// Run outputs never alias tensors the executable owns: an output whose
// value is a constant or a host shape-step result (which plans record and
// replay) is returned as a copy; every other output is fresh per Run.
//
// Two run modes, one per entry point:
//   * data mode (Run)             — executes numerics on the CPU and
//                                   simulates timing;
//   * timing-only (RunWithShapes) — skips data movement entirely (shapes
//                                   suffice), used by the benchmarks so
//                                   sweeps stay fast.
#ifndef DISC_RUNTIME_EXECUTABLE_H_
#define DISC_RUNTIME_EXECUTABLE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fusion/fusion.h"
#include "ir/graph.h"
#include "ir/tensor.h"
#include "kernel/kernel.h"
#include "runtime/allocator.h"
#include "runtime/launch_plan.h"
#include "runtime/memory_plan.h"
#include "sim/device.h"

namespace disc {

/// How a Run's simulated device allocator books device values. The data
/// path is the same in both modes (see the file comment).
enum class MemoryMode {
  /// One CachingAllocator call per live value (the baseline; reuse happens
  /// dynamically through the allocator's size-class cache). Values are
  /// freed after the last-use step the arena plan's liveness found.
  kCachingAllocator,
  /// A single allocation of the symbolic peak formula: every value —
  /// constants included — lives at a compile-time offset in one arena.
  /// With a launch-plan cache hit the Run does no size arithmetic.
  kArena,
};

struct RunOptions {
  DeviceSpec device = DeviceSpec::A10();
  /// Fraction of peak FLOPs the vendor library reaches for GEMM/Conv
  /// (cuBLAS-class 0.85; tuned TVM/TensorRT kernels higher).
  double library_efficiency = 0.85;
  /// CUDA-Graph-style replay: all kernel launches of the run are submitted
  /// as one captured graph, paying the driver launch latency once plus a
  /// small per-node replay cost. Only valid when the caller has verified
  /// the shape signature matches a previous capture (CUDA graphs are
  /// shape-static); engines gate this on their signature cache.
  bool batch_launches = false;
  /// Memoize the host-side launch plan per shape signature. Cached plans
  /// never change outputs or simulated device time (ablation knob for the
  /// launch-overhead bench; Inductor-style engines that re-check guards
  /// every call turn it off).
  bool use_launch_plan_cache = true;
  /// Device-memory capacity for this run's allocator; 0 = unlimited.
  /// Dynamic shapes make the footprint a per-request quantity, so blowing
  /// the limit returns ResourceExhausted from Run (retryable) instead of
  /// aborting the process.
  int64_t memory_limit_bytes = 0;
  /// Memory-planning strategy of the simulated allocator. Defaults to the
  /// caching allocator so existing byte-stable baselines (F7/F9/F10 count
  /// per-value allocator traffic and failpoint fires) are unchanged; the
  /// arena is opt-in via engines/benches. Outputs are bit-identical across
  /// modes — only the booked allocation pattern differs.
  MemoryMode memory_mode = MemoryMode::kCachingAllocator;
};

/// Counters collected during one Run.
struct RunProfile {
  double device_time_us = 0.0;
  int64_t kernel_launches = 0;  // generated kernels
  int64_t library_calls = 0;
  int64_t memory_bound_launches = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t peak_memory_bytes = 0;
  /// Device allocator traffic (size-class cache hits are free on the hot
  /// path; misses map/reserve new memory).
  int64_t alloc_calls = 0;
  int64_t alloc_cache_hits = 0;
  /// Bytes lost to size-class rounding across this run's allocations
  /// (zero in arena mode: the plan aligns every slot to the quantum).
  int64_t alloc_rounding_waste = 0;
  /// Concrete arena size for this signature (arena mode only, else 0).
  int64_t arena_bytes = 0;
  /// True when this Run replayed a memoized launch plan (signature hit).
  bool launch_plan_hit = false;
  /// Measured wall-clock host cost of obtaining the launch plan: symbol
  /// solve + guard eval + launch geometry + buffer sizes on a miss, a
  /// hash lookup on a hit. Real time, not simulated.
  double host_plan_us = 0.0;
  /// Launches per "kernel/variant" name, shared with the launch plan (set
  /// by every successful Run).
  std::shared_ptr<const VariantCounts> variant_counts;

  std::string ToString() const;
};

struct RunResult {
  std::vector<Tensor> outputs;  // empty in timing-only mode
  RunProfile profile;
};

/// Summary of one compilation, for reporting and the compile-time bench.
struct CompileReport {
  double compile_ms = 0.0;
  /// Wall-clock per pipeline phase, in pipeline order (graph-passes,
  /// shape-analysis, fusion-planning, kernel-compile, step-schedule,
  /// memory-planning), then an `other` row holding the rest of
  /// compile_ms, so the rows sum to compile_ms.
  std::vector<std::pair<std::string, double>> phase_ms;
  int64_t num_nodes_before = 0;
  int64_t num_nodes_after = 0;
  FusionPlan::Stats fusion;
  SymbolicDimManager::Stats shapes;
  int64_t num_kernels = 0;
  int64_t num_variants = 0;
  /// Symbolic arena plan (memory-planning phase): slot count, cross-size
  /// reuses ProvablyLe discharged, and values that fell back to a fresh
  /// slot because their size was incomparable with every free slot.
  int64_t arena_slots = 0;
  int64_t arena_cross_size_reuses = 0;
  int64_t arena_fallbacks = 0;

  std::string ToString() const;
  /// One line per phase: "graph-passes 0.42ms (31%)".
  std::string PhaseBreakdown() const;
};

/// \brief A compiled, shape-polymorphic module. Create via DiscCompiler.
class Executable {
 public:
  /// Forgets this executable's entries in the kernel-profile ledger: a
  /// feedback-driven hot swap can destroy an observed executable while
  /// the ledger still holds pointers into its kernels.
  ~Executable();

  /// \brief Full run: numerics + simulated timing.
  Result<RunResult> Run(const std::vector<Tensor>& inputs,
                        const RunOptions& options = {}) const;

  /// \brief Timing-only run from input shapes.
  Result<RunResult> RunWithShapes(
      const std::vector<std::vector<int64_t>>& input_dims,
      const RunOptions& options = {}) const;

  const Graph& graph() const { return *graph_; }
  const ShapeAnalysis& analysis() const { return *analysis_; }
  const FusionPlan& plan() const { return plan_; }
  const std::vector<std::unique_ptr<FusedKernel>>& kernels() const {
    return kernels_;
  }
  const CompileReport& report() const { return report_; }
  /// Symbolic arena plan: per-value byte offsets into one arena, the
  /// symbolic peak-bytes formula, and the per-step release lists the
  /// caching-allocator mode frees by (memory-planning compile phase).
  const MemoryPlan& memory_plan() const { return memory_plan_; }

  /// \brief Evaluates the symbolic peak formula for one input signature —
  /// the arena footprint a Run with these shapes would need — without
  /// running anything. Serves memory-aware admission: a launch-plan cache
  /// hit answers from the memoized plan (no size arithmetic); a miss binds
  /// the symbols and evaluates the formula (cheap, and does not disturb
  /// cache stats or LRU order). Returns 0 when no plan exists.
  Result<int64_t> PredictPeakBytes(
      const std::vector<std::vector<int64_t>>& input_dims) const;

  /// \brief Hit/miss/eviction counters of the launch-plan LRU.
  LaunchPlanCache::Stats plan_cache_stats() const {
    return plan_cache_.stats();
  }
  /// \brief Bounds the launch-plan LRU (default 128 signatures). Shrinking
  /// evicts oldest entries immediately; 0 disables caching.
  void set_plan_cache_capacity(size_t capacity) const {
    plan_cache_.set_capacity(capacity);
  }
  /// \brief Drops every memoized launch plan. Called when this executable
  /// is hot-swapped out of an ExecutableSlot: plans encode this
  /// executable's buffer sizes and kernel variants, so a replacement must
  /// never inherit them (plan caches are per-Executable, which already
  /// namespaces them — clearing additionally frees the stale plans and
  /// makes a swapped-out executable safe to re-install later).
  void ClearPlanCache() const { plan_cache_.Clear(); }

  std::string ToString() const;

 private:
  friend class DiscCompiler;
  Executable() = default;

  struct Step {
    enum class Kind { kConstant, kHost, kLibrary, kKernel };
    Kind kind;
    const Node* node = nullptr;        // kConstant/kHost/kLibrary
    const FusedKernel* kernel = nullptr;  // kKernel
    const Tensor* constant = nullptr;  // kConstant: the node's value
  };

  /// A step's values for the data path, by dense index (values_), kept
  /// apart from Step so that the steps a timing-only Run walks stay small.
  struct StepValues {
    /// What the step reads (a kernel's group inputs, else the node's
    /// operands) and writes (a kernel's group outputs, else the node's
    /// results), in that order.
    std::vector<int> reads, writes;
    /// Values whose live range ends here (MemoryPlan::release_after_step);
    /// AddressSanitizer builds poison them after the step.
    std::vector<int> releases;
  };

  /// A value some step reads or writes: its defining step and result
  /// index, or step -1 and the input index for a graph input.
  struct ValueDef {
    const Value* value = nullptr;
    int step = -1;
    int result = 0;
    bool graph_output = false;
  };

  /// The byte buffer and dense value table of one data-mode Run.
  struct RunBuffer {
    std::unique_ptr<std::byte[]> storage;
    std::byte* base = nullptr;  // storage, aligned to 64 bytes
    int64_t capacity = 0;       // bytes usable from base
    std::vector<void*> values;  // dense value index -> the value's buffer
  };

  /// `input_dims` is null for a data-mode Run, whose dims are its inputs'.
  Result<RunResult> RunInternal(const InputDims* input_dims,
                                const std::vector<Tensor>* inputs,
                                const RunOptions& options) const;

  /// Checks a data-mode Run's input count and dtypes against the graph's.
  Status CheckInputs(const std::vector<Tensor>& inputs) const;

  /// Phase 1: all host-side symbolic work for one signature, priced under
  /// `options`' device and library efficiency. `bind` also lays out the
  /// data path (plans that serve data-mode runs).
  Result<LaunchPlan> BuildLaunchPlan(const InputDims& input_dims,
                                     const RunOptions& options,
                                     bool bind) const;

  /// The one pricing function: the simulated cost of kernel or library
  /// step `s` from its recorded stats in `ps`, on `model` at
  /// `library_efficiency`.
  KernelCost PriceStep(size_t s, const PlannedStep& ps,
                       const DeviceModel& model,
                       double library_efficiency) const;

  /// Lays out `plan`'s data path (see LaunchPlan): binds every kernel step,
  /// resolves every library call and places every value, checking that
  /// each fits its place and that every buffer agrees with the shape
  /// analysis.
  Status BindData(const InputDims& input_dims, LaunchPlan* plan) const;

  /// Phase 2: charge the plan's device time (pricing each step when the
  /// Run's key is not the plan's), check the plan's allocations and
  /// (optionally) execute numerics from a finished plan. Hits and misses
  /// both run through here. `buffer` is the Run's buffer in data mode and
  /// null in timing-only mode. `record` (data mode; null when the plan is
  /// a bound, cached one) is the plan itself: it receives the host
  /// shape-step results so later hits can replay them, and is then marked
  /// bound. `signature` keys the kernel-observatory flush (empty when the
  /// ledger is disabled — RunInternal only computes it on demand).
  Result<RunResult> ExecutePlan(const LaunchPlan& plan,
                                const std::vector<Tensor>* inputs,
                                const RunOptions& options,
                                const std::string& signature,
                                LaunchPlan* record, RunBuffer* buffer) const;

  /// The data half of ExecutePlan, kept out of its step loop. StartData
  /// points the value table at the inputs and at fresh tensors for the
  /// graph outputs that kernel and library steps write; RunStepData runs
  /// step `s`'s data; FinishData fills in the other outputs.
  void StartData(const LaunchPlan& plan, const std::vector<Tensor>& inputs,
                 RunBuffer* buffer, std::vector<Tensor>* outputs) const;
  Status RunStepData(size_t s, const LaunchPlan& plan,
                     const std::vector<Tensor>& inputs, LaunchPlan* record,
                     RunBuffer* buffer) const;
  void FinishData(const LaunchPlan& plan, const std::vector<Tensor>& inputs,
                  std::vector<Tensor>* outputs) const;

  /// A value a host step reads, as a tensor: the input, constant or host
  /// result itself, or a copy of a kernel or library result's bytes.
  Tensor HostOperand(int value, const LaunchPlan& plan,
                     const std::vector<Tensor>& inputs,
                     const RunBuffer& buffer) const;

  /// Takes a pooled Run buffer of at least `bytes`; ReturnRunBuffer puts
  /// it back. Concurrent Runs take different buffers.
  std::unique_ptr<RunBuffer> TakeRunBuffer(int64_t bytes) const;
  void ReturnRunBuffer(std::unique_ptr<RunBuffer> buffer) const;

  /// Numbers every value the steps read or write (values_, step_values_,
  /// output_values_). Runs once at compile time, after memory planning.
  Status IndexValues();

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<ShapeAnalysis> analysis_;
  FusionPlan plan_;
  std::vector<std::unique_ptr<FusedKernel>> kernels_;
  std::vector<Step> steps_;
  std::vector<StepValues> step_values_;  // parallel to steps_
  /// Dense value index -> definition: the graph inputs first (index =
  /// input index), then each step's writes in schedule order.
  std::vector<ValueDef> values_;
  /// Per graph output: its dense value index, and the first graph output
  /// with the same value (a kernel or library result is returned as one
  /// tensor however often it repeats).
  std::vector<int> output_values_;
  std::vector<int> output_first_;
  MemoryPlan memory_plan_;
  CompileReport report_;
  /// Signature -> launch plan. Logically a cache, hence mutable: Run stays
  /// const and the cache is internally synchronized.
  mutable LaunchPlanCache plan_cache_;
  /// Idle data-mode Run buffers.
  mutable std::mutex buffer_mu_;
  mutable std::vector<std::unique_ptr<RunBuffer>> free_buffers_;
};

}  // namespace disc

#endif  // DISC_RUNTIME_EXECUTABLE_H_
