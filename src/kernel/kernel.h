// Fused kernels: the unit of code generation and launch.
//
// A FusedKernel is compiled from one FusionGroup. It carries
//   * the group's symbolic shapes (extents and launch dims stay DimExprs
//     until the runtime binds them — "codegen supporting arbitrary shapes"),
//   * several specialization variants with runtime guards
//     (see specialize.cc), and
//   * a typed CPU executor (execute.cc), split in two steps:
//       - Bind, once per shape signature: reads every member's and input's
//         dims from the signature's ShapeTable, builds the operand views
//         and merged loop walks, resolves the reduce/slice/pad/concat/
//         gather/iota parameters, picks each member's loop instantiation
//         (op kind and dtypes fixed) and lays out one scratch block. Every
//         check on shapes and attributes happens here. The result, a KernelBinding, is immutable and
//         shared: the runtime keeps it in the launch plan, and concurrent
//         Runs use it without locking.
//       - Execute, per call: runs the bound loops on raw buffers the caller
//         supplies (KernelBuffers), allocating nothing and doing no
//         symbolic work. The runtime calls it with buffers in its Run's
//         arena. The env-map Execute, which perfbench's traced replay and
//         the tests call, is an adapter over it: it checks the input
//         tensors against the bound dtypes and dims and allocates the group
//         outputs and the scratch.
//     Each member is materialized once at its IR dtype, exactly as
//     EvaluateNode would, by the same scalar functions (ir/eval.h), so
//     every output is bit-identical to the reference evaluator's value for
//     that node, independent of the variant and of whether the binding was
//     cached. The scalar functions are force-inlined so that each loop,
//     instantiated for one op kind and dtype, runs the bare expression
//     rather than an out-of-line call that switches on the op per element.
//     f32 members with contiguous rows run AVX2 or AVX-512 row kernels
//     instead (kernel/elementwise.h), picked at Bind from the host ISA,
//     with the same outputs. Native rows (add, sub, mul, div, max, min,
//     neg, abs, relu, sqrt, reciprocal, floor, ceil) compute in f32: for
//     + - * / and sqrt, rounding through double and then to f32 equals one
//     f32 rounding (53 >= 2 * 24 + 2), and max, min, neg and abs add -0.0
//     to quiet a signalling NaN as widening does. rsqrt runs the scalar
//     functions' double operations. Checked rows (tanh, exp, sigmoid)
//     compute a vector approximation y with a proven relative error far
//     below 2^-44 and keep (float)y only when y * (1 - 2^-44) and
//     y * (1 + 2^-44) narrow to the same f32: libm is within that interval,
//     and narrowing is monotone, so it narrows to the same value. Other
//     lanes (NaN, or near a rounding boundary) run the scalar function.
//     Data movement copies through a quieting copy row, an in-group reshape
//     aliases its operand, and reductions over trailing dims reduce several
//     rows at once, each in the reference's order.
//
// Modeled GPU performance comes from the device model (disc::sim) and the
// KernelStats this class computes per (shape table, variant): global-memory
// traffic touches only group inputs/outputs (fusion's raison d'être),
// arithmetic is counted per member op, and the launch geometry follows the
// variant's schedule.
#ifndef DISC_KERNEL_KERNEL_H_
#define DISC_KERNEL_KERNEL_H_

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fusion/fusion.h"
#include "ir/contraction.h"
#include "ir/tensor.h"
#include "kernel/guard.h"
#include "shape/shape_analysis.h"

namespace disc {

/// How a reduction-bearing kernel maps rows to hardware.
enum class ReduceSchedule : uint8_t {
  kNone,         // no reduction in this kernel
  kWarpPerRow,   // short rows: one warp per row, warp shuffle reduce
  kBlockPerRow,  // long rows: one thread block per row, shared-mem tree
};

const char* ReduceScheduleName(ReduceSchedule schedule);

/// One compiled specialization of a kernel.
struct KernelVariant {
  std::string name;
  /// Runtime admission condition (empty = unconditional). Compile-time
  /// provable properties produce no predicates — they are baked in.
  Guard guard;
  /// SIMD lanes per thread (1 or 4). 4 requires the innermost extent to be
  /// divisible by 4 (guarded or proven).
  int vector_width = 1;
  /// True when per-element broadcast/index arithmetic was eliminated
  /// because all member shapes are provably identical.
  bool broadcast_free = false;
  /// Speculative exact-shape variant: compiled for one concrete binding of
  /// every symbol this kernel touches (from likely-value feedback). Gets
  /// static-codegen quality; admitted only when the equality guard holds.
  bool exact_shape = false;
  ReduceSchedule schedule = ReduceSchedule::kNone;

  std::string ToString() const;
};

/// Resource footprint of one launch, consumed by the device model.
struct KernelStats {
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t flops = 0;
  /// Address/index arithmetic per element (reduced by specialization).
  int64_t index_ops = 0;
  int64_t num_blocks = 0;
  int64_t threads_per_block = 0;
  int64_t shared_mem_bytes = 0;

  int64_t total_bytes() const { return bytes_read + bytes_written; }
};

/// Options controlling variant generation.
struct SpecializeOptions {
  bool enable_specialization = true;  // false = only the generic variant
  bool enable_vectorization = true;
  bool enable_broadcast_elimination = true;
  bool enable_reduce_schedules = true;
  /// Emit exact-shape speculative variants for symbols with likely values
  /// (runtime feedback / user hints recorded in the SymbolicDimManager).
  bool enable_shape_speculation = true;
  /// At most this many speculative variants per kernel.
  int max_speculative_variants = 2;
  int vector_width = 4;
  /// Rows at most this long get the warp-per-row schedule.
  int64_t warp_row_threshold = 1024;
  /// Warp-per-row needs at least this many rows to fill the device;
  /// fewer rows fall back to block-per-row for occupancy.
  int64_t warp_min_rows = 1024;
};

/// The executor state of one kernel under one shape signature; defined in
/// execute.cc and opaque everywhere else.
struct BoundKernel;

/// \brief A kernel bound to one shape signature (FusedKernel::Bind).
/// Immutable, so one binding may serve concurrent Executes; null means
/// unbound.
using KernelBinding = std::shared_ptr<const BoundKernel>;

/// \brief The buffers of one pointer-based FusedKernel::Execute. Group
/// input i is read from values[inputs[i]] and group output o is written to
/// values[outputs[o]]; each buffer holds its value at the IR dtype (float
/// for f32, int64_t for i64 and i1) and the bound dims, and no output
/// overlaps an input. `scratch` holds ScratchBytes(binding) bytes, 16-byte
/// aligned.
struct KernelBuffers {
  void* const* values;
  const int* inputs;
  const int* outputs;
  std::byte* scratch;
};

/// \brief A fused kernel compiled from one FusionGroup. The group's Nodes
/// and Values must outlive the kernel (the compiler owns the graph).
class FusedKernel {
 public:
  FusedKernel(FusionGroup group, const ShapeAnalysis* analysis,
              const SpecializeOptions& options);

  const FusionGroup& group() const { return group_; }
  FusionKind kind() const { return group_.kind; }
  const std::string& name() const { return name_; }
  const std::vector<KernelVariant>& variants() const { return variants_; }

  /// \brief Picks the first variant whose guard admits the bindings. The
  /// generic variant is last and unconditional, so this always succeeds.
  Result<const KernelVariant*> SelectVariant(
      const SymbolBindings& bindings) const;

  /// \brief Index form of SelectVariant: the guard outcome as a recordable
  /// decision. A launch plan stores this index so cache-hit runs replay
  /// the dispatch without re-evaluating any guard.
  Result<int> SelectVariantIndex(const SymbolBindings& bindings) const;

  /// \brief Does all the executor work that depends only on the signature
  /// whose dims `shapes` holds (see the file comment). Member shapes or
  /// attributes that disagree with each other are an error here, never at
  /// Execute.
  Result<KernelBinding> Bind(const ShapeTable& shapes) const;

  /// \brief Executes the kernel on the CPU from a binding of this kernel:
  /// reads the group inputs from `buffers` and writes the group outputs
  /// there, each bit-identical to EvaluateNode on its member whatever
  /// variant was selected. Checks no buffer (see KernelBuffers) and
  /// allocates nothing; on an error the outputs are partly written. Keeps no
  /// state, so concurrent calls (sharing one binding) are safe.
  Status Execute(const KernelBinding& binding,
                 const KernelBuffers& buffers) const;

  /// \brief Bytes of scratch Execute(binding, buffers) needs (0 for a null
  /// binding).
  int64_t ScratchBytes(const KernelBinding& binding) const;

  /// \brief The env-map form of Execute: reads group inputs from `env` and
  /// inserts the group outputs. Inputs whose dtype or dims disagree with the
  /// binding are an error, never read; on any error `env` is left
  /// unchanged. Allocates the outputs and the scratch, then runs the same
  /// core.
  Status Execute(const KernelBinding& binding,
                 std::unordered_map<const Value*, Tensor>* env) const;

  /// \brief Bind on the ShapeTable of `bindings`, then Execute(binding,
  /// env).
  Status Execute(const SymbolBindings& bindings,
                 std::unordered_map<const Value*, Tensor>* env) const;

  /// \brief The ISA of the vector row kernels `binding` runs
  /// (kernel/elementwise.h): generic when no member runs one, or when
  /// `binding` is null (a timing-only plan binds nothing).
  ContractionIsa RowIsa(const KernelBinding& binding) const;

  /// \brief Resource footprint of one variant at the dims `shapes` holds.
  KernelStats ComputeStats(const ShapeTable& shapes,
                           const KernelVariant& variant) const;

  /// \brief The variant list this kernel WOULD have been compiled with
  /// under `options` — the counterfactual the regret audit compares the
  /// compiled selection against. Does not mutate this kernel; the returned
  /// variants are valid inputs to ComputeStats.
  std::vector<KernelVariant> VariantsUnder(
      const SpecializeOptions& options) const;

  /// \brief Row length (product of reduced trailing dims) for reduce-
  /// bearing kernels; invalid DimExpr for pure loop kernels.
  const DimExpr& row_extent() const { return row_extent_; }
  /// \brief Row count (reduce-input elements / row_extent); invalid for
  /// pure loop kernels.
  const DimExpr& row_count() const { return row_count_; }
  /// \brief Element count of the root output (the launch domain).
  const DimExpr& root_elements() const { return root_elements_; }
  /// \brief The analysis whose shapes the kernel was compiled from.
  const ShapeAnalysis& analysis() const { return *analysis_; }

  /// Compile-time taint flags, set by the `kernel.miscompile` /
  /// `kernel.guard.mispredict` failpoints when the compiler emits this
  /// kernel. They model a *persistently* wrong artifact — the same
  /// executable is wrong at every run, which is what differential
  /// validation and quarantine must catch — as opposed to transient
  /// per-run faults (those are the runtime.* failpoints).
  void set_miscompiled(bool v) { miscompiled_ = v; }
  bool miscompiled() const { return miscompiled_; }
  void set_guard_mispredict(bool v) { guard_mispredict_ = v; }
  bool guard_mispredict() const { return guard_mispredict_; }

  std::string ToString() const;

 private:
  friend void BuildVariants(FusedKernel* kernel,
                            const SpecializeOptions& options);

  FusionGroup group_;
  const ShapeAnalysis* analysis_;
  std::string name_;
  std::vector<KernelVariant> variants_;
  DimExpr row_extent_;     // valid iff the group contains a reduction
  DimExpr row_count_;      // valid iff the group contains a reduction
  DimExpr root_elements_;  // symbolic launch domain size
  bool miscompiled_ = false;       // injected: perturbs one output element
  bool guard_mispredict_ = false;  // injected: always dispatches variant 0
};

/// \brief Per-element arithmetic cost of an op (relative to one FMA).
int64_t OpFlopCost(OpKind kind);

}  // namespace disc

#endif  // DISC_KERNEL_KERNEL_H_
