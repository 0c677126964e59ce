// Shape-signature launch plans: memoizing the host-side work of a Run.
//
// "Compile once, run any shape" still pays a per-launch host cost: every
// Run must solve the symbolic dims from the input shapes, evaluate each
// kernel's guards to pick a variant, compute launch geometry and library
// footprints, and size every buffer and the arena. All of that is a pure
// function of the input-shape signature — so for the dominant serving
// pattern (decode loops, repeat-heavy traces) it can be done once per
// signature and replayed.
//
// A LaunchPlan records everything the host derives from one signature:
//   * the solved SymbolBindings, and the ShapeTable: every value's dims,
//     each distinct dim expression evaluated once and every dim checked
//     once, which every later step of plan build reads,
//   * per step: the selected KernelVariant index and the KernelStats /
//     LibraryCallStats (launch dims live inside KernelStats),
//   * per step: its simulated cost (KernelCost), and the Run's device
//     totals, priced once under the plan's pricing key (see below),
//   * the Run's totals: launch and library-call counts, bytes moved and
//     the per-variant launch counts,
//   * per memory mode, the allocation tape: every allocator call a Run
//     makes, with the bytes in use before it, and the allocator's final
//     stats — the caching allocator's whole size-class traffic over the
//     schedule, recorded once, so a Run books no memory itself;
//   * once the plan serves a data-mode Run, its data layout: each kernel's
//     KernelBinding (its executor bound to these shapes, so a hit runs
//     pre-bound loops), each library step's resolved ContractionCall (dims
//     and ISA), the host shape-step results (tiny integer tensors that are
//     themselves pure functions of the signature), and each kernel and
//     library result's byte offset in the Run's buffer:
//     its arena slot's offset, evaluated once, with one scratch region past
//     the arena that the steps share, sized to the largest kernel scratch
//     or contraction pack.
// A plan built by a timing-only Run carries no data layout; the first
// data-mode Run that hits it binds it once and republishes it.
//
// The plan stores device time under one pricing key: the DeviceSpec and
// library efficiency of the Run that built it. Plan build prices every
// kernel and library step once (Executable's one pricing function turns
// the step's KernelStats or LibraryCallStats into a KernelCost through the
// DeviceModel) and sums the Run's device time for direct launches and for
// graph replay, in step order from 0.0, as a Run would. A Run under that
// key reads the costs and totals; a Run under any other key (another
// device or library efficiency) prices each step through the same
// function, so every key sees identical simulated device timing, hit or
// miss, and only the host overhead shrinks. Graph replay is not part of
// the key: both totals are stored. Likewise a Run still makes every
// allocation's checks (the `runtime.alloc` failpoint, the memory limit)
// against the tape, so fault schedules and limit failures do not depend on
// hit or miss. This mirrors real BladeDISC's runtime shape-signature
// dispatch; CUDA-graph replay is the degenerate form of the same idea and
// shares the signature (see ShapeSignature).
//
// LaunchPlanCache is a bounded, thread-safe LRU keyed by the input dims
// themselves: a rank-aware hash picks the bucket and an exact compare
// confirms the entry, so a lookup builds no key and allocates nothing —
// from a list of dims or straight from a data-mode Run's input tensors.
// Plans are immutable once published (shared_ptr<const>), so concurrent
// Runs on one Executable may share a plan freely.
#ifndef DISC_RUNTIME_LAUNCH_PLAN_H_
#define DISC_RUNTIME_LAUNCH_PLAN_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/eval.h"
#include "ir/tensor.h"
#include "kernel/kernel.h"
#include "kernel/library.h"
#include "runtime/allocator.h"
#include "shape/shape_analysis.h"
#include "sim/device.h"

namespace disc {

/// \brief Canonical string form of a set of concrete input shapes, e.g.
/// "1x8x256;1x32x256;". One Executable fixes input count/ranks/dtypes, so
/// the dims alone identify the signature. Names a signature wherever a
/// string is needed: trace args, the kernel ledger, the engines'
/// CUDA-graph capture sets and shadow-validation probes.
std::string ShapeSignature(const std::vector<std::vector<int64_t>>& input_dims);

/// \brief Inverse of ShapeSignature: "1x8x256;1x32x256;" back into dims.
/// Used to turn recorded signatures (flight-recorder outliers) into
/// replayable probe bindings for differential validation.
/// Rejects strings ShapeSignature could not have produced.
Result<std::vector<std::vector<int64_t>>> ParseShapeSignature(
    const std::string& signature);

/// Recorded host-side decisions for one executable step.
struct PlannedStep {
  /// Index into FusedKernel::variants() (kKernel steps only).
  int variant_index = 0;
  /// Launch geometry + traffic of the selected variant (kKernel steps).
  KernelStats kernel_stats;
  /// Footprint of the vendor call (kLibrary steps).
  LibraryCallStats library_stats;
  /// The step's simulated cost under the plan's pricing key (kKernel and
  /// kLibrary steps).
  KernelCost cost;
  /// The kernel's executor bound to this signature (kKernel steps of a
  /// bound plan). Immutable and shared by concurrent Runs.
  KernelBinding binding;
  /// Host shape-step results (kHost steps, recorded by data-mode runs).
  /// Runs share them read-only; Run copies a graph output that is one.
  std::vector<Tensor> host_results;
  bool has_host_results = false;
};

/// What a step of a bound plan needs beyond its PlannedStep, kept apart so
/// that the steps a timing-only Run walks stay small.
struct DataStep {
  /// The contraction a library step runs.
  ContractionCall call;
  /// Bytes of the plan's scratch region the step uses: the kernel's scratch
  /// or the contraction's pack.
  int64_t scratch_bytes = 0;
};

/// One allocator call of a Run: the requested bytes and the bytes in use
/// just before it — what CachingAllocator::CheckAllocation needs.
struct TapedAlloc {
  int64_t bytes = 0;
  int64_t in_use_before = 0;
};

/// A Run's allocator traffic in one memory mode, recorded at plan build by
/// running the caching allocator's size-class bookkeeping over the
/// schedule: each step's outputs in definition order, then the step's
/// release list (MemoryPlan::release_after_step). Arena mode first
/// allocates the whole arena and skips its residents. No call asks for a
/// negative size: the plan's ShapeTable checked every value's dims.
struct AllocationTape {
  /// Every allocator call, in Run order.
  std::vector<TapedAlloc> allocs;
  /// Step s makes allocs [step_begin[s], step_begin[s + 1]); the calls
  /// before step_begin[0] come first (the arena). Size: steps + 1.
  std::vector<uint32_t> step_begin;
  /// The allocator's stats after the whole Run.
  CachingAllocator::Stats stats;
};

/// Launch counts per "kernel/variant" name.
using VariantCounts = std::map<std::string, int64_t>;

/// A Run's simulated device totals: its kernel and library steps' costs,
/// summed in step order from 0.0.
struct DeviceTotals {
  /// Device time with one driver launch per step (KernelCost::time_us).
  double direct_us = 0.0;
  /// Device time replaying a captured graph: each step's body plus the
  /// per-node replay cost, before the graph's one launch.
  double graph_us = 0.0;
  /// Steps the model finds memory-bound.
  int64_t memory_bound = 0;
};

/// Everything the host derives from one shape signature.
struct LaunchPlan {
  SymbolBindings bindings;
  /// Every value's dims under this signature.
  ShapeTable shapes;
  std::vector<PlannedStep> steps;  // parallel to Executable's step schedule
  /// Concrete arena size: the symbolic peak-bytes formula evaluated for
  /// this signature (0 when the module has no device values). Memoized
  /// here so admission control can read a hot signature's footprint off
  /// the cache.
  int64_t arena_bytes = 0;
  /// The pricing key (a Run's RunOptions::device and
  /// RunOptions::library_efficiency) that every step's cost and the fields
  /// below were priced under, at plan build.
  DeviceSpec priced_device;
  double priced_library_efficiency = 0.0;
  DeviceTotals device_totals;
  /// Each kernel launch's KernelCost::utilization, in step order.
  std::vector<double> kernel_utilizations;
  /// A Run's totals, which depend only on the signature.
  int64_t kernel_launches = 0;
  int64_t library_calls = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  /// Set by plan build; shared with every RunProfile the plan serves.
  std::shared_ptr<const VariantCounts> variant_counts;
  /// Allocator traffic of a caching-allocator-mode and an arena-mode Run.
  AllocationTape caching_tape;
  AllocationTape arena_tape;
  /// The data layout of a bound plan: data_steps, and over the
  /// executable's dense value indices, value_offsets (the byte offset in a
  /// Run's buffer of each kernel or library result that lives there, -1
  /// for the rest: graph inputs, constants and host results are read in
  /// place, and graph outputs are written into the returned tensors).
  /// The buffer holds the arena [0, arena_bytes), then a region for i1
  /// results (stored as int64_t, wider than their arena slots), then the
  /// scratch region at scratch_offset, buffer_bytes in all.
  std::vector<DataStep> data_steps;  // parallel to steps
  std::vector<int64_t> value_offsets;
  int64_t scratch_offset = 0;
  int64_t buffer_bytes = 0;
  /// True once the plan can serve data-mode runs: it holds the data layout
  /// and every host step its results. Plans built by timing-only runs are
  /// bound on their first data-mode hit.
  bool bound = false;
};

/// The concrete dims of a Run's inputs, one vector per input.
using InputDims = std::vector<std::vector<int64_t>>;

/// \brief Bounded thread-safe LRU: input dims -> immutable LaunchPlan.
class LaunchPlanCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    int64_t entries = 0;
    int64_t capacity = 0;
  };

  explicit LaunchPlanCache(size_t capacity = 128) : capacity_(capacity) {}

  /// \brief Returns the plan for `input_dims` (bumping it to most-recent)
  /// or nullptr on a miss. Counts a hit/miss either way. Allocates nothing.
  std::shared_ptr<const LaunchPlan> Lookup(const InputDims& input_dims);
  /// \brief Lookup by the dims of a Run's input tensors.
  std::shared_ptr<const LaunchPlan> LookupInputs(
      const std::vector<Tensor>& inputs);

  /// \brief Observational lookup: no hit/miss accounting, no LRU bump.
  /// Used by admission control to read a signature's memoized footprint
  /// without distorting the cache stats that benches and tests assert on.
  std::shared_ptr<const LaunchPlan> Peek(const InputDims& input_dims) const;

  /// \brief Publishes a plan, evicting the least-recently-used entry when
  /// at capacity. Re-inserting an existing signature replaces the plan
  /// (used to attach host results recorded by the first data-mode run).
  void Insert(const InputDims& input_dims,
              std::shared_ptr<const LaunchPlan> plan);

  /// \brief Drops entries (oldest first) until `size() <= capacity`.
  void set_capacity(size_t capacity);

  Stats stats() const;
  void Clear();

 private:
  struct Entry {
    InputDims dims;
    std::shared_ptr<const LaunchPlan> plan;
  };
  // The index keys on a pointer to dims: an entry's own (list nodes never
  // move) or, for a lookup, the caller's dims or input tensors. Hash and
  // equality read through it, so a lookup needs no key of its own.
  struct DimsKey {
    const InputDims* dims = nullptr;            // or
    const std::vector<Tensor>* tensors = nullptr;
    size_t size() const { return dims ? dims->size() : tensors->size(); }
    const std::vector<int64_t>& operator[](size_t i) const {
      return dims ? (*dims)[i] : (*tensors)[i].dims();
    }
  };
  struct DimsHash {
    size_t operator()(const DimsKey& key) const;
  };
  struct DimsEqual {
    bool operator()(const DimsKey& a, const DimsKey& b) const;
  };

  std::shared_ptr<const LaunchPlan> LookupKey(const DimsKey& key);
  void EvictIfNeededLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  // Most-recently-used at the front.
  std::list<Entry> lru_;
  std::unordered_map<DimsKey, std::list<Entry>::iterator, DimsHash, DimsEqual>
      index_;
  Stats stats_;
};

}  // namespace disc

#endif  // DISC_RUNTIME_LAUNCH_PLAN_H_
