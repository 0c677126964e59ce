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
//   * the solved SymbolBindings,
//   * per step: the selected KernelVariant index, the KernelStats /
//     LibraryCallStats (launch dims live inside KernelStats), and the
//     concrete byte sizes of every buffer the step allocates,
//   * once the plan serves a data-mode Run: each kernel's KernelBinding
//     (its executor bound to these shapes, so a hit runs pre-bound loops)
//     and the host shape-step results (tiny integer tensors that are
//     themselves pure functions of the signature).
// A plan built by a timing-only Run carries neither; the first data-mode
// Run that hits it binds it once and republishes it.
//
// The plan deliberately does NOT bake in device time: costs are
// re-estimated from the recorded stats through the DeviceModel on every
// Run, so a cached Run sees identical simulated device timing under any
// RunOptions (device, library efficiency, graph replay) — only the host
// overhead shrinks. This mirrors real BladeDISC's runtime shape-signature
// dispatch; CUDA-graph replay is the degenerate form of the same idea and
// shares the signature key (see ShapeSignature).
//
// LaunchPlanCache is a bounded, thread-safe LRU over canonical signature
// strings. Plans are immutable once published (shared_ptr<const>), so
// concurrent Runs on one Executable may share a plan freely.
#ifndef DISC_RUNTIME_LAUNCH_PLAN_H_
#define DISC_RUNTIME_LAUNCH_PLAN_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/tensor.h"
#include "kernel/kernel.h"
#include "kernel/library.h"
#include "shape/shape_analysis.h"

namespace disc {

/// \brief Canonical cache key for a set of concrete input shapes, e.g.
/// "1x8x256;1x32x256;". One Executable fixes input count/ranks/dtypes, so
/// the dims alone identify the signature. Shared by the launch-plan cache
/// and the engines' CUDA-graph capture sets.
std::string ShapeSignature(const std::vector<std::vector<int64_t>>& input_dims);

/// \brief Inverse of ShapeSignature: "1x8x256;1x32x256;" back into dims.
/// Used to turn recorded signatures (flight-recorder outliers, plan-cache
/// keys) into replayable probe bindings for differential validation.
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
  /// Concrete byte size per buffer this step allocates, in the same order
  /// the step defines its outputs (caching-allocator mode).
  std::vector<int64_t> alloc_bytes;
  /// The kernel's executor bound to this signature (kKernel steps of a
  /// bound plan). Immutable and shared by concurrent Runs.
  KernelBinding binding;
  /// Host shape-step results (kHost steps, recorded by data-mode runs).
  /// Runs share them read-only; Run copies a graph output that is one.
  std::vector<Tensor> host_results;
  bool has_host_results = false;
};

/// Everything the host derives from one shape signature.
struct LaunchPlan {
  SymbolBindings bindings;
  std::vector<PlannedStep> steps;  // parallel to Executable's step schedule
  /// Concrete arena size: the symbolic peak-bytes formula evaluated for
  /// this signature (0 when the module has no device values). Memoized
  /// here so an arena-mode Run on a plan hit performs no size arithmetic
  /// and exactly one allocator call — and so admission control can read a
  /// hot signature's footprint off the cache.
  int64_t arena_bytes = 0;
  /// True once the plan can serve data-mode runs: every kernel step holds
  /// its binding and every host step its results. Plans built by
  /// timing-only runs are bound on their first data-mode hit.
  bool bound = false;
};

/// \brief Bounded thread-safe LRU: signature -> immutable LaunchPlan.
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

  /// \brief Returns the plan for `signature` (bumping it to most-recent)
  /// or nullptr on a miss. Counts a hit/miss either way.
  std::shared_ptr<const LaunchPlan> Lookup(const std::string& signature);

  /// \brief Observational lookup: no hit/miss accounting, no LRU bump.
  /// Used by admission control to read a signature's memoized footprint
  /// without distorting the cache stats that benches and tests assert on.
  std::shared_ptr<const LaunchPlan> Peek(const std::string& signature) const;

  /// \brief Publishes a plan, evicting the least-recently-used entry when
  /// at capacity. Re-inserting an existing signature replaces the plan
  /// (used to attach host results recorded by the first data-mode run).
  void Insert(const std::string& signature,
              std::shared_ptr<const LaunchPlan> plan);

  /// \brief Drops entries (oldest first) until `size() <= capacity`.
  void set_capacity(size_t capacity);

  Stats stats() const;
  void Clear();

 private:
  void EvictIfNeededLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  // Most-recently-used at the front.
  std::list<std::pair<std::string, std::shared_ptr<const LaunchPlan>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
  Stats stats_;
};

}  // namespace disc

#endif  // DISC_RUNTIME_LAUNCH_PLAN_H_
