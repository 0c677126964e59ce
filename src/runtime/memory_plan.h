// Symbolic arena memory planning (BladeDISC++'s "compile-time memory
// optimization under dynamic shapes"): every device value receives a byte
// *offset* into a single arena, valid for EVERY runtime shape.
//
// The planner runs liveness over the step schedule and lets two values
// share arena space when their live ranges are disjoint and their sizes
// are *comparable* under the constraint system —
// `SymbolicDimManager::ProvablyLe` discharges "does size A fit in the
// space of size B for every shape?" with divisor and bound facts. Three
// reuse forms:
//   * exact   — canonical size expressions are equal
//   * fit     — the new value provably fits below the slot's size
//   * widen   — the slot provably fits in the new value's size; the slot
//               grows (sound: every earlier occupant fit the old size)
// Sizes that compare with no free slot fall back to a fresh slot and are
// recorded with a reason so `disc_explain --memory-plan` /
// memory_plan.json can show why.
//
// This liveness pass is the runtime's only one: the plan also lists, per
// step, the values whose last use it is, and the caching-allocator memory
// mode frees exactly those after the step.
//
// Slot sizes are aligned to kArenaAlignment up front, so offsets (prefix
// sums) are aligned for every binding and a single arena allocation incurs
// zero size-class rounding waste in CachingAllocator. The arena size is
// the symbolic `peak_bytes` formula: evaluate it once per shape signature
// (memoized in the launch-plan cache) and the Run hot path does a single
// cached allocation — and serving can *predict* a batch's footprint before
// running it (memory-aware admission).
#ifndef DISC_RUNTIME_MEMORY_PLAN_H_
#define DISC_RUNTIME_MEMORY_PLAN_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "ir/graph.h"
#include "runtime/buffer_plan.h"
#include "shape/shape_analysis.h"

namespace disc {

/// Arena offsets are multiples of this; matches CachingAllocator's
/// size-class quantum so arena allocations round-trip waste-free.
inline constexpr int64_t kArenaAlignment = 256;

/// One arena slot: an aligned symbolic byte size and the symbolic byte
/// offset of its base within the arena.
struct ArenaSlot {
  DimExpr bytes;   // aligned: provably divisible by kArenaAlignment
  DimExpr offset;  // prefix sum of preceding slot sizes
};

/// Why a value did not share any existing arena slot.
struct ArenaFallback {
  int value_id = -1;   // Value::id() of the value ( -1 for synthetic items)
  std::string bytes;   // canonical aligned size expression
  std::string reason;  // e.g. "incomparable with free slots [...]"
};

/// Planner input decoupled from IR values so property tests can drive
/// randomized schedules directly. Live interval is the inclusive step
/// range [def_step, last_use_step].
struct ArenaItem {
  DimExpr bytes;          // un-aligned symbolic byte size
  int def_step = 0;
  int last_use_step = 0;  // clamped up to def_step
  bool pinned = false;    // never recycled (graph outputs, constants)
  int value_id = -1;      // provenance for fallback records
};

/// Raw planner output, parallel to the input items.
struct ArenaLayout {
  std::vector<int> slot_of;  // item index -> slot id
  std::vector<ArenaSlot> slots;
  DimExpr peak_bytes;  // sum of aligned slot sizes == symbolic arena size
  int64_t num_reused = 0;            // placements into an existing slot
  int64_t num_cross_size_reuses = 0; // fit / widen placements
  std::vector<ArenaFallback> fallbacks;
};

/// \brief Assigns arena slots and offsets over a synthetic schedule.
ArenaLayout PlanArenaItems(const std::vector<ArenaItem>& items,
                           const SymbolicDimManager& manager);

/// The compile-phase product carried by Executable: value -> slot, slot
/// offset/size expressions, and the symbolic peak-bytes formula.
struct MemoryPlan {
  bool planned = false;  // false when the phase did not run
  std::unordered_map<const Value*, int> slot_of;
  std::vector<ArenaSlot> slots;
  DimExpr peak_bytes;
  int64_t num_values = 0;
  int64_t num_reused = 0;
  int64_t num_cross_size_reuses = 0;
  std::vector<ArenaFallback> fallbacks;
  /// Per schedule step: the unpinned values whose live range ends there (a
  /// value no step reads ends at its own step), in definition order. The
  /// caching allocator frees them after the step.
  std::vector<std::vector<const Value*>> release_after_step;

  int64_t num_slots() const { return static_cast<int64_t>(slots.size()); }
  std::string ToString() const;
  /// Deterministic memory_plan.json artifact (dump subsystem).
  std::string ToJson() const;
};

/// \brief Plans the arena over the compiler's step schedule, one entry per
/// executable step. `steps` should include constants (they become pinned
/// arena residents, so a Run needs no further allocations); `keep_alive`
/// values are pinned too.
MemoryPlan PlanArena(const std::vector<PlanStep>& steps,
                     const std::vector<const Value*>& keep_alive,
                     const ShapeAnalysis& analysis);

}  // namespace disc

#endif  // DISC_RUNTIME_MEMORY_PLAN_H_
