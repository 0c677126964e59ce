// Seeded inputs and outside-in replays shared by the workloads.
//
//   * HotSignatures: each model's small set of hot input-shape signatures.
//     Every signature comes from a fixed stratum (so the work mix is alike
//     from seed to seed) with a seeded jitter (so every seed gives other
//     shapes).
//   * SignatureDeck: the Zipf-like order in which a model draws them.
//   * ScheduleUnits: a dependency-respecting order of a fused graph's
//     units (one per fusion group, one per unfused node), rebuilt from the
//     public FusionPlan so kernels and library calls can be replayed and
//     timed one by one.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <string>
#include <utility>
#include <vector>

#include "fusion/fusion.h"
#include "ir/graph.h"
#include "models/models.h"
#include "runtime/buffer_plan.h"
#include "support/rng.h"

namespace perfbench {

inline constexpr int kHotSignatures = 4;

/// Hot signatures are indexed by size (0 smallest). Signature 1 is the
/// hottest, then 0, 3 and 2.
inline constexpr int kHottest = 1;
inline constexpr int kSecondHottest = 0;

/// Each deck of 20 draws holds signatures 0..3 exactly {5, 9, 2, 4} times,
/// in a seeded order. With costs rising with size, the exact shares put a
/// model's median in the middle of signature 1's runs and its p90 in the
/// middle of signature 3's, never on the edge between two signatures.
class SignatureDeck {
 public:
  int Next(disc::Rng* rng);

 private:
  std::vector<int> cards_;
  size_t next_ = 0;
};

/// Seeded hot signatures of a suite model or `gpt-step-batch`.
std::vector<disc::ShapeSet> HotSignatures(const std::string& model,
                                          int64_t hidden, disc::Rng* rng);

/// Likely values per dynamic-dim label, read off `signatures` in order —
/// the hint set a shape-feedback respecialization compile carries.
std::vector<std::pair<std::string, std::vector<int64_t>>> LikelyDimValues(
    const std::vector<std::vector<std::string>>& labels,
    const std::vector<disc::ShapeSet>& signatures);

/// True when `got` matches the reference outputs within the tolerances of
/// the tier-1 compiled-vs-reference model tests (rtol 1e-3, atol 1e-4).
bool OutputsMatch(const std::vector<disc::Tensor>& got,
                  const std::vector<disc::Tensor>& want);

/// One schedulable unit of a fused graph.
struct Unit {
  enum class Kind { kKernel, kConstant, kLibrary, kHost };
  Kind kind = Kind::kHost;
  int group = -1;                   // index into FusionPlan::groups
  const disc::Node* node = nullptr;  // unfused node
};

/// Orders the units so every unit's inputs are produced before it.
std::vector<Unit> ScheduleUnits(const disc::Graph& graph,
                                const disc::FusionPlan& plan);

/// The arena planner's step list for a unit schedule (constants pinned
/// through `keep_alive`, graph outputs too), as the compiler builds it.
std::vector<disc::PlanStep> ArenaSteps(
    const disc::Graph& graph, const disc::FusionPlan& plan,
    const std::vector<Unit>& units,
    std::vector<const disc::Value*>* keep_alive);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
