// Dynamic-shape operator fusion.
//
// The planner never sees a concrete dimension; every legality and
// profitability decision is made through SymbolicDimManager queries
// (IsShapeEqual / IsSameNumElements / IsDimEqual / UpperBound) — the paper's
// central claim that fusion needs shape *relationships*, not shape *values*.
//
// Three fusion kinds, mirroring the paper (and XLA/AStitch terminology):
//   * kLoop   — a single parallel loop over the root output; members are
//               elementwise/injective/creation ops (multi-output allowed
//               when the extra outputs are shape-equal to the root).
//   * kInput  — a reduce-rooted kernel: the reduction plus its fused
//               producer expressions ("input fusion" in XLA terms).
//   * kStitch — several row-synchronized sub-kernels stitched through
//               on-chip (shared) memory: e.g. softmax's
//               reduce→sub→exp→reduce→div in ONE kernel. Legal when all
//               reductions cover the same trailing row dims and every
//               intermediate is row- or full-shaped.
#ifndef DISC_FUSION_FUSION_H_
#define DISC_FUSION_FUSION_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/graph.h"
#include "shape/shape_analysis.h"

namespace disc {

enum class FusionKind : uint8_t {
  kLoop,
  kInput,
  kStitch,
};

const char* FusionKindName(FusionKind kind);

/// One fused kernel-to-be.
struct FusionGroup {
  int id = -1;
  FusionKind kind = FusionKind::kLoop;
  /// Members in topological order.
  std::vector<Node*> nodes;
  /// The node defining the primary output (drives the iteration space).
  Node* root = nullptr;
  /// Values read from outside the group (kernel parameters).
  std::vector<Value*> inputs;
  /// Values produced in the group and visible outside (kernel results).
  std::vector<Value*> outputs;

  int64_t size() const { return static_cast<int64_t>(nodes.size()); }
  std::string ToString() const;
};

/// \brief Provenance for one considered producer->consumer fusion edge:
/// the verdict, the phase that decided it, and the shape constraint that
/// proved (or the missing constraint that blocked) the merge. The planner
/// keeps the *final* decision per pair — a pair rejected by loop fusion
/// but stitched later reads as fused. Serialized to
/// `fusion_decisions.json`; queried by `disc_explain --why-not-fused`.
struct FusionDecision {
  /// Node ids are the output(0) value ids, matching `%N` in IR dumps.
  int producer = -1;
  int consumer = -1;
  std::string producer_op;
  std::string consumer_op;
  /// Which planning phase issued the final verdict: "loop"|"input"|"stitch".
  std::string phase;
  bool fused = false;
  /// Verdict label, e.g. "same-num-elements-proven",
  /// "broadcast-compatible-dims", "blocked:static-shape-unknown",
  /// "blocked:would-create-cycle".
  std::string reason;
  /// The shape relation behind the verdict, in symbolic-dim terms, e.g.
  /// "numel[s0, 512] = (512*s0) == numel[(s0*512)] = (512*s0)".
  std::string constraint;

  std::string ToString() const;
};

/// Result of planning: a partition of the graph's fusable compute nodes.
/// Library ops (matmul/conv), constants and host shape ops are NOT in any
/// group — they are handled per-node by the compiler.
struct FusionPlan {
  std::vector<FusionGroup> groups;
  std::unordered_map<const Node*, int> group_of;  // node -> group id
  /// Final decision per considered producer->consumer pair, in first-
  /// consideration order (deterministic). Empty when
  /// FusionOptions::record_decisions is off.
  std::vector<FusionDecision> decisions;

  /// \brief Decisions involving this node-id pair in either direction.
  std::vector<const FusionDecision*> DecisionsFor(int a, int b) const;
  /// \brief The decision log as pretty JSON (`fusion_decisions.json`).
  std::string DecisionsJson() const;

  struct Stats {
    int64_t num_groups = 0;
    int64_t num_fused_nodes = 0;     // nodes in groups of size >= 2
    int64_t num_singleton_groups = 0;
    int64_t num_loop_groups = 0;
    int64_t num_input_groups = 0;
    int64_t num_stitch_groups = 0;
    /// Internal edges removed from memory traffic (count of intermediate
    /// tensors that no longer hit global memory).
    int64_t num_internalized_values = 0;
  };
  Stats GetStats() const;
  std::string ToString() const;
};

struct FusionOptions {
  /// Master switch; false = every fusable node is its own kernel.
  bool enable_fusion = true;
  /// Allow reduce-rooted (kInput) fusion.
  bool enable_input_fusion = true;
  /// Allow shared-memory stitching across reduce boundaries.
  bool enable_stitch = true;
  /// Use symbolic shape relations for legality. When false the planner only
  /// fuses edges whose shapes are *statically* known equal — modelling how a
  /// shape-value-based compiler degrades on dynamic graphs (ablation F2).
  bool use_symbolic_shapes = true;
  /// Upper bound on nodes per group.
  int64_t max_group_size = 64;
  /// Shared-memory budget per stitch kernel (bytes); rows whose proven
  /// upper bound exceeds this are not stitched.
  int64_t stitch_shared_memory_bytes = 48 * 1024;
  /// Record a FusionDecision (verdict + constraint provenance) for every
  /// considered producer->consumer pair into FusionPlan::decisions.
  bool record_decisions = true;
};

/// \brief Plans fusion groups for a graph. `analysis` must have Run().
class FusionPlanner {
 public:
  FusionPlanner(const Graph* graph, ShapeAnalysis* analysis,
                FusionOptions options = {});

  Result<FusionPlan> Plan();

 private:
  // Per-Plan() memos. Everything the sweeps ask of the shape analysis is a
  // function of the analysis (not mutated while planning) and the options,
  // so it is derived once and reused by later sweeps; the checks that
  // depend on group membership (secondary outputs, merge refusals, stitch
  // row spaces) are re-evaluated after every merge from these pieces.
  struct LoopVerdict {
    bool allowed = false;
    std::string reason;
    std::string constraint;
  };
  // A reduce's stitch row space: the streamed shape, the row extent and
  // row count, and their renderings.
  struct RowSpace {
    bool trailing = false;
    const Value* full = nullptr;  // the reduce's operand
    DimExpr row_extent;
    DimExpr rows;
    std::optional<int64_t> row_upper_bound;
    std::string full_text;  // canonical full shape
    std::string rows_text;  // canonical row count
  };

  // True for nodes that can live inside a loop nest.
  bool IsFusableCompute(const Node* node) const;
  bool IsReduce(const Node* node) const { return IsReduction(node->kind()); }

  // Legality of fusing across the producer->consumer edge, by shape
  // relations (or static equality when use_symbolic_shapes is off), with
  // the verdict's provenance. Memoized per (value, consumer).
  const LoopVerdict& LoopShapeVerdict(const Value* producer_out,
                                      const Node* consumer);
  LoopVerdict ComputeLoopShapeVerdict(const Value* producer_out,
                                      const Node* consumer);

  // Memoized symbolic element-count equality of two values' shapes.
  bool ProvenSameNumElements(const Value* a, const Value* b);
  // Element-count equality under the options: symbolic proof, or static
  // equality when use_symbolic_shapes is off.
  bool SameNumElements(const Value* a, const Value* b);
  const RowSpace& RowSpaceOf(const Node* reduce);
  // Memoized: `v`'s element count is the row count of `reduce`'s space.
  bool IsRowShaped(const Value* v, const Node* reduce);

  // Group bookkeeping over a mutable union-find.
  bool IsFusable(const Node* node) const { return IndexOf(node) >= 0; }
  int IndexOf(const Node* node) const { return index_of_[node->id()]; }
  int GroupOf(const Node* node);
  // `block_reason` (optional) receives why a merge was refused.
  bool TryMergeGroups(int ga, int gb, std::string* block_reason = nullptr);
  bool MergeWouldCreateCycle(int ga, int gb);
  // True when a value of group `g` is read outside groups `g` and
  // `other`, or is a graph output.
  bool UsedOutside(const Value* out, int g, int other);

  // Phases.
  void RunLoopFusion();
  void RunInputFusion();
  void RunStitchFusion();
  bool StitchCompatible(int ga, int gb, std::string* reason = nullptr,
                        std::string* constraint = nullptr);

  // Renders "numel[shape] = (expr)" for constraint messages. Memoized.
  const std::string& NumElementsText(const Value* v);
  // Records the latest verdict for a producer->consumer pair (last wins
  // across fixpoint sweeps and phases). No-op unless record_decisions.
  void RecordDecision(const Node* producer, const Node* consumer,
                      const char* phase, bool fused,
                      const std::string& reason,
                      const std::string& constraint);

  Result<FusionPlan> Finalize();

  const Graph* graph_;
  ShapeAnalysis* analysis_;
  FusionOptions options_;

  std::vector<Node*> topo_;
  // Dense per-node tables, indexed by Node::id().
  std::vector<int> index_of_;  // union-find index, -1 when not fusable
  std::vector<int> topo_pos_;
  std::vector<int> mark_;  // stamps for the cycle check
  int stamp_ = 0;
  // Dense per-value table, indexed by Value::id().
  std::vector<char> is_graph_output_;
  // Union-find over node indices.
  std::vector<int> parent_;
  int Find(int x);
  std::vector<std::vector<Node*>> members_;  // root index -> nodes

  std::optional<NumElementsProver> prover_;
  std::unordered_map<uint64_t, LoopVerdict> loop_verdicts_;
  std::unordered_map<uint64_t, bool> same_num_elements_;
  std::unordered_map<uint64_t, bool> row_shaped_;
  std::unordered_map<int, RowSpace> row_spaces_;
  std::unordered_map<int, std::string> num_elements_text_;

  // Decision log: final verdict per (producer, consumer) node-id pair,
  // in first-consideration order.
  std::vector<FusionDecision> decisions_;
  std::unordered_map<int64_t, size_t> decision_index_;
};

}  // namespace disc

#endif  // DISC_FUSION_FUSION_H_
