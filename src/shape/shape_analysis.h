// Whole-graph symbolic shape analysis ("shape information propagation").
//
// Walks the graph in topological order and derives, for every value,
//   * a SymShape — one DimExpr per dimension, and
//   * for small i64 "shape tensors" (outputs of shape_of/dim/constant/
//     concat/arithmetic), the symbolic *contents* — so a dynamic reshape
//     whose target shape was computed in the graph still gets precise
//     symbolic output dims (the cross-level linkage the paper relies on).
//
// Along the way it *excavates* constraints into the SymbolicDimManager:
// elementwise ops unify operand dims, matmul unifies contraction dims,
// reshape records product-equality facts, concat produces sum expressions.
//
// The same object doubles as the runtime's host-side shape program: Run()
// records each distinct canonical dim expression once, BindInputs() solves
// symbol values from concrete input shapes, and EvaluateShapes() evaluates
// each expression once into the ShapeTable every runtime consumer reads.
#ifndef DISC_SHAPE_SHAPE_ANALYSIS_H_
#define DISC_SHAPE_SHAPE_ANALYSIS_H_

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/graph.h"
#include "shape/dim_expr.h"
#include "shape/symbolic_dim.h"
#include "support/logging.h"

namespace disc {

/// Concrete symbol values solved from runtime input shapes.
using SymbolBindings = std::unordered_map<SymbolId, int64_t>;

/// \brief Provenance of one excavated symbolic-dim constraint: what was
/// learned and which IR op forced it. Serialized into the
/// `shape_constraints.json` artifact and queried by `disc_explain`.
struct ConstraintRecord {
  /// "merge-symbols" | "set-value" | "product-equal" | "likely-value".
  std::string kind;
  /// The constraint itself, canonical text, e.g. "s1 == s3",
  /// "s0 == 768", "[s0, s1, 64] ~ [(s0*s1), 64]", "s1 in {64, 128}".
  std::string detail;
  /// Node that introduced it (its output(0) value id as shown in IR
  /// dumps), or -1 for input seeding / user hints.
  int node_id = -1;
  /// Op name ("add", "reshape", "matmul", ...) or "input" / "user-hint".
  std::string source;

  std::string ToString() const;
};

/// \brief Every value's concrete dims under one signature
/// (ShapeAnalysis::EvaluateShapes). Every dim is non-negative, and every
/// value's element count and bytes fit in int64. Immutable once built, so
/// concurrent readers may share it; valid while its analysis lives.
class ShapeTable {
 public:
  /// Where a value's dims are in dims_ (by Value::id(); begin -1 for none).
  struct Range {
    int32_t begin = -1;
    int32_t rank = 0;
  };

  /// \brief The dims of `v`, a value of the analysed graph.
  std::span<const int64_t> dims(const Value* v) const {
    const Range range = ranges_->at(v->id());
    DISC_CHECK_GE(range.begin, 0) << "no shape for %" << v->id();
    return {dims_.data() + range.begin, static_cast<size_t>(range.rank)};
  }
  /// \brief The product of dims(v).
  int64_t num_elements(const Value* v) const {
    int64_t n = 1;
    for (int64_t d : dims(v)) n *= d;
    return n;
  }

 private:
  friend class ShapeAnalysis;
  const std::vector<Range>* ranges_ = nullptr;
  std::vector<int64_t> dims_;
};

/// \brief Runs and stores the symbolic shape analysis for one graph.
class ShapeAnalysis {
 public:
  /// `input_dim_labels`, if non-empty, is parallel to graph->inputs(); each
  /// entry holds one label per dimension ("" = anonymous). Dynamic dims with
  /// the same label share one symbolic dimension (e.g. the batch size of two
  /// inputs). Static dims ignore labels.
  explicit ShapeAnalysis(
      const Graph* graph,
      std::vector<std::vector<std::string>> input_dim_labels = {});

  ShapeAnalysis(const ShapeAnalysis&) = delete;
  ShapeAnalysis& operator=(const ShapeAnalysis&) = delete;

  /// \brief Propagates shapes through every node. Idempotent.
  Status Run();

  const Graph* graph() const { return graph_; }
  SymbolicDimManager& manager() { return manager_; }
  const SymbolicDimManager& manager() const { return manager_; }

  /// \brief Symbolic shape of a value (valid after Run()).
  const SymShape& GetShape(const Value* v) const;

  /// \brief Symbolic contents of an i64 shape-carrying value, if tracked.
  const std::vector<DimExpr>* GetContent(const Value* v) const;

  // --- constraint provenance ----------------------------------------------
  /// \brief Every excavated constraint in discovery order (deterministic:
  /// follows the topological walk). Records appended by the analysis
  /// itself; external seeders (e.g. likely-value hints from
  /// CompileOptions) may append via RecordConstraint.
  const std::vector<ConstraintRecord>& constraint_log() const {
    return constraint_log_;
  }
  void RecordConstraint(ConstraintRecord record) {
    constraint_log_.push_back(std::move(record));
  }
  /// \brief The log as pretty JSON (the `shape_constraints.json` artifact).
  std::string ConstraintsJson() const;

  // --- relational queries used by fusion/codegen ---------------------------
  bool IsShapeEqual(const Value* a, const Value* b) const;
  bool IsSameNumElements(const Value* a, const Value* b) const;
  bool IsDimEqual(const Value* a, int64_t da, const Value* b,
                  int64_t db) const;

  // --- runtime shape program -----------------------------------------------
  /// \brief Solves symbol values given concrete dims for every graph input
  /// (order parallel to graph->inputs()). Errors on inconsistency, e.g. two
  /// inputs that must share a batch size arriving with different sizes.
  Result<SymbolBindings> BindInputs(
      const std::vector<std::vector<int64_t>>& input_dims) const;

  /// \brief Evaluates each distinct dim expression once under the given
  /// bindings and gathers every value's dims. InvalidArgument when a dim
  /// is negative or a value's element count or bytes overflow int64.
  Result<ShapeTable> EvaluateShapes(const SymbolBindings& bindings) const;

  /// \brief Evaluates a single expression under bindings.
  Result<int64_t> EvaluateDim(const DimExpr& expr,
                              const SymbolBindings& bindings) const;

 private:
  Status ProcessNode(const Node* node);
  Status InferElementwise(const Node* node);
  // Combines two dims of a (numpy-aligned) elementwise op, excavating
  // equality constraints as a side effect.
  Result<DimExpr> CombineBroadcastDims(const DimExpr& a, const DimExpr& b);
  // Resolves the target shape of reshape/broadcast/iota from attr or the
  // shape operand's tracked contents; entries may be invalid (unknown).
  SymShape ResolveTarget(const Node* node, int64_t attr_rank_fallback);

  void SetShape(const Value* v, SymShape shape);
  void SetContent(const Value* v, std::vector<DimExpr> content);

  // Appends a provenance record attributed to the node currently being
  // processed (or "input" when outside ProcessNode).
  void Excavated(const char* kind, std::string detail);

  const Graph* graph_;
  std::vector<std::vector<std::string>> input_dim_labels_;
  SymbolicDimManager manager_;
  std::unordered_map<const Value*, SymShape> shapes_;
  std::unordered_map<const Value*, std::vector<DimExpr>> contents_;
  std::vector<ConstraintRecord> constraint_log_;
  const Node* current_node_ = nullptr;  // provenance attribution cursor
  bool ran_ = false;
  // The runtime shape program, recorded by Run(): the distinct canonical
  // dim expressions, every value's dims as indices into them, and where
  // each value's dims are.
  std::vector<DimExpr> dim_exprs_;
  std::vector<uint32_t> dim_expr_of_;
  std::vector<ShapeTable::Range> dim_ranges_;
};

}  // namespace disc

#endif  // DISC_SHAPE_SHAPE_ANALYSIS_H_
