// Symbolic dimension expressions — the paper's cross-level shape
// representation.
//
// A DimExpr describes one tensor dimension as a function of *symbolic
// dimensions* (unknown-until-runtime sizes, e.g. batch or sequence length):
//
//   d = 4            a static dim
//   d = s0           a dynamic dim
//   d = s0 * s1      flattened [batch, seq] from a reshape
//   d = s0 + 128     a concat of a dynamic and a static part
//   d = ceildiv(s0, 2)  a strided slice
//
// The same expressions flow through every level of the stack: graph-level
// shape analysis derives them, the fusion planner compares them, compiled
// kernels keep them as launch-dimension/extent formulas, and the runtime
// evaluates them against concrete input sizes ("host-side shape
// computation"). Expressions are immutable, hash-consed-by-value and kept in
// a normal form so structural equality is meaningful:
//   * Add/Mul are n-ary, flattened, constant-folded and sorted;
//   * Add combines like terms (s + s -> 2*s);
//   * Mul keeps a single leading constant coefficient;
//   * FloorDiv/CeilDiv/Mod fold constants and drop /1.
#ifndef DISC_SHAPE_DIM_EXPR_H_
#define DISC_SHAPE_DIM_EXPR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/status.h"

namespace disc {

/// Identifier of a symbolic dimension (allocated by SymbolicDimManager).
using SymbolId = int32_t;

enum class DimExprKind : uint8_t {
  kConst,
  kSymbol,
  kAdd,      // n-ary sum
  kMul,      // n-ary product, operand 0 may be the constant coefficient
  kFloorDiv, // binary
  kCeilDiv,  // binary
  kMod,      // binary
};

class DimExpr;

namespace internal {
struct DimExprNode {
  DimExprKind kind;
  int64_t const_value = 0;  // kConst
  SymbolId symbol = -1;     // kSymbol
  std::vector<DimExpr> operands;
  std::string key;  // canonical rendering, computed at construction
};
}  // namespace internal

/// \brief An immutable symbolic dimension expression (value semantics;
/// cheap shared_ptr copies).
class DimExpr {
 public:
  /// Default: the invalid/empty expression; valid() is false.
  DimExpr() = default;

  static DimExpr Const(int64_t value);
  static DimExpr Symbol(SymbolId id);
  static DimExpr Add(const DimExpr& a, const DimExpr& b);
  static DimExpr Add(std::vector<DimExpr> terms);
  static DimExpr Mul(const DimExpr& a, const DimExpr& b);
  static DimExpr Mul(std::vector<DimExpr> factors);
  static DimExpr FloorDiv(const DimExpr& a, const DimExpr& b);
  static DimExpr CeilDiv(const DimExpr& a, const DimExpr& b);
  static DimExpr Mod(const DimExpr& a, const DimExpr& b);

  bool valid() const { return node_ != nullptr; }
  DimExprKind kind() const { return node_->kind; }

  bool IsConst() const { return valid() && node_->kind == DimExprKind::kConst; }
  /// \brief True when this is exactly the constant `value`.
  bool IsConstValue(int64_t value) const {
    return IsConst() && node_->const_value == value;
  }
  int64_t const_value() const { return node_->const_value; }
  bool IsSymbol() const {
    return valid() && node_->kind == DimExprKind::kSymbol;
  }
  SymbolId symbol() const { return node_->symbol; }
  const std::vector<DimExpr>& operands() const { return node_->operands; }

  /// \brief Structural equality on the normal form.
  bool Equals(const DimExpr& other) const;
  bool operator==(const DimExpr& other) const { return Equals(other); }

  /// \brief Canonical rendering, e.g. "(s0 * s1 + 128)"; also the
  /// comparison key.
  const std::string& ToString() const { return node_->key; }

  /// \brief All symbols referenced, deduplicated.
  std::vector<SymbolId> CollectSymbols() const;

  /// \brief Evaluates against concrete symbol values; error if a referenced
  /// symbol has no binding, a divisor evaluates to zero, or a sum, product
  /// or quotient overflows int64 (InvalidArgument).
  Result<int64_t> Evaluate(
      const std::unordered_map<SymbolId, int64_t>& bindings) const;

  /// \brief Replaces symbols per `subst` (absent symbols unchanged) and
  /// renormalizes.
  DimExpr Substitute(
      const std::unordered_map<SymbolId, DimExpr>& subst) const;

  /// \brief If the expression is provably divisible by `divisor` given
  /// per-symbol divisibility facts, returns true. Conservative.
  bool ProvablyDivisibleBy(
      int64_t divisor,
      const std::unordered_map<SymbolId, int64_t>& symbol_divisors) const;

  size_t Hash() const { return std::hash<std::string>()(node_->key); }

 private:
  explicit DimExpr(std::shared_ptr<const internal::DimExprNode> node)
      : node_(std::move(node)) {}
  static DimExpr Make(internal::DimExprNode node);

  std::shared_ptr<const internal::DimExprNode> node_;
};

/// A full symbolic shape: one DimExpr per dimension.
using SymShape = std::vector<DimExpr>;

/// \brief Renders e.g. "[s0, 128, (s1 * 4)]".
std::string SymShapeToString(const SymShape& shape);

/// \brief Product of all dims (empty -> 1), normalized.
DimExpr SymShapeNumElements(const SymShape& shape);

}  // namespace disc

#endif  // DISC_SHAPE_DIM_EXPR_H_
