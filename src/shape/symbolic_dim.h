// SymbolicDimManager: the global store of symbolic dimensions and the
// constraints the compiler learns about them.
//
// This is the paper's "systematic abstraction and excavation of shape
// information": instead of concrete dim values, the compiler accumulates
//   * equality   (union-find over symbols; s2 == s5)
//   * constants  (s3 == 768, discovered when a symbol meets a static dim)
//   * divisibility (s0 % 4 == 0 — e.g. user hint or padded allocator)
//   * ranges     (1 <= s1 <= 512 — bucket hints)
//   * likely values (runtime feedback used to choose kernel variants)
//   * product equality (reshape facts: [s0, s1, 768] ~ [s0*s1, 768])
// and answers the relational queries fusion and codegen actually need.
#ifndef DISC_SHAPE_SYMBOLIC_DIM_H_
#define DISC_SHAPE_SYMBOLIC_DIM_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "shape/dim_expr.h"
#include "support/status.h"

namespace disc {

/// Per-equivalence-class knowledge about a symbolic dimension.
struct SymbolInfo {
  std::string name;                  // debug name, e.g. "batch"
  std::optional<int64_t> value;      // known constant, if proven
  int64_t divisor = 1;               // dim % divisor == 0 is guaranteed
  int64_t lower_bound = 1;           // dims are at least 1 by default
  int64_t upper_bound = INT64_MAX;
  std::vector<int64_t> likely_values;  // runtime feedback / user hints
};

/// \brief Allocates symbols, merges equal ones, stores constraints and
/// answers symbolic queries. One instance lives per compiled graph and is
/// shared by every compilation level (the "cross-level" property).
class SymbolicDimManager {
 public:
  SymbolicDimManager() = default;

  /// \brief Allocates a fresh symbolic dimension.
  SymbolId NewSymbol(const std::string& name_hint = "");

  int64_t num_symbols() const { return static_cast<int64_t>(parent_.size()); }

  /// \brief Canonical representative of `id`'s equivalence class.
  SymbolId Find(SymbolId id) const;

  /// \brief Records that two symbols always hold the same value.
  /// Fails if their known constants conflict.
  Status MergeSymbols(SymbolId a, SymbolId b);

  /// \brief Records a known constant value; fails on conflict.
  Status SetValue(SymbolId id, int64_t value);
  std::optional<int64_t> GetValue(SymbolId id) const;

  /// \brief Records that the dim is always a multiple of `divisor`.
  void AddDivisibility(SymbolId id, int64_t divisor);
  int64_t GetDivisor(SymbolId id) const;

  /// \brief Narrows the value range (intersection with existing).
  Status SetRange(SymbolId id, int64_t lower, int64_t upper);
  std::pair<int64_t, int64_t> GetRange(SymbolId id) const;

  /// \brief Appends a likely runtime value (kept unique, most recent last).
  void AddLikelyValue(SymbolId id, int64_t value);
  const std::vector<int64_t>& GetLikelyValues(SymbolId id) const;

  const SymbolInfo& Info(SymbolId id) const;

  /// \brief Records that two dim-expression products are always equal
  /// (a reshape fact), after canonicalization.
  void AddProductEqual(const SymShape& lhs, const SymShape& rhs);

  // --- queries ------------------------------------------------------------

  /// \brief Rewrites an expression replacing every symbol by its class
  /// representative (or constant value when known), renormalizing.
  DimExpr Canonicalize(const DimExpr& expr) const;
  SymShape Canonicalize(const SymShape& shape) const;

  /// \brief True when the two dims are provably always equal.
  bool IsDimEqual(const DimExpr& a, const DimExpr& b) const;

  /// \brief True when the two shapes are provably elementwise equal
  /// (same rank, all dims equal).
  bool IsShapeEqual(const SymShape& a, const SymShape& b) const;

  /// \brief True when the two shapes provably cover the same number of
  /// elements (uses product-equality facts with cancellation). Each call
  /// decomposes the facts it tries; a caller with many queries keeps a
  /// NumElementsProver instead.
  bool IsSameNumElements(const SymShape& a, const SymShape& b) const;

  /// \brief True when the dim is provably a multiple of `divisor`.
  bool IsDivisibleBy(const DimExpr& expr, int64_t divisor) const;

  /// \brief Upper bound of the expression if one can be derived (simple
  /// interval arithmetic over +, * and constants); nullopt otherwise.
  std::optional<int64_t> UpperBound(const DimExpr& expr) const;

  /// \brief Lower bound of the expression if one can be derived. Mirrors
  /// UpperBound; symbols fall back to their recorded lower bound (>= 1 by
  /// default), so this usually succeeds even when UpperBound cannot.
  /// Handles the negative constant coefficients that subtraction
  /// (`Add(b, Mul(-1, a))`) introduces by flipping to UpperBound.
  std::optional<int64_t> LowerBound(const DimExpr& expr) const;

  /// \brief True when `a <= b` holds for EVERY runtime binding consistent
  /// with the recorded facts. Proven either structurally (equal canonical
  /// forms; ceildiv/floordiv monotonicity in the numerator) or numerically
  /// via LowerBound(b - a) >= 0. Conservative: `false` means "not
  /// provable", not "a > b" — callers must treat it as incomparable.
  bool ProvablyLe(const DimExpr& a, const DimExpr& b) const;

  /// \brief Statistics for reporting (experiment T3).
  struct Stats {
    int64_t num_symbols = 0;
    int64_t num_classes = 0;          // after unification
    int64_t num_known_constants = 0;  // classes with proven value
    int64_t num_product_facts = 0;
  };
  Stats GetStats() const;

  std::string ToString() const;

 private:
  friend class NumElementsProver;

  // True when some symbol of `expr` is not its class root or has a known
  // value, i.e. when Canonicalize would rewrite it.
  bool NeedsCanonicalize(const DimExpr& expr) const;

  mutable std::vector<SymbolId> parent_;  // union-find (path halving in Find)
  std::vector<SymbolInfo> info_;          // indexed by root at access time
  std::vector<std::pair<SymShape, SymShape>> product_facts_;
};

/// \brief The one implementation of SymbolicDimManager::IsSameNumElements,
/// decomposing each recorded product fact at most once per prover. The
/// manager's own query uses a throwaway prover; a caller that asks many
/// questions of an unchanging manager (the fusion planner, within one
/// Plan()) keeps one, so later queries reuse the decomposed facts. It must
/// not outlive a mutation of the manager, and belongs to one thread.
class NumElementsProver {
 public:
  explicit NumElementsProver(const SymbolicDimManager& manager)
      : manager_(manager) {}

  /// \brief Same answer as manager.IsSameNumElements(a, b).
  bool IsSameNumElements(const SymShape& a, const SymShape& b);

 private:
  // x / y as a reduced coefficient ratio and the nonzero exponent
  // differences of their factors (symbols and opaque sub-expressions, by
  // canonical key).
  struct Quotient {
    std::pair<int64_t, int64_t> coeff;
    std::map<std::string, int> factors;
    bool operator==(const Quotient& other) const = default;
  };
  // Decomposes a product into constant coefficient and factor exponents.
  struct ProductForm {
    int64_t coeff = 1;
    std::map<std::string, int> factors;
  };
  ProductForm Decompose(const SymShape& dims) const;
  static Quotient QuotientOf(const ProductForm& x, const ProductForm& y);

  const SymbolicDimManager& manager_;
  // lhs/rhs and rhs/lhs of the facts decomposed so far, in fact order.
  std::vector<std::pair<Quotient, Quotient>> facts_;
};

}  // namespace disc

#endif  // DISC_SHAPE_SYMBOLIC_DIM_H_
