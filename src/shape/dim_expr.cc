#include "shape/dim_expr.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/logging.h"
#include "support/math_util.h"
#include "support/string_util.h"

namespace disc {

namespace {

std::string RenderKey(const internal::DimExprNode& node) {
  switch (node.kind) {
    case DimExprKind::kConst:
      return std::to_string(node.const_value);
    case DimExprKind::kSymbol:
      return "s" + std::to_string(node.symbol);
    case DimExprKind::kAdd:
      return "(" +
             JoinMapped(node.operands, " + ",
                        [](const DimExpr& e) { return e.ToString(); }) +
             ")";
    case DimExprKind::kMul:
      return "(" +
             JoinMapped(node.operands, " * ",
                        [](const DimExpr& e) { return e.ToString(); }) +
             ")";
    case DimExprKind::kFloorDiv:
      return "floordiv(" + node.operands[0].ToString() + ", " +
             node.operands[1].ToString() + ")";
    case DimExprKind::kCeilDiv:
      return "ceildiv(" + node.operands[0].ToString() + ", " +
             node.operands[1].ToString() + ")";
    case DimExprKind::kMod:
      return "mod(" + node.operands[0].ToString() + ", " +
             node.operands[1].ToString() + ")";
  }
  return "?";
}

bool KeyLess(const DimExpr& a, const DimExpr& b) {
  return a.ToString() < b.ToString();
}

Status Overflow(const DimExpr& e) {
  return Status::InvalidArgument(e.ToString() + " overflows int64");
}

}  // namespace

DimExpr DimExpr::Make(internal::DimExprNode node) {
  node.key = RenderKey(node);
  return DimExpr(
      std::make_shared<const internal::DimExprNode>(std::move(node)));
}

DimExpr DimExpr::Const(int64_t value) {
  internal::DimExprNode node;
  node.kind = DimExprKind::kConst;
  node.const_value = value;
  return Make(std::move(node));
}

DimExpr DimExpr::Symbol(SymbolId id) {
  DISC_CHECK_GE(id, 0);
  internal::DimExprNode node;
  node.kind = DimExprKind::kSymbol;
  node.symbol = id;
  return Make(std::move(node));
}

DimExpr DimExpr::Add(const DimExpr& a, const DimExpr& b) {
  return Add(std::vector<DimExpr>{a, b});
}

DimExpr DimExpr::Add(std::vector<DimExpr> terms) {
  // Flatten nested sums.
  std::vector<DimExpr> flat;
  for (const DimExpr& t : terms) {
    DISC_CHECK(t.valid());
    if (t.kind() == DimExprKind::kAdd) {
      flat.insert(flat.end(), t.operands().begin(), t.operands().end());
    } else {
      flat.push_back(t);
    }
  }
  // Split each term into (coefficient, monomial-key, monomial-expr) and
  // combine like terms. The monomial of a kMul with a constant head is the
  // Mul of the remaining factors.
  int64_t const_sum = 0;
  struct Bucket {
    int64_t coeff = 0;
    DimExpr monomial;
  };
  std::map<std::string, Bucket> buckets;
  for (const DimExpr& t : flat) {
    if (t.IsConst()) {
      const_sum += t.const_value();
      continue;
    }
    int64_t coeff = 1;
    DimExpr monomial = t;
    if (t.kind() == DimExprKind::kMul && t.operands()[0].IsConst()) {
      coeff = t.operands()[0].const_value();
      std::vector<DimExpr> rest(t.operands().begin() + 1, t.operands().end());
      monomial = rest.size() == 1 ? rest[0] : Mul(std::move(rest));
    }
    Bucket& b = buckets[monomial.ToString()];
    b.coeff += coeff;
    b.monomial = monomial;
  }
  std::vector<DimExpr> result_terms;
  for (auto& [key, bucket] : buckets) {
    (void)key;
    if (bucket.coeff == 0) continue;
    if (bucket.coeff == 1) {
      result_terms.push_back(bucket.monomial);
    } else {
      result_terms.push_back(Mul(Const(bucket.coeff), bucket.monomial));
    }
  }
  std::sort(result_terms.begin(), result_terms.end(), KeyLess);
  if (const_sum != 0 || result_terms.empty()) {
    result_terms.push_back(Const(const_sum));
  }
  if (result_terms.size() == 1) return result_terms[0];
  internal::DimExprNode node;
  node.kind = DimExprKind::kAdd;
  node.operands = std::move(result_terms);
  return Make(std::move(node));
}

DimExpr DimExpr::Mul(const DimExpr& a, const DimExpr& b) {
  return Mul(std::vector<DimExpr>{a, b});
}

DimExpr DimExpr::Mul(std::vector<DimExpr> factors) {
  // Flatten nested products, folding constants into one coefficient.
  int64_t coeff = 1;
  std::vector<DimExpr> rest;
  rest.reserve(factors.size() + 1);
  auto take = [&](const DimExpr& f) {
    if (f.IsConst()) {
      coeff *= f.const_value();
    } else {
      rest.push_back(f);
    }
  };
  for (const DimExpr& f : factors) {
    DISC_CHECK(f.valid());
    if (f.kind() == DimExprKind::kMul) {
      for (const DimExpr& op : f.operands()) take(op);
    } else {
      take(f);
    }
  }
  if (coeff == 0) return Const(0);
  if (rest.empty()) return Const(coeff);
  std::sort(rest.begin(), rest.end(), KeyLess);
  if (coeff == 1 && rest.size() == 1) return rest[0];
  if (coeff != 1) rest.insert(rest.begin(), Const(coeff));
  internal::DimExprNode node;
  node.kind = DimExprKind::kMul;
  node.operands = std::move(rest);
  return Make(std::move(node));
}

DimExpr DimExpr::FloorDiv(const DimExpr& a, const DimExpr& b) {
  DISC_CHECK(a.valid() && b.valid());
  if (b.IsConstValue(1)) return a;
  if (a.IsConst() && b.IsConst() && b.const_value() != 0) {
    return Const(a.const_value() / b.const_value());
  }
  if (a.Equals(b)) return Const(1);
  // (c * x) / c -> x when the coefficient divides exactly.
  if (b.IsConst() && b.const_value() != 0 &&
      a.kind() == DimExprKind::kMul && a.operands()[0].IsConst() &&
      a.operands()[0].const_value() % b.const_value() == 0) {
    std::vector<DimExpr> rest(a.operands().begin() + 1, a.operands().end());
    int64_t c = a.operands()[0].const_value() / b.const_value();
    rest.insert(rest.begin(), Const(c));
    return Mul(std::move(rest));
  }
  internal::DimExprNode node;
  node.kind = DimExprKind::kFloorDiv;
  node.operands = {a, b};
  return Make(std::move(node));
}

DimExpr DimExpr::CeilDiv(const DimExpr& a, const DimExpr& b) {
  DISC_CHECK(a.valid() && b.valid());
  if (b.IsConstValue(1)) return a;
  if (a.IsConst() && b.IsConst() && b.const_value() != 0) {
    return Const(disc::CeilDiv(a.const_value(), b.const_value()));
  }
  if (a.Equals(b)) return Const(1);
  internal::DimExprNode node;
  node.kind = DimExprKind::kCeilDiv;
  node.operands = {a, b};
  return Make(std::move(node));
}

DimExpr DimExpr::Mod(const DimExpr& a, const DimExpr& b) {
  DISC_CHECK(a.valid() && b.valid());
  if (b.IsConstValue(1)) return Const(0);
  if (a.IsConst() && b.IsConst() && b.const_value() != 0) {
    return Const(a.const_value() % b.const_value());
  }
  if (a.Equals(b)) return Const(0);
  internal::DimExprNode node;
  node.kind = DimExprKind::kMod;
  node.operands = {a, b};
  return Make(std::move(node));
}

bool DimExpr::Equals(const DimExpr& other) const {
  if (node_ == other.node_) return true;
  if (!valid() || !other.valid()) return false;
  return node_->key == other.node_->key;
}

namespace {

// Appends the symbols of `e` not yet in `out`, in first-seen order.
void CollectSymbolsInto(const DimExpr& e, std::vector<SymbolId>* out) {
  if (e.IsSymbol()) {
    if (std::find(out->begin(), out->end(), e.symbol()) == out->end()) {
      out->push_back(e.symbol());
    }
    return;
  }
  for (const DimExpr& op : e.operands()) CollectSymbolsInto(op, out);
}

}  // namespace

std::vector<SymbolId> DimExpr::CollectSymbols() const {
  std::vector<SymbolId> result;
  if (valid()) CollectSymbolsInto(*this, &result);
  return result;
}

Result<int64_t> DimExpr::Evaluate(
    const std::unordered_map<SymbolId, int64_t>& bindings) const {
  DISC_CHECK(valid());
  switch (node_->kind) {
    case DimExprKind::kConst:
      return node_->const_value;
    case DimExprKind::kSymbol: {
      auto it = bindings.find(node_->symbol);
      if (it == bindings.end()) {
        return Status::NotFound("unbound symbol s" +
                                std::to_string(node_->symbol));
      }
      return it->second;
    }
    case DimExprKind::kAdd:
    case DimExprKind::kMul: {
      const bool add = node_->kind == DimExprKind::kAdd;
      int64_t result = add ? 0 : 1;
      for (const DimExpr& op : node_->operands) {
        DISC_ASSIGN_OR_RETURN(int64_t v, op.Evaluate(bindings));
        if (add ? __builtin_add_overflow(result, v, &result)
                : __builtin_mul_overflow(result, v, &result)) {
          return Overflow(*this);
        }
      }
      return result;
    }
    case DimExprKind::kFloorDiv:
    case DimExprKind::kCeilDiv:
    case DimExprKind::kMod: {
      DISC_ASSIGN_OR_RETURN(int64_t a, node_->operands[0].Evaluate(bindings));
      DISC_ASSIGN_OR_RETURN(int64_t b, node_->operands[1].Evaluate(bindings));
      if (b == 0) return Status::InvalidArgument("division by zero");
      if (node_->kind == DimExprKind::kCeilDiv) {
        // disc::CeilDiv's (a + b - 1) / b, which asks for a positive b.
        if (b < 0) return Status::InvalidArgument("negative ceildiv divisor");
        int64_t numerator;
        if (__builtin_add_overflow(a, b - 1, &numerator)) {
          return Overflow(*this);
        }
        return numerator / b;
      }
      if (a == INT64_MIN && b == -1) return Overflow(*this);
      return node_->kind == DimExprKind::kFloorDiv ? a / b : a % b;
    }
  }
  return Status::Internal("invalid DimExpr");
}

DimExpr DimExpr::Substitute(
    const std::unordered_map<SymbolId, DimExpr>& subst) const {
  DISC_CHECK(valid());
  switch (node_->kind) {
    case DimExprKind::kConst:
      return *this;
    case DimExprKind::kSymbol: {
      auto it = subst.find(node_->symbol);
      return it == subst.end() ? *this : it->second;
    }
    case DimExprKind::kAdd: {
      std::vector<DimExpr> terms;
      for (const DimExpr& op : node_->operands) {
        terms.push_back(op.Substitute(subst));
      }
      return Add(std::move(terms));
    }
    case DimExprKind::kMul: {
      std::vector<DimExpr> factors;
      for (const DimExpr& op : node_->operands) {
        factors.push_back(op.Substitute(subst));
      }
      return Mul(std::move(factors));
    }
    case DimExprKind::kFloorDiv:
      return FloorDiv(node_->operands[0].Substitute(subst),
                      node_->operands[1].Substitute(subst));
    case DimExprKind::kCeilDiv:
      return CeilDiv(node_->operands[0].Substitute(subst),
                     node_->operands[1].Substitute(subst));
    case DimExprKind::kMod:
      return Mod(node_->operands[0].Substitute(subst),
                 node_->operands[1].Substitute(subst));
  }
  return *this;
}

bool DimExpr::ProvablyDivisibleBy(
    int64_t divisor,
    const std::unordered_map<SymbolId, int64_t>& symbol_divisors) const {
  DISC_CHECK(valid());
  DISC_CHECK_GT(divisor, 0);
  if (divisor == 1) return true;
  switch (node_->kind) {
    case DimExprKind::kConst:
      return node_->const_value % divisor == 0;
    case DimExprKind::kSymbol: {
      auto it = symbol_divisors.find(node_->symbol);
      return it != symbol_divisors.end() && it->second % divisor == 0;
    }
    case DimExprKind::kAdd: {
      for (const DimExpr& op : node_->operands) {
        if (!op.ProvablyDivisibleBy(divisor, symbol_divisors)) return false;
      }
      return true;
    }
    case DimExprKind::kMul: {
      // Enough if the product of per-factor provable divisors covers it.
      int64_t remaining = divisor;
      for (const DimExpr& op : node_->operands) {
        if (remaining == 1) break;
        if (op.IsConst()) {
          remaining /= Gcd(remaining, op.const_value());
        } else if (op.IsSymbol()) {
          auto it = symbol_divisors.find(op.symbol());
          if (it != symbol_divisors.end()) {
            remaining /= Gcd(remaining, it->second);
          }
        }
      }
      return remaining == 1;
    }
    default:
      return false;
  }
}

std::string SymShapeToString(const SymShape& shape) {
  return "[" +
         JoinMapped(shape, ", ",
                    [](const DimExpr& e) { return e.ToString(); }) +
         "]";
}

DimExpr SymShapeNumElements(const SymShape& shape) {
  if (shape.empty()) return DimExpr::Const(1);
  std::vector<DimExpr> factors(shape.begin(), shape.end());
  return DimExpr::Mul(std::move(factors));
}

}  // namespace disc
