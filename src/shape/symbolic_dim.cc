#include "shape/symbolic_dim.h"

#include <algorithm>
#include <sstream>

#include "support/logging.h"
#include "support/math_util.h"
#include "support/string_util.h"

namespace disc {

SymbolId SymbolicDimManager::NewSymbol(const std::string& name_hint) {
  SymbolId id = static_cast<SymbolId>(parent_.size());
  parent_.push_back(id);
  SymbolInfo info;
  info.name = name_hint.empty() ? "s" + std::to_string(id) : name_hint;
  info_.push_back(std::move(info));
  return id;
}

SymbolId SymbolicDimManager::Find(SymbolId id) const {
  DISC_CHECK_GE(id, 0);
  DISC_CHECK_LT(id, static_cast<SymbolId>(parent_.size()));
  while (parent_[id] != id) {
    parent_[id] = parent_[parent_[id]];  // path halving
    id = parent_[id];
  }
  return id;
}

Status SymbolicDimManager::MergeSymbols(SymbolId a, SymbolId b) {
  SymbolId ra = Find(a);
  SymbolId rb = Find(b);
  if (ra == rb) return Status::OK();
  SymbolInfo& ia = info_[ra];
  SymbolInfo& ib = info_[rb];
  if (ia.value && ib.value && *ia.value != *ib.value) {
    return Status::FailedPrecondition(
        StrFormat("cannot merge s%d (=%lld) with s%d (=%lld)", ra,
                  static_cast<long long>(*ia.value), rb,
                  static_cast<long long>(*ib.value)));
  }
  // Keep the smaller id as root for determinism.
  if (rb < ra) std::swap(ra, rb);
  SymbolInfo& root = info_[ra];
  SymbolInfo& child = info_[rb];
  if (!root.value) root.value = child.value;
  root.divisor = root.divisor / Gcd(root.divisor, child.divisor) *
                 child.divisor;  // lcm
  root.lower_bound = std::max(root.lower_bound, child.lower_bound);
  root.upper_bound = std::min(root.upper_bound, child.upper_bound);
  for (int64_t v : child.likely_values) {
    if (std::find(root.likely_values.begin(), root.likely_values.end(), v) ==
        root.likely_values.end()) {
      root.likely_values.push_back(v);
    }
  }
  parent_[rb] = ra;
  return Status::OK();
}

Status SymbolicDimManager::SetValue(SymbolId id, int64_t value) {
  SymbolInfo& info = info_[Find(id)];
  if (info.value && *info.value != value) {
    return Status::FailedPrecondition(
        StrFormat("symbol %s already has value %lld, cannot set %lld",
                  info.name.c_str(), static_cast<long long>(*info.value),
                  static_cast<long long>(value)));
  }
  info.value = value;
  return Status::OK();
}

std::optional<int64_t> SymbolicDimManager::GetValue(SymbolId id) const {
  return info_[Find(id)].value;
}

void SymbolicDimManager::AddDivisibility(SymbolId id, int64_t divisor) {
  DISC_CHECK_GT(divisor, 0);
  SymbolInfo& info = info_[Find(id)];
  info.divisor = info.divisor / Gcd(info.divisor, divisor) * divisor;  // lcm
}

int64_t SymbolicDimManager::GetDivisor(SymbolId id) const {
  return info_[Find(id)].divisor;
}

Status SymbolicDimManager::SetRange(SymbolId id, int64_t lower, int64_t upper) {
  SymbolInfo& info = info_[Find(id)];
  int64_t new_lower = std::max(info.lower_bound, lower);
  int64_t new_upper = std::min(info.upper_bound, upper);
  if (new_lower > new_upper) {
    return Status::FailedPrecondition("empty range for " + info.name);
  }
  info.lower_bound = new_lower;
  info.upper_bound = new_upper;
  return Status::OK();
}

std::pair<int64_t, int64_t> SymbolicDimManager::GetRange(SymbolId id) const {
  const SymbolInfo& info = info_[Find(id)];
  return {info.lower_bound, info.upper_bound};
}

void SymbolicDimManager::AddLikelyValue(SymbolId id, int64_t value) {
  SymbolInfo& info = info_[Find(id)];
  auto it = std::find(info.likely_values.begin(), info.likely_values.end(),
                      value);
  if (it != info.likely_values.end()) info.likely_values.erase(it);
  info.likely_values.push_back(value);
}

const std::vector<int64_t>& SymbolicDimManager::GetLikelyValues(
    SymbolId id) const {
  return info_[Find(id)].likely_values;
}

const SymbolInfo& SymbolicDimManager::Info(SymbolId id) const {
  return info_[Find(id)];
}

void SymbolicDimManager::AddProductEqual(const SymShape& lhs,
                                         const SymShape& rhs) {
  SymShape cl = Canonicalize(lhs);
  SymShape cr = Canonicalize(rhs);
  // Skip trivial facts.
  if (DimExpr::Mul(std::vector<DimExpr>(cl.begin(), cl.end()))
          .Equals(DimExpr::Mul(std::vector<DimExpr>(cr.begin(), cr.end())))) {
    return;
  }
  product_facts_.emplace_back(std::move(cl), std::move(cr));
}

bool SymbolicDimManager::NeedsCanonicalize(const DimExpr& expr) const {
  if (expr.IsSymbol()) {
    SymbolId root = Find(expr.symbol());
    return root != expr.symbol() || info_[root].value.has_value();
  }
  if (!expr.valid()) return false;
  for (const DimExpr& op : expr.operands()) {
    if (NeedsCanonicalize(op)) return true;
  }
  return false;
}

DimExpr SymbolicDimManager::Canonicalize(const DimExpr& expr) const {
  // Most queries see expressions that are already canonical; those are
  // returned as they are without building a substitution.
  if (!NeedsCanonicalize(expr)) return expr;
  std::unordered_map<SymbolId, DimExpr> subst;
  for (SymbolId s : expr.CollectSymbols()) {
    SymbolId root = Find(s);
    const SymbolInfo& info = info_[root];
    if (info.value) {
      subst[s] = DimExpr::Const(*info.value);
    } else if (root != s) {
      subst[s] = DimExpr::Symbol(root);
    }
  }
  return expr.Substitute(subst);
}

SymShape SymbolicDimManager::Canonicalize(const SymShape& shape) const {
  SymShape out;
  out.reserve(shape.size());
  for (const DimExpr& d : shape) out.push_back(Canonicalize(d));
  return out;
}

bool SymbolicDimManager::IsDimEqual(const DimExpr& a, const DimExpr& b) const {
  if (!a.valid() || !b.valid()) return false;
  return Canonicalize(a).Equals(Canonicalize(b));
}

bool SymbolicDimManager::IsShapeEqual(const SymShape& a,
                                      const SymShape& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!IsDimEqual(a[i], b[i])) return false;
  }
  return true;
}

bool SymbolicDimManager::IsSameNumElements(const SymShape& a,
                                           const SymShape& b) const {
  return NumElementsProver(*this).IsSameNumElements(a, b);
}

NumElementsProver::ProductForm NumElementsProver::Decompose(
    const SymShape& dims) const {
  ProductForm form;
  DimExpr product = manager_.Canonicalize(SymShapeNumElements(dims));
  std::vector<DimExpr> worklist = {product};
  while (!worklist.empty()) {
    DimExpr e = worklist.back();
    worklist.pop_back();
    if (e.IsConst()) {
      form.coeff *= e.const_value();
    } else if (e.kind() == DimExprKind::kMul) {
      for (const DimExpr& op : e.operands()) worklist.push_back(op);
    } else {
      // Symbols and opaque sub-expressions (sums, divisions) are factors.
      form.factors[e.ToString()] += 1;
    }
  }
  return form;
}

NumElementsProver::Quotient NumElementsProver::QuotientOf(
    const ProductForm& x, const ProductForm& y) {
  Quotient q;
  q.factors = x.factors;
  for (const auto& [key, exp] : y.factors) q.factors[key] -= exp;
  std::erase_if(q.factors, [](const auto& kv) { return kv.second == 0; });
  DISC_CHECK(x.coeff != 0 && y.coeff != 0);
  int64_t g = Gcd(std::abs(x.coeff), std::abs(y.coeff));
  q.coeff = {x.coeff / g, y.coeff / g};
  return q;
}

bool NumElementsProver::IsSameNumElements(const SymShape& a,
                                          const SymShape& b) {
  Quotient q = QuotientOf(Decompose(a), Decompose(b));
  if (q.factors.empty() && q.coeff.first == q.coeff.second) return true;
  // Try each recorded reshape fact (and its inverse) as a rewrite:
  // a/b == l/r  or  a/b == r/l  implies equality.
  const auto& product_facts = manager_.product_facts_;
  for (size_t i = 0; i < product_facts.size(); ++i) {
    if (i == facts_.size()) {
      ProductForm fl = Decompose(product_facts[i].first);
      ProductForm fr = Decompose(product_facts[i].second);
      facts_.emplace_back(QuotientOf(fl, fr), QuotientOf(fr, fl));
    }
    if (q == facts_[i].first || q == facts_[i].second) return true;
  }
  return false;
}

bool SymbolicDimManager::IsDivisibleBy(const DimExpr& expr,
                                       int64_t divisor) const {
  DimExpr canonical = Canonicalize(expr);
  std::unordered_map<SymbolId, int64_t> divisors;
  for (SymbolId s : canonical.CollectSymbols()) {
    divisors[s] = GetDivisor(s);
  }
  return canonical.ProvablyDivisibleBy(divisor, divisors);
}

std::optional<int64_t> SymbolicDimManager::UpperBound(
    const DimExpr& expr) const {
  DimExpr e = Canonicalize(expr);
  switch (e.kind()) {
    case DimExprKind::kConst:
      return e.const_value();
    case DimExprKind::kSymbol: {
      int64_t ub = info_[Find(e.symbol())].upper_bound;
      if (ub == INT64_MAX) return std::nullopt;
      return ub;
    }
    case DimExprKind::kAdd: {
      int64_t sum = 0;
      for (const DimExpr& op : e.operands()) {
        auto ub = UpperBound(op);
        if (!ub) return std::nullopt;
        sum += *ub;
      }
      return sum;
    }
    case DimExprKind::kMul: {
      int64_t product = 1;
      for (const DimExpr& op : e.operands()) {
        auto ub = UpperBound(op);
        if (!ub || *ub < 0) return std::nullopt;
        product *= *ub;
      }
      return product;
    }
    case DimExprKind::kFloorDiv:
    case DimExprKind::kCeilDiv: {
      auto ua = UpperBound(e.operands()[0]);
      if (!ua) return std::nullopt;
      if (e.operands()[1].IsConst() && e.operands()[1].const_value() > 0) {
        int64_t c = e.operands()[1].const_value();
        return e.kind() == DimExprKind::kFloorDiv ? *ua / c : CeilDiv(*ua, c);
      }
      return *ua;  // divisor >= 1 in shape arithmetic
    }
    case DimExprKind::kMod: {
      auto ub = UpperBound(e.operands()[1]);
      if (ub) return *ub - 1;
      return UpperBound(e.operands()[0]);
    }
  }
  return std::nullopt;
}

std::optional<int64_t> SymbolicDimManager::LowerBound(
    const DimExpr& expr) const {
  DimExpr e = Canonicalize(expr);
  switch (e.kind()) {
    case DimExprKind::kConst:
      return e.const_value();
    case DimExprKind::kSymbol:
      return info_[Find(e.symbol())].lower_bound;
    case DimExprKind::kAdd: {
      int64_t sum = 0;
      for (const DimExpr& op : e.operands()) {
        auto lb = LowerBound(op);
        if (!lb) return std::nullopt;
        sum += *lb;
      }
      return sum;
    }
    case DimExprKind::kMul: {
      // Normal form keeps at most one constant coefficient, which may be
      // negative after subtraction; the remaining factors are dims (>= 0).
      // coeff >= 0: coeff * prod(LB); coeff < 0: coeff * prod(UB).
      int64_t coeff = 1;
      std::vector<DimExpr> rest;
      for (const DimExpr& op : e.operands()) {
        if (op.IsConst()) {
          coeff *= op.const_value();
        } else {
          rest.push_back(op);
        }
      }
      int64_t product = 1;
      for (const DimExpr& op : rest) {
        auto bound = coeff >= 0 ? LowerBound(op) : UpperBound(op);
        if (!bound || *bound < 0) return std::nullopt;
        product *= *bound;
      }
      return coeff * product;
    }
    case DimExprKind::kFloorDiv:
    case DimExprKind::kCeilDiv: {
      auto la = LowerBound(e.operands()[0]);
      if (!la) return std::nullopt;
      if (e.operands()[1].IsConst() && e.operands()[1].const_value() > 0) {
        int64_t c = e.operands()[1].const_value();
        return e.kind() == DimExprKind::kFloorDiv ? FloorDiv(*la, c)
                                                  : CeilDiv(*la, c);
      }
      // Symbolic divisor (>= 1 in shape arithmetic): quotient >= 0 when
      // the numerator is.
      if (*la >= 0) return 0;
      return std::nullopt;
    }
    case DimExprKind::kMod: {
      auto la = LowerBound(e.operands()[0]);
      if (la && *la >= 0) return 0;
      return std::nullopt;
    }
  }
  return std::nullopt;
}

bool SymbolicDimManager::ProvablyLe(const DimExpr& a, const DimExpr& b) const {
  DimExpr ca = Canonicalize(a);
  DimExpr cb = Canonicalize(b);
  if (ca.Equals(cb)) return true;
  // Monotonicity through a shared scaled division: c*ceildiv(x, k) <=
  // c*ceildiv(y, k) iff x <= y (same for floordiv). This is how 256-byte
  // aligned sizes of comparable payloads stay comparable even when the
  // alignment rounding cannot be folded away.
  auto strip = [](const DimExpr& e, int64_t* coeff) -> DimExpr {
    *coeff = 1;
    DimExpr core = e;
    if (e.kind() == DimExprKind::kMul) {
      std::vector<DimExpr> rest;
      for (const DimExpr& op : e.operands()) {
        if (op.IsConst()) {
          *coeff *= op.const_value();
        } else {
          rest.push_back(op);
        }
      }
      if (rest.size() != 1) return DimExpr();
      core = rest[0];
    }
    if (core.kind() != DimExprKind::kFloorDiv &&
        core.kind() != DimExprKind::kCeilDiv) {
      return DimExpr();
    }
    return core;
  };
  int64_t coeff_a = 1, coeff_b = 1;
  DimExpr div_a = strip(ca, &coeff_a);
  DimExpr div_b = strip(cb, &coeff_b);
  if (div_a.valid() && div_b.valid() && coeff_a == coeff_b && coeff_a > 0 &&
      div_a.kind() == div_b.kind() &&
      div_a.operands()[1].Equals(div_b.operands()[1])) {
    if (ProvablyLe(div_a.operands()[0], div_b.operands()[0])) return true;
  }
  // Numeric discharge: b - a >= 0 under the recorded range facts.
  DimExpr diff = DimExpr::Add(cb, DimExpr::Mul(DimExpr::Const(-1), ca));
  auto lb = LowerBound(diff);
  return lb && *lb >= 0;
}

SymbolicDimManager::Stats SymbolicDimManager::GetStats() const {
  Stats stats;
  stats.num_symbols = num_symbols();
  for (SymbolId i = 0; i < static_cast<SymbolId>(parent_.size()); ++i) {
    if (Find(i) == i) {
      ++stats.num_classes;
      if (info_[i].value) ++stats.num_known_constants;
    }
  }
  stats.num_product_facts = static_cast<int64_t>(product_facts_.size());
  return stats;
}

std::string SymbolicDimManager::ToString() const {
  std::ostringstream out;
  out << "SymbolicDimManager{\n";
  for (SymbolId i = 0; i < static_cast<SymbolId>(parent_.size()); ++i) {
    if (Find(i) != i) continue;
    const SymbolInfo& info = info_[i];
    out << "  s" << i << " (" << info.name << ")";
    if (info.value) out << " = " << *info.value;
    if (info.divisor > 1) out << ", %" << info.divisor << "==0";
    if (info.upper_bound != INT64_MAX) {
      out << ", in [" << info.lower_bound << ", " << info.upper_bound << "]";
    }
    if (!info.likely_values.empty()) {
      out << ", likely {" << Join(info.likely_values, ", ") << "}";
    }
    out << "\n";
  }
  for (const auto& [lhs, rhs] : product_facts_) {
    out << "  product " << SymShapeToString(lhs) << " == "
        << SymShapeToString(rhs) << "\n";
  }
  out << "}";
  return out.str();
}

}  // namespace disc
