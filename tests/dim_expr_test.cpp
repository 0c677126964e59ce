#include "shape/dim_expr.h"

#include <gtest/gtest.h>

#include <limits>

namespace disc {
namespace {

DimExpr C(int64_t v) { return DimExpr::Const(v); }
DimExpr S(SymbolId id) { return DimExpr::Symbol(id); }

TEST(DimExprTest, ConstBasics) {
  EXPECT_TRUE(C(4).IsConst());
  EXPECT_EQ(C(4).const_value(), 4);
  EXPECT_TRUE(C(4).IsConstValue(4));
  EXPECT_FALSE(C(4).IsConstValue(5));
  EXPECT_EQ(C(4).ToString(), "4");
}

TEST(DimExprTest, SymbolBasics) {
  EXPECT_TRUE(S(3).IsSymbol());
  EXPECT_EQ(S(3).symbol(), 3);
  EXPECT_EQ(S(3).ToString(), "s3");
}

TEST(DimExprTest, AddFoldsConstants) {
  EXPECT_TRUE(DimExpr::Add(C(2), C(3)).IsConstValue(5));
}

TEST(DimExprTest, AddDropsZero) {
  EXPECT_EQ(DimExpr::Add(S(0), C(0)).ToString(), "s0");
}

TEST(DimExprTest, AddIsCommutativeInNormalForm) {
  DimExpr a = DimExpr::Add(S(0), S(1));
  DimExpr b = DimExpr::Add(S(1), S(0));
  EXPECT_TRUE(a.Equals(b));
}

TEST(DimExprTest, AddCombinesLikeTerms) {
  // s0 + s0 -> 2 * s0
  DimExpr e = DimExpr::Add(S(0), S(0));
  EXPECT_TRUE(e.Equals(DimExpr::Mul(C(2), S(0))));
}

TEST(DimExprTest, AddCancelsTerms) {
  // s0 + (-1 * s0) -> 0
  DimExpr e = DimExpr::Add(S(0), DimExpr::Mul(C(-1), S(0)));
  EXPECT_TRUE(e.IsConstValue(0));
}

TEST(DimExprTest, MulFoldsConstantsAndSorts) {
  DimExpr a = DimExpr::Mul({C(2), S(1), C(3), S(0)});
  DimExpr b = DimExpr::Mul({S(0), C(6), S(1)});
  EXPECT_TRUE(a.Equals(b));
}

TEST(DimExprTest, MulByZero) {
  EXPECT_TRUE(DimExpr::Mul(S(0), C(0)).IsConstValue(0));
}

TEST(DimExprTest, MulByOneIsIdentity) {
  EXPECT_EQ(DimExpr::Mul(S(0), C(1)).ToString(), "s0");
}

TEST(DimExprTest, MulFlattensNesting) {
  DimExpr nested = DimExpr::Mul(DimExpr::Mul(S(0), S(1)), S(2));
  DimExpr flat = DimExpr::Mul({S(0), S(1), S(2)});
  EXPECT_TRUE(nested.Equals(flat));
}

TEST(DimExprTest, FloorDivSimplifications) {
  EXPECT_EQ(DimExpr::FloorDiv(S(0), C(1)).ToString(), "s0");
  EXPECT_TRUE(DimExpr::FloorDiv(C(7), C(2)).IsConstValue(3));
  EXPECT_TRUE(DimExpr::FloorDiv(S(0), S(0)).IsConstValue(1));
  // (6 * s0) / 3 -> 2 * s0
  DimExpr e = DimExpr::FloorDiv(DimExpr::Mul(C(6), S(0)), C(3));
  EXPECT_TRUE(e.Equals(DimExpr::Mul(C(2), S(0))));
}

TEST(DimExprTest, FloorDivCancelsWholeProduct) {
  // (768 * s0 * s1) / 768 -> s0 * s1
  DimExpr numel = DimExpr::Mul({C(768), S(0), S(1)});
  DimExpr e = DimExpr::FloorDiv(numel, C(768));
  EXPECT_TRUE(e.Equals(DimExpr::Mul(S(0), S(1))));
}

TEST(DimExprTest, CeilDivConstants) {
  EXPECT_TRUE(DimExpr::CeilDiv(C(7), C(2)).IsConstValue(4));
  EXPECT_EQ(DimExpr::CeilDiv(S(0), C(1)).ToString(), "s0");
  EXPECT_TRUE(DimExpr::CeilDiv(S(0), S(0)).IsConstValue(1));
}

TEST(DimExprTest, ModSimplifications) {
  EXPECT_TRUE(DimExpr::Mod(S(0), C(1)).IsConstValue(0));
  EXPECT_TRUE(DimExpr::Mod(C(7), C(4)).IsConstValue(3));
  EXPECT_TRUE(DimExpr::Mod(S(0), S(0)).IsConstValue(0));
}

TEST(DimExprTest, CollectSymbolsDeduplicates) {
  DimExpr e = DimExpr::Add(DimExpr::Mul(S(0), S(1)), S(0));
  auto syms = e.CollectSymbols();
  EXPECT_EQ(syms.size(), 2u);
}

TEST(DimExprTest, Evaluate) {
  // (s0 * s1 + 4) with s0=2, s1=3 -> 10
  DimExpr e = DimExpr::Add(DimExpr::Mul(S(0), S(1)), C(4));
  std::unordered_map<SymbolId, int64_t> bindings = {{0, 2}, {1, 3}};
  auto r = e.Evaluate(bindings);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 10);
}

TEST(DimExprTest, EvaluateUnboundSymbolFails) {
  EXPECT_FALSE(S(5).Evaluate({}).ok());
}

TEST(DimExprTest, EvaluateDivMod) {
  std::unordered_map<SymbolId, int64_t> bindings = {{0, 10}};
  EXPECT_EQ(*DimExpr::FloorDiv(S(0), C(3)).Evaluate(bindings), 3);
  EXPECT_EQ(*DimExpr::CeilDiv(S(0), C(3)).Evaluate(bindings), 4);
  EXPECT_EQ(*DimExpr::Mod(S(0), C(3)).Evaluate(bindings), 1);
}

TEST(DimExprTest, SubstituteRenormalizes) {
  // s0 * s1 with s0 := 4 -> 4 * s1
  DimExpr e = DimExpr::Mul(S(0), S(1));
  DimExpr result = e.Substitute({{0, C(4)}});
  EXPECT_TRUE(result.Equals(DimExpr::Mul(C(4), S(1))));
  // Substituting s1 := s0 into s0 + s1 gives 2*s0.
  DimExpr sum = DimExpr::Add(S(0), S(1));
  EXPECT_TRUE(sum.Substitute({{1, S(0)}}).Equals(DimExpr::Mul(C(2), S(0))));
}

TEST(DimExprTest, ProvablyDivisible) {
  std::unordered_map<SymbolId, int64_t> divisors = {{0, 4}, {1, 1}};
  EXPECT_TRUE(C(8).ProvablyDivisibleBy(4, {}));
  EXPECT_FALSE(C(6).ProvablyDivisibleBy(4, {}));
  EXPECT_TRUE(S(0).ProvablyDivisibleBy(4, divisors));
  EXPECT_TRUE(S(0).ProvablyDivisibleBy(2, divisors));
  EXPECT_FALSE(S(1).ProvablyDivisibleBy(2, divisors));
  // s0 * s1 divisible by 4 via s0.
  EXPECT_TRUE(DimExpr::Mul(S(0), S(1)).ProvablyDivisibleBy(4, divisors));
  // 2 * s1 divisible by 2 via the coefficient.
  EXPECT_TRUE(DimExpr::Mul(C(2), S(1)).ProvablyDivisibleBy(2, divisors));
  // s0 + 2 is NOT provably divisible by 4 (only s0 is).
  EXPECT_FALSE(DimExpr::Add(S(0), C(2)).ProvablyDivisibleBy(4, divisors));
  // s0 + 4 is divisible by 4.
  EXPECT_TRUE(DimExpr::Add(S(0), C(4)).ProvablyDivisibleBy(4, divisors));
}

TEST(DimExprTest, SymShapeHelpers) {
  SymShape shape = {S(0), C(4), S(1)};
  EXPECT_EQ(SymShapeToString(shape), "[s0, 4, s1]");
  DimExpr n = SymShapeNumElements(shape);
  EXPECT_TRUE(n.Equals(DimExpr::Mul({C(4), S(0), S(1)})));
  EXPECT_TRUE(SymShapeNumElements({}).IsConstValue(1));
}

TEST(DimExprTest, NestedDivisionChainsSimplify) {
  // floordiv(floordiv-free path): ((4*s0)/2)/2 -> s0.
  DimExpr e = DimExpr::FloorDiv(
      DimExpr::FloorDiv(DimExpr::Mul(C(4), S(0)), C(2)), C(2));
  EXPECT_EQ(e.ToString(), "s0");
}

TEST(DimExprTest, SubstituteIntoDivision) {
  // floordiv(s0, s1) with s1 := 1 -> s0; with both const -> folded.
  DimExpr e = DimExpr::FloorDiv(S(0), S(1));
  EXPECT_EQ(e.Substitute({{1, C(1)}}).ToString(), "s0");
  EXPECT_TRUE(e.Substitute({{0, C(9)}, {1, C(2)}}).IsConstValue(4));
}

TEST(DimExprTest, EvaluateDivisionByZeroIsError) {
  DimExpr e = DimExpr::FloorDiv(S(0), S(1));
  EXPECT_FALSE(e.Evaluate({{0, 4}, {1, 0}}).ok());
}

TEST(DimExprTest, EvaluateOverflowIsInvalidArgument) {
  const int64_t big = int64_t{1} << 31;
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  auto fails = [](const DimExpr& e,
                  const std::unordered_map<SymbolId, int64_t>& bindings) {
    Result<int64_t> r = e.Evaluate(bindings);
    return !r.ok() && r.status().code() == StatusCode::kInvalidArgument;
  };
  // 2^31 * 2^31 fits; times 64 does not.
  const DimExpr product = DimExpr::Mul({S(0), S(1), C(64)});
  EXPECT_EQ(*DimExpr::Mul(S(0), S(1)).Evaluate({{0, big}, {1, big}}),
            big * big);
  EXPECT_TRUE(fails(product, {{0, big}, {1, big}}));
  EXPECT_TRUE(fails(DimExpr::Add(S(0), C(1)), {{0, max}}));
  EXPECT_TRUE(fails(DimExpr::Add(S(0), C(-1)), {{0, min}}));
  EXPECT_TRUE(fails(DimExpr::CeilDiv(S(0), C(2)), {{0, max}}));
  EXPECT_TRUE(fails(DimExpr::FloorDiv(S(0), S(1)), {{0, min}, {1, -1}}));
  EXPECT_TRUE(fails(DimExpr::Mod(S(0), S(1)), {{0, min}, {1, -1}}));
  EXPECT_TRUE(fails(DimExpr::CeilDiv(S(0), S(1)), {{0, 4}, {1, -2}}));
  // In range, the checked arithmetic computes what plain arithmetic does.
  EXPECT_EQ(*DimExpr::CeilDiv(S(0), C(2)).Evaluate({{0, max - 1}}),
            (max - 1) / 2);
  EXPECT_EQ(*DimExpr::Add(S(0), C(-1)).Evaluate({{0, min + 1}}), min);
}

TEST(DimExprTest, NegativeConstantsInSums) {
  // (s0 - 3) + 3 -> s0 (via Add with Mul(-1) encoding of Sub).
  DimExpr minus3 = DimExpr::Add(S(0), C(-3));
  EXPECT_EQ(DimExpr::Add(minus3, C(3)).ToString(), "s0");
}

TEST(DimExprTest, LargeProductsStayCanonical) {
  // Product of many symbols renders deterministically sorted.
  DimExpr a = DimExpr::Mul({S(3), S(1), S(2), C(7)});
  DimExpr b = DimExpr::Mul({C(7), S(2), S(3), S(1)});
  EXPECT_TRUE(a.Equals(b));
}

TEST(DimExprTest, HashConsistentWithEquality) {
  DimExpr a = DimExpr::Add(S(0), C(3));
  DimExpr b = DimExpr::Add(C(3), S(0));
  EXPECT_TRUE(a.Equals(b));
  EXPECT_EQ(a.Hash(), b.Hash());
}

}  // namespace
}  // namespace disc
