#include "opt/pass.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "ir/eval.h"
#include "support/rng.h"

namespace disc {
namespace {

int64_t CountOps(const Graph& g, OpKind kind) {
  int64_t n = 0;
  for (Node* node : g.nodes()) {
    if (node->kind() == kind) ++n;
  }
  return n;
}

Result<bool> RunPass(std::unique_ptr<Pass> pass, Graph* g,
                     PassContext ctx = {}) {
  return pass->Run(g, ctx);
}

TEST(CanonicalizeTest, AddZeroRemoved) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 4});
  b.Output({b.Add(x, b.ScalarF32(0.0f))});
  // x + scalar 0 broadcasts: output type equals x's type, so it folds.
  auto r = RunPass(CreateCanonicalizePass(), &g);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  EXPECT_EQ(g.outputs()[0], x);
}

TEST(CanonicalizeTest, MulOneEitherSide) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  Value* a = b.Mul(x, b.ScalarF32(1.0f));
  Value* c = b.Mul(b.ScalarF32(1.0f), a);
  b.Output({c});
  ASSERT_TRUE(*RunPass(CreateCanonicalizePass(), &g));
  EXPECT_EQ(g.outputs()[0], x);
  EXPECT_EQ(CountOps(g, OpKind::kMul), 0);
}

TEST(CanonicalizeTest, DivByOneAndPowOne) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  b.Output({b.Div(x, b.ScalarF32(1.0f)), b.Pow(x, b.ScalarF32(1.0f))});
  ASSERT_TRUE(*RunPass(CreateCanonicalizePass(), &g));
  EXPECT_EQ(g.outputs()[0], x);
  EXPECT_EQ(g.outputs()[1], x);
}

TEST(CanonicalizeTest, DoubleNeg) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  b.Output({b.Neg(b.Neg(x))});
  ASSERT_TRUE(*RunPass(CreateCanonicalizePass(), &g));
  EXPECT_EQ(g.outputs()[0], x);
}

TEST(CanonicalizeTest, IdentityTransposeAndComposition) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 3, 4});
  Value* t1 = b.Transpose(x, {0, 1, 2});  // identity
  Value* t2 = b.Transpose(b.Transpose(x, {1, 0, 2}), {1, 0, 2});  // identity pair
  b.Output({t1, t2});
  ASSERT_TRUE(*RunPass(CreateCanonicalizePass(), &g));
  // Composed transpose becomes identity in a second sweep.
  ASSERT_TRUE(RunPass(CreateCanonicalizePass(), &g).ok());
  RunPass(CreateCanonicalizePass(), &g).ok();
  EXPECT_EQ(g.outputs()[0], x);
  EXPECT_EQ(g.outputs()[1], x);
}

TEST(CanonicalizeTest, CastSameDTypeAndTrivialSlicePad) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4, 4});
  Value* c = b.Cast(x, DType::kF32);
  Value* s = b.Slice(c, {0, 0}, {-1, -1}, {1, 1});
  Value* p = b.Pad(s, {0, 0}, {0, 0});
  b.Output({p});
  for (int i = 0; i < 3; ++i) RunPass(CreateCanonicalizePass(), &g).ok();
  EXPECT_EQ(g.outputs()[0], x);
}

TEST(CanonicalizeTest, SelectWithConstantPredicate) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  Value* y = b.Input("y", DType::kF32, {4});
  Value* pred = b.Constant(Tensor::I1({}, {1}));
  b.Output({b.Select(pred, x, y)});
  ASSERT_TRUE(*RunPass(CreateCanonicalizePass(), &g));
  EXPECT_EQ(g.outputs()[0], x);
}

TEST(CanonicalizeTest, ScalarMulChainCollapses) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim});
  Value* y = b.Mul(b.Mul(x, b.ScalarF32(2.0f)), b.ScalarF32(3.0f));
  b.Output({y});
  ASSERT_TRUE(*RunPass(CreateCanonicalizePass(), &g));
  g.RemoveDeadNodes();
  EXPECT_EQ(CountOps(g, OpKind::kMul), 1);
  auto out = EvaluateGraph(g, {Tensor::F32({2}, {1, 2})});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(Tensor::AllClose((*out)[0], Tensor::F32({2}, {6, 12})));
}

TEST(CanonicalizeTest, ScalarAddChainCollapses) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim});
  Value* y = b.Add(b.ScalarF32(1.5f), b.Add(x, b.ScalarF32(2.5f)));
  b.Output({y});
  ASSERT_TRUE(*RunPass(CreateCanonicalizePass(), &g));
  g.RemoveDeadNodes();
  EXPECT_EQ(CountOps(g, OpKind::kAdd), 1);
  auto out = EvaluateGraph(g, {Tensor::F32({1}, {10})});
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ((*out)[0].f32_data()[0], 14.0f);
}

TEST(CanonicalizeTest, ChainNotFoldedWhenInnerValueShared) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  Value* inner = b.Mul(x, b.ScalarF32(2.0f));
  Value* outer = b.Mul(inner, b.ScalarF32(3.0f));
  b.Output({outer, inner});  // inner escapes -> folding would duplicate it
  auto r = RunPass(CreateCanonicalizePass(), &g);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(CountOps(g, OpKind::kMul), 2);
}

TEST(CanonicalizeTest, PreservesSemantics) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {3, 4});
  Value* y = b.Add(b.Mul(x, b.ScalarF32(1.0f)), b.ScalarF32(0.0f));
  Value* z = b.Neg(b.Neg(b.Exp(y)));
  b.Output({z});

  Rng rng(9);
  Tensor in(DType::kF32, {3, 4});
  for (int i = 0; i < 12; ++i) in.f32_data()[i] = rng.Normal();
  auto before = EvaluateGraph(g, {in});
  for (int i = 0; i < 3; ++i) RunPass(CreateCanonicalizePass(), &g).ok();
  auto after = EvaluateGraph(g, {in});
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_TRUE(Tensor::AllClose((*before)[0], (*after)[0]));
}

TEST(ConstantFoldTest, FoldsConstantSubtree) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2});
  Value* c = b.Add(b.ScalarF32(2.0f), b.ScalarF32(3.0f));
  b.Output({b.Mul(x, c)});
  ASSERT_TRUE(*RunPass(CreateConstantFoldPass(), &g));
  // The add is folded into one constant.
  EXPECT_EQ(CountOps(g, OpKind::kAdd), 0);
  auto out = EvaluateGraph(g, {Tensor::F32({2}, {1, 2})});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(Tensor::AllClose((*out)[0], Tensor::F32({2}, {5, 10})));
}

TEST(ConstantFoldTest, RespectsSizeLimit) {
  Graph g;
  GraphBuilder b(&g);
  Value* c = b.Constant(Tensor::F32({1}, {1.0f}));
  Value* big = b.BroadcastTo(c, {1 << 20});
  b.Output({big});
  PassContext ctx;
  ctx.max_fold_elements = 1024;
  auto r = RunPass(CreateConstantFoldPass(), &g, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // too big to materialize
  EXPECT_EQ(CountOps(g, OpKind::kBroadcastTo), 1);
}

TEST(ConstantFoldTest, LeavesAnUndefinedIntegerDivisionToRuntime) {
  // div(constant, constant) with a zero divisor has no value: folding skips
  // it (evaluating it used to raise SIGFPE) and the error surfaces when the
  // graph runs.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kI64, {2});
  Value* q = b.Div(b.Constant(Tensor::I64({2}, {6, 8})),
                   b.Constant(Tensor::I64({2}, {2, 0})));
  b.Output({b.Add(x, q)});
  auto changed = RunPass(CreateConstantFoldPass(), &g);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_FALSE(*changed);
  EXPECT_EQ(CountOps(g, OpKind::kDiv), 1);
  auto out = EvaluateGraph(g, {Tensor::I64({2}, {1, 1})});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConstantFoldTest, FoldsShapeOfStaticInput) {
  Graph g;
  GraphBuilder b(&g);
  Value* c = b.Constant(Tensor(DType::kF32, {3, 4}));
  b.Output({b.ShapeOf(c)});
  ASSERT_TRUE(*RunPass(CreateConstantFoldPass(), &g));
  Node* out_node = g.outputs()[0]->producer();
  ASSERT_EQ(out_node->kind(), OpKind::kConstant);
  const Tensor& t = out_node->GetTensorAttr("value");
  EXPECT_EQ(t.i64_data()[0], 3);
  EXPECT_EQ(t.i64_data()[1], 4);
}

TEST(CseTest, MergesIdenticalNodes) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  Value* e1 = b.Exp(x);
  Value* e2 = b.Exp(x);
  b.Output({b.Add(e1, e2)});
  EXPECT_EQ(CountOps(g, OpKind::kExp), 2);
  ASSERT_TRUE(*RunPass(CreateCsePass(), &g));
  EXPECT_EQ(CountOps(g, OpKind::kExp), 1);
}

TEST(CseTest, DistinguishesAttrs) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 3});
  Value* r1 = b.ReduceSum(x, {0});
  Value* r2 = b.ReduceSum(x, {1});
  b.Output({r1, r2});
  auto r = RunPass(CreateCsePass(), &g);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  EXPECT_EQ(CountOps(g, OpKind::kReduceSum), 2);
}

TEST(CseTest, MergesEqualConstants) {
  Graph g;
  GraphBuilder b(&g);
  Value* c1 = b.ScalarF32(2.0f);
  Value* c2 = b.ScalarF32(2.0f);
  Value* x = b.Input("x", DType::kF32, {2});
  b.Output({b.Mul(b.Mul(x, c1), c2)});
  ASSERT_TRUE(*RunPass(CreateCsePass(), &g));
  EXPECT_EQ(CountOps(g, OpKind::kConstant), 1);
}

// CSE hashes only a constant's first 64 elements, so two constants equal
// there must still be told apart past them, by bits: +0 and -0 divide x
// into +inf and -inf.
TEST(CseTest, KeepsConstantsThatDifferOnlyInAZerosSign) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {65});
  std::vector<float> positive(65, 1.0f);
  positive[64] = 0.0f;
  std::vector<float> negative = positive;
  negative[64] = -0.0f;
  Value* c1 = b.Constant(Tensor::F32({65}, positive));
  Value* c2 = b.Constant(Tensor::F32({65}, negative));
  b.Output({b.Div(x, c1), b.Div(x, c2)});
  const Tensor input = Tensor::F32({65}, std::vector<float>(65, 1.0f));
  auto want = EvaluateGraph(g, {input});
  ASSERT_TRUE(want.ok());

  auto changed = RunPass(CreateCsePass(), &g);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(*changed);
  EXPECT_EQ(g.num_nodes(), 4);
  auto got = EvaluateGraph(g, {input});
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(Tensor::BitEqual((*got)[i], (*want)[i])) << "output " << i;
  }
  EXPECT_GT((*got)[0].f32_data()[64], 0.0f);
  EXPECT_LT((*got)[1].f32_data()[64], 0.0f);
}

// Equal bits are equal values, NaNs included: a NaN constant is as
// interchangeable with its bitwise copy as any other constant.
TEST(CseTest, MergesBitIdenticalNaNConstants) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Value* c1 = b.Constant(Tensor::F32({2}, {nan, 1.0f}));
  Value* c2 = b.Constant(Tensor::F32({2}, {nan, 1.0f}));
  b.Output({b.Add(b.Mul(x, c1), c2)});
  auto changed = RunPass(CreateCsePass(), &g);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(*changed);
  EXPECT_EQ(CountOps(g, OpKind::kConstant), 1);
}

TEST(DceTest, RemovesUnreachable) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  Value* live = b.Relu(x);
  b.Exp(b.Abs(x));  // dead
  b.Output({live});
  ASSERT_TRUE(*RunPass(CreateDcePass(), &g));
  EXPECT_EQ(g.num_nodes(), 1);
}

TEST(ShapeSimplifyTest, RemovesProvablyRedundantBroadcast) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  // Broadcast x to its own (dynamically computed) shape — a no-op that
  // static analysis cannot remove but the symbolic layer can.
  Value* bc = b.BroadcastToDynamic(x, b.ShapeOf(x));
  b.Output({b.Relu(bc)});
  EXPECT_EQ(CountOps(g, OpKind::kBroadcastTo), 1);
  ASSERT_TRUE(*RunPass(CreateShapeSimplifyPass(), &g));
  EXPECT_EQ(CountOps(g, OpKind::kBroadcastTo), 0);
}

TEST(ShapeSimplifyTest, RemovesReshapeToSameDynamicShape) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* rs = b.ReshapeDynamic(x, b.ShapeOf(x));
  b.Output({rs});
  ASSERT_TRUE(*RunPass(CreateShapeSimplifyPass(), &g));
  EXPECT_EQ(CountOps(g, OpKind::kReshape), 0);
  EXPECT_EQ(g.outputs()[0], x);
}

TEST(ShapeSimplifyTest, KeepsRealBroadcast) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {1, 8});
  Value* y = b.Input("y", DType::kF32, {kDynamicDim, 8});
  Value* bc = b.BroadcastToDynamic(x, b.ShapeOf(y));
  b.Output({bc});
  auto r = RunPass(CreateShapeSimplifyPass(), &g);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  EXPECT_EQ(CountOps(g, OpKind::kBroadcastTo), 1);
}

TEST(LayoutSimplifyTest, FoldsTransposeIntoMatMulFlag) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* w = b.Input("w", DType::kF32, {6, 8});
  Value* wt = b.Transpose(w, {1, 0});
  Value* y = b.MatMul(x, wt);
  b.Output({y});
  ASSERT_TRUE(*RunPass(CreateLayoutSimplifyPass(), &g));
  Node* mm = g.outputs()[0]->producer();
  EXPECT_EQ(mm->kind(), OpKind::kMatMul);
  EXPECT_EQ(mm->GetIntAttr("transpose_b", 0), 1);
  EXPECT_EQ(mm->operand(1), w);
  EXPECT_EQ(CountOps(g, OpKind::kTranspose), 0);
}

TEST(LayoutSimplifyTest, DoubleFoldCancelsFlag) {
  // matmul(x, transpose(w)) with transpose_b already 1 -> flag back to 0.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4, 8});
  Value* w = b.Input("w", DType::kF32, {8, 6});
  Value* wt = b.Transpose(w, {1, 0});
  Value* y = b.MatMul(x, wt, false, /*transpose_b=*/true);
  b.Output({y});
  ASSERT_TRUE(*RunPass(CreateLayoutSimplifyPass(), &g));
  EXPECT_EQ(g.outputs()[0]->producer()->GetIntAttr("transpose_b", 0), 0);
}

TEST(LayoutSimplifyTest, BatchDimTransposeNotFolded) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 4, 8});
  Value* w = b.Input("w", DType::kF32, {4, 2, 8});
  // Swaps batch dims, not the matrix dims: must not fold.
  Value* wt = b.Transpose(w, {1, 0, 2});
  Value* y = b.MatMul(x, wt, false, true);
  b.Output({y});
  auto r = RunPass(CreateLayoutSimplifyPass(), &g);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  EXPECT_EQ(CountOps(g, OpKind::kTranspose), 1);
}

TEST(LayoutSimplifyTest, PreservesSemantics) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {3, 8});
  Value* w = b.Input("w", DType::kF32, {5, 8});
  b.Output({b.MatMul(x, b.Transpose(w, {1, 0}))});
  Rng rng(21);
  Tensor xt(DType::kF32, {3, 8});
  Tensor wt(DType::kF32, {5, 8});
  for (int i = 0; i < 24; ++i) xt.f32_data()[i] = rng.Normal();
  for (int i = 0; i < 40; ++i) wt.f32_data()[i] = rng.Normal();
  auto before = EvaluateGraph(g, {xt, wt});
  ASSERT_TRUE(*RunPass(CreateLayoutSimplifyPass(), &g));
  auto after = EvaluateGraph(g, {xt, wt});
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_TRUE(Tensor::AllClose((*before)[0], (*after)[0]));
}

TEST(PassManagerTest, PipelineReachesFixpointAndPreservesSemantics) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* noisy = b.Mul(b.Add(x, b.ScalarF32(0.0f)), b.ScalarF32(1.0f));
  Value* bc = b.BroadcastToDynamic(noisy, b.ShapeOf(x));
  Value* e1 = b.Exp(bc);
  Value* e2 = b.Exp(bc);
  b.Output({b.Add(e1, e2)});

  Rng rng(11);
  Tensor in(DType::kF32, {3, 8});
  for (int i = 0; i < 24; ++i) in.f32_data()[i] = rng.Normal();
  auto before = EvaluateGraph(g, {in});

  PassManager pm;
  AddStandardPasses(&pm);
  PassContext ctx;
  ASSERT_TRUE(pm.RunToFixpoint(&g, ctx).ok());

  auto after = EvaluateGraph(g, {in});
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_TRUE(Tensor::AllClose((*before)[0], (*after)[0]));
  // exp deduped, broadcast and identities gone: exp + add remain.
  EXPECT_EQ(CountOps(g, OpKind::kExp), 1);
  EXPECT_EQ(CountOps(g, OpKind::kBroadcastTo), 0);
  EXPECT_EQ(CountOps(g, OpKind::kMul), 0);
  EXPECT_TRUE(g.Verify().ok());
}

TEST(PassManagerTest, ChangeLogMergesRepeatedPassEntries) {
  // A graph that needs multiple fixpoint sweeps: canonicalize folds the
  // plain identities in sweep 1, constant folding then collapses
  // Add(0.5, 0.5) into the scalar 1.0, and only in sweep 2 can
  // canonicalize fold the exposed Mul(y, 1.0) identity. The change log
  // must still carry ONE row per pass name with accumulated counts, not
  // one row per sweep.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* y = b.Mul(b.Add(x, b.ScalarF32(0.0f)), b.ScalarF32(1.0f));
  Value* one = b.Add(b.ScalarF32(0.5f), b.ScalarF32(0.5f));
  b.Output({b.Tanh(b.Mul(y, one))});

  PassManager pm;
  AddStandardPasses(&pm);
  PassContext ctx;
  ASSERT_TRUE(pm.RunToFixpoint(&g, ctx).ok());

  const auto& log = pm.change_log();
  ASSERT_FALSE(log.empty());
  std::vector<std::string> names;
  int64_t total_changes = 0;
  for (const auto& [name, count] : log) {
    names.push_back(name);
    EXPECT_GE(count, 1) << name;
    total_changes += count;
  }
  std::vector<std::string> unique = names;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  EXPECT_EQ(names.size(), unique.size()) << "duplicate change_log rows";

  // canonicalize changed in two different sweeps, so its single merged row
  // accumulated both.
  auto canon = std::find_if(log.begin(), log.end(), [](const auto& entry) {
    return entry.first == std::string("canonicalize");
  });
  ASSERT_NE(canon, log.end());
  EXPECT_GE(canon->second, 2);

  // pass_stats agrees with the merged log.
  for (const auto& stat : pm.pass_stats()) {
    auto it = std::find_if(log.begin(), log.end(), [&](const auto& entry) {
      return entry.first == stat.name;
    });
    int64_t logged = it != log.end() ? it->second : 0;
    EXPECT_EQ(stat.changes, logged) << stat.name;
  }
  EXPECT_GE(total_changes, 2);
}

}  // namespace
}  // namespace disc
