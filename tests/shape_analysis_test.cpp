#include "shape/shape_analysis.h"

#include <gtest/gtest.h>

#include "ir/builder.h"

namespace disc {
namespace {

std::vector<int64_t> DimsOf(const ShapeTable& shapes, const Value* v) {
  const std::span<const int64_t> dims = shapes.dims(v);
  return {dims.begin(), dims.end()};
}

TEST(ShapeAnalysisTest, SeedsInputsWithLabels) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 64});
  Value* y = b.Input("y", DType::kF32, {kDynamicDim, 64});
  b.Output({x, y});

  ShapeAnalysis analysis(&g, {{"B", "S", ""}, {"B", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  // Shared label "B" -> same symbol on both inputs.
  EXPECT_TRUE(analysis.IsDimEqual(x, 0, y, 0));
  // Static dim is a constant.
  EXPECT_TRUE(analysis.GetShape(x)[2].IsConstValue(64));
  // Unlabelled dynamic dims are distinct.
  EXPECT_FALSE(analysis.IsDimEqual(x, 1, y, 0));
}

TEST(ShapeAnalysisTest, ElementwisePreservesShape) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* y = b.Relu(b.Exp(x));
  b.Output({y});
  ShapeAnalysis analysis(&g);
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_TRUE(analysis.IsShapeEqual(x, y));
}

TEST(ShapeAnalysisTest, BinaryUnifiesDynamicDims) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* y = b.Input("y", DType::kF32, {kDynamicDim, 8});
  Value* z = b.Add(x, y);
  b.Output({z});
  ShapeAnalysis analysis(&g);
  ASSERT_TRUE(analysis.Run().ok());
  // The add forces the two anonymous batch dims to be equal — excavated.
  EXPECT_TRUE(analysis.IsDimEqual(x, 0, y, 0));
  EXPECT_TRUE(analysis.IsShapeEqual(x, z));
}

TEST(ShapeAnalysisTest, SymbolMeetingConstantBecomesConstant) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* y = b.Input("y", DType::kF32, {kDynamicDim, 128});
  Value* z = b.Add(x, y);
  b.Output({z});
  ShapeAnalysis analysis(&g);
  ASSERT_TRUE(analysis.Run().ok());
  // x's second dim must equal 128 at runtime.
  DimExpr d = analysis.manager().Canonicalize(analysis.GetShape(x)[1]);
  EXPECT_TRUE(d.IsConstValue(128));
}

TEST(ShapeAnalysisTest, ScalarBroadcastKeepsShape) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* y = b.Mul(x, b.ScalarF32(2.0f));
  b.Output({y});
  ShapeAnalysis analysis(&g);
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_TRUE(analysis.IsShapeEqual(x, y));
}

TEST(ShapeAnalysisTest, ReduceDropsAndKeepsDims) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 64});
  Value* dropped = b.ReduceSum(x, {2});
  Value* kept = b.ReduceMax(x, {2}, /*keep=*/true);
  b.Output({dropped, kept});
  ShapeAnalysis analysis(&g, {{"B", "S", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_EQ(analysis.GetShape(dropped).size(), 2u);
  EXPECT_TRUE(analysis.IsDimEqual(dropped, 0, x, 0));
  EXPECT_TRUE(analysis.IsDimEqual(dropped, 1, x, 1));
  ASSERT_EQ(analysis.GetShape(kept).size(), 3u);
  EXPECT_TRUE(analysis.GetShape(kept)[2].IsConstValue(1));
}

TEST(ShapeAnalysisTest, MatMulUnifiesContraction) {
  Graph g;
  GraphBuilder b(&g);
  Value* a = b.Input("a", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* w = b.Input("w", DType::kF32, {kDynamicDim, 32});
  Value* y = b.MatMul(a, w);
  b.Output({y});
  ShapeAnalysis analysis(&g);
  ASSERT_TRUE(analysis.Run().ok());
  // a.dim1 == w.dim0 excavated from the contraction.
  EXPECT_TRUE(analysis.IsDimEqual(a, 1, w, 0));
  EXPECT_TRUE(analysis.IsDimEqual(y, 0, a, 0));
  EXPECT_TRUE(analysis.GetShape(y)[1].IsConstValue(32));
}

TEST(ShapeAnalysisTest, ReshapeFlattenProducesProduct) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 64});
  Value* flat = b.Reshape(x, {-1, 64});
  b.Output({flat});
  ShapeAnalysis analysis(&g, {{"B", "S", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  const SymShape& in = analysis.GetShape(x);
  const SymShape& out = analysis.GetShape(flat);
  // flat.dim0 == B * S, recovered by symbolic division.
  EXPECT_TRUE(analysis.manager().IsDimEqual(out[0],
                                            DimExpr::Mul(in[0], in[1])));
  EXPECT_TRUE(analysis.IsSameNumElements(x, flat));
}

TEST(ShapeAnalysisTest, ReshapeRoundTripSameElements) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 64});
  Value* flat = b.Reshape(x, {-1, 64});
  Value* act = b.Relu(flat);
  Value* shape = b.ShapeOf(x);
  Value* back = b.ReshapeDynamic(act, shape);
  b.Output({back});
  ShapeAnalysis analysis(&g, {{"B", "S", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  // Contents of shape_of(x) are x's dims, so `back` has x's exact shape.
  EXPECT_TRUE(analysis.IsShapeEqual(x, back));
  EXPECT_TRUE(analysis.IsSameNumElements(act, back));
}

TEST(ShapeAnalysisTest, ShapeOfContentTracked) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 32});
  Value* shape = b.ShapeOf(x);
  b.Output({shape});
  ShapeAnalysis analysis(&g, {{"B", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  const auto* content = analysis.GetContent(shape);
  ASSERT_NE(content, nullptr);
  ASSERT_EQ(content->size(), 2u);
  EXPECT_TRUE((*content)[0].Equals(analysis.GetShape(x)[0]));
  EXPECT_TRUE((*content)[1].IsConstValue(32));
}

TEST(ShapeAnalysisTest, DimAndConcatShapeArithmetic) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 64});
  // target = [B*S, 64] computed in-graph from dims.
  Value* bdim = b.Dim(x, 0);
  Value* sdim = b.Dim(x, 1);
  Value* flat_len = b.Mul(bdim, sdim);
  Value* shape = b.Concat({b.Reshape(flat_len, {1}),
                           b.Constant(Tensor::I64({1}, {64}))},
                          0);
  Value* out = b.ReshapeDynamic(x, shape);
  b.Output({out});
  ShapeAnalysis analysis(&g, {{"B", "S", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  const SymShape& in = analysis.GetShape(x);
  const SymShape& result = analysis.GetShape(out);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_TRUE(
      analysis.manager().IsDimEqual(result[0], DimExpr::Mul(in[0], in[1])));
  EXPECT_TRUE(result[1].IsConstValue(64));
}

TEST(ShapeAnalysisTest, ConcatAxisIsSum) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* y = b.Input("y", DType::kF32, {kDynamicDim, 8});
  Value* cat = b.Concat({x, y}, 0);
  b.Output({cat});
  ShapeAnalysis analysis(&g, {{"M", ""}, {"N", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  DimExpr expected = DimExpr::Add(analysis.GetShape(x)[0],
                                  analysis.GetShape(y)[0]);
  EXPECT_TRUE(analysis.manager().IsDimEqual(analysis.GetShape(cat)[0],
                                            expected));
}

TEST(ShapeAnalysisTest, SliceFullDimPreservesSymbol) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* s = b.Slice(x, {0, 2}, {-1, 6}, {1, 1});
  b.Output({s});
  ShapeAnalysis analysis(&g, {{"B", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_TRUE(analysis.IsDimEqual(s, 0, x, 0));
  EXPECT_TRUE(analysis.GetShape(s)[1].IsConstValue(4));
}

TEST(ShapeAnalysisTest, TransposePermutesSymbols) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 64});
  Value* t = b.Transpose(x, {1, 0, 2});
  b.Output({t});
  ShapeAnalysis analysis(&g, {{"B", "S", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_TRUE(analysis.IsDimEqual(t, 0, x, 1));
  EXPECT_TRUE(analysis.IsDimEqual(t, 1, x, 0));
}

TEST(ShapeAnalysisTest, GatherShapesFromIndices) {
  Graph g;
  GraphBuilder b(&g);
  Value* table = b.Input("table", DType::kF32, {1000, 64});
  Value* ids = b.Input("ids", DType::kI64, {kDynamicDim});
  Value* emb = b.Gather(table, ids, 0);
  b.Output({emb});
  ShapeAnalysis analysis(&g, {{}, {"N"}});
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_TRUE(analysis.IsDimEqual(emb, 0, ids, 0));
  EXPECT_TRUE(analysis.GetShape(emb)[1].IsConstValue(64));
}

TEST(ShapeAnalysisTest, BindInputsSolvesSymbols) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 64});
  Value* flat = b.Reshape(x, {-1, 64});
  b.Output({flat});
  ShapeAnalysis analysis(&g, {{"B", "S", ""}});
  ASSERT_TRUE(analysis.Run().ok());

  auto bindings = analysis.BindInputs({{4, 17, 64}});
  ASSERT_TRUE(bindings.ok());
  auto shapes = analysis.EvaluateShapes(*bindings);
  ASSERT_TRUE(shapes.ok()) << shapes.status().ToString();
  const std::vector<int64_t> dims = DimsOf(*shapes, flat);
  EXPECT_EQ(dims, (std::vector<int64_t>{4 * 17, 64}));
}

TEST(ShapeAnalysisTest, ShapeTableEvaluatesEachDistinctDimOnce) {
  // x [B, S, 64] -> reshape [B*S, 64] -> relu -> reduce over dim 1 [B*S]:
  // five values, nine dims, four distinct canonical expressions.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 64});
  Value* flat = b.Reshape(x, {-1, 64});
  Value* act = b.Relu(flat);
  Value* sum = b.ReduceSum(act, {1});
  b.Output({sum});
  ShapeAnalysis analysis(&g, {{"B", "S", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  auto bindings = analysis.BindInputs({{3, 5, 64}});
  ASSERT_TRUE(bindings.ok());
  auto shapes = analysis.EvaluateShapes(*bindings);
  ASSERT_TRUE(shapes.ok()) << shapes.status().ToString();
  EXPECT_EQ(DimsOf(*shapes, x), (std::vector<int64_t>{3, 5, 64}));
  EXPECT_EQ(DimsOf(*shapes, flat), (std::vector<int64_t>{15, 64}));
  EXPECT_EQ(DimsOf(*shapes, act), (std::vector<int64_t>{15, 64}));
  EXPECT_EQ(DimsOf(*shapes, sum), (std::vector<int64_t>{15}));
  EXPECT_EQ(shapes->num_elements(flat), 15 * 64);
  // Every entry is the canonical expression of a value's dim.
  for (const Value* v : {x, flat, act, sum}) {
    const SymShape& shape = analysis.GetShape(v);
    for (size_t d = 0; d < shape.size(); ++d) {
      auto expected = analysis.EvaluateDim(shape[d], *bindings);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(shapes->dims(v)[d], *expected) << "%" << v->id() << " " << d;
    }
  }
}

TEST(ShapeAnalysisTest, BindInputsRejectsNegativeDims) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 64});
  b.Output({b.Relu(x)});
  ShapeAnalysis analysis(&g);
  ASSERT_TRUE(analysis.Run().ok());
  auto bindings = analysis.BindInputs({{-2, 64}});
  ASSERT_FALSE(bindings.ok());
  EXPECT_EQ(bindings.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bindings.status().message().find("input 0 ('x') dim 0 is -2"),
            std::string::npos)
      << bindings.status().ToString();
}

TEST(ShapeAnalysisTest, ShapeTableRejectsSizesBeyondInt64) {
  // Each dim fits, but [2^31, 2^31, 64] holds 2^68 elements, and
  // [2^29, 2^26, 64] holds 2^61, whose bytes overflow.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 64});
  b.Output({b.Relu(x)});
  ShapeAnalysis analysis(&g, {{"B", "S", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  const int64_t big = int64_t{1} << 31;
  for (const std::vector<int64_t>& dims :
       {std::vector<int64_t>{big, big, 64},
        std::vector<int64_t>{int64_t{1} << 29, int64_t{1} << 26, 64}}) {
    auto bindings = analysis.BindInputs({dims});
    ASSERT_TRUE(bindings.ok());
    auto shapes = analysis.EvaluateShapes(*bindings);
    ASSERT_FALSE(shapes.ok());
    EXPECT_EQ(shapes.status().code(), StatusCode::kInvalidArgument);
  }
  // A zero dim leaves nothing to overflow.
  auto bindings = analysis.BindInputs({{big, 0, 64}});
  ASSERT_TRUE(bindings.ok());
  EXPECT_TRUE(analysis.EvaluateShapes(*bindings).ok());
}

TEST(ShapeAnalysisTest, BindInputsRejectsStaticMismatch) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 64});
  b.Output({b.Relu(x)});
  ShapeAnalysis analysis(&g);
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_FALSE(analysis.BindInputs({{4, 32}}).ok());
  EXPECT_FALSE(analysis.BindInputs({{4}}).ok());
  EXPECT_FALSE(analysis.BindInputs({}).ok());
}

TEST(ShapeAnalysisTest, BindInputsRejectsInconsistentSharedSymbol) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* y = b.Input("y", DType::kF32, {kDynamicDim, 8});
  b.Output({b.Add(x, y)});  // forces equal batch dims
  ShapeAnalysis analysis(&g);
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_TRUE(analysis.BindInputs({{4, 8}, {4, 8}}).ok());
  EXPECT_FALSE(analysis.BindInputs({{4, 8}, {5, 8}}).ok());
}

TEST(ShapeAnalysisTest, EvaluateConvOutputDims) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {1, 32, kDynamicDim, 3});
  Value* w = b.Constant(Tensor(DType::kF32, {3, 3, 3, 8}));
  Value* y = b.Conv2D(x, w, {2, 2}, {1, 1});
  b.Output({y});
  ShapeAnalysis analysis(&g, {{"", "", "W", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  auto bindings = analysis.BindInputs({{1, 32, 100, 3}});
  ASSERT_TRUE(bindings.ok());
  auto shapes = analysis.EvaluateShapes(*bindings);
  ASSERT_TRUE(shapes.ok()) << shapes.status().ToString();
  const std::vector<int64_t> dims = DimsOf(*shapes, y);
  // (100 + 2 - 3) / 2 + 1 = 50; (32 + 2 - 3)/2 + 1 = 16.
  EXPECT_EQ(dims, (std::vector<int64_t>{1, 16, 50, 8}));
}

TEST(ShapeAnalysisTest, MatMulTransposeFlagsPickRightDims) {
  Graph g;
  GraphBuilder b(&g);
  Value* a = b.Input("a", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* w = b.Input("w", DType::kF32, {kDynamicDim, kDynamicDim});
  // a^T @ w^T: m = a.dim1, n = w.dim0, contraction a.dim0 == w.dim1.
  Value* y = b.MatMul(a, w, /*transpose_a=*/true, /*transpose_b=*/true);
  b.Output({y});
  ShapeAnalysis analysis(&g, {{"M", "K"}, {"N", "K2"}});
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_TRUE(analysis.IsDimEqual(y, 0, a, 1));
  EXPECT_TRUE(analysis.IsDimEqual(y, 1, w, 0));
  EXPECT_TRUE(analysis.IsDimEqual(a, 0, w, 1));  // excavated contraction
}

TEST(ShapeAnalysisTest, ContentArithmeticDivAndNested) {
  // target = [(B*S)/4, 4, C]: shape arithmetic with division.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 8});
  Value* flat_len = b.Mul(b.Dim(x, 0), b.Dim(x, 1));
  Value* quarter = b.Div(flat_len, b.ScalarI64(4));
  Value* shape = b.Concat({b.Reshape(quarter, {1}),
                           b.Constant(Tensor::I64({2}, {4, 8}))},
                          0);
  Value* y = b.ReshapeDynamic(x, shape);
  b.Output({y});
  ShapeAnalysis analysis(&g, {{"B", "S", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  const SymShape& out = analysis.GetShape(y);
  ASSERT_EQ(out.size(), 3u);
  // dim 0 = floordiv(B*S, 4), evaluable.
  auto bindings = analysis.BindInputs({{4, 6, 8}});
  ASSERT_TRUE(bindings.ok());
  auto shapes = analysis.EvaluateShapes(*bindings);
  ASSERT_TRUE(shapes.ok()) << shapes.status().ToString();
  const std::vector<int64_t> dims = DimsOf(*shapes, y);
  EXPECT_EQ(dims, (std::vector<int64_t>{6, 4, 8}));
}

TEST(ShapeAnalysisTest, ConvChannelMismatchExcavated) {
  // Conv with a dynamic channel input: channel must equal the filter's.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {1, 8, 8, kDynamicDim});
  Value* w = b.Input("w", DType::kF32, {3, 3, kDynamicDim, 16});
  b.Output({b.Conv2D(x, w, {1, 1}, {1, 1})});
  ShapeAnalysis analysis(&g, {{"", "", "", "C1"}, {"", "", "C2", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_TRUE(analysis.IsDimEqual(g.inputs()[0], 3, g.inputs()[1], 2));
  // Inconsistent runtime channels rejected.
  EXPECT_FALSE(analysis.BindInputs({{1, 8, 8, 3}, {3, 3, 4, 16}}).ok());
}

TEST(ShapeAnalysisTest, PadAddsConstants) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* p = b.Pad(x, {0, 1}, {0, 3});
  b.Output({p});
  ShapeAnalysis analysis(&g, {{"B", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_TRUE(analysis.IsDimEqual(p, 0, x, 0));
  EXPECT_TRUE(analysis.GetShape(p)[1].IsConstValue(12));
}

}  // namespace
}  // namespace disc
