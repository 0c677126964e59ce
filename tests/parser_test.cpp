#include "ir/parser.h"

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "support/rng.h"

namespace disc {
namespace {

TEST(ParserTest, MinimalGraph) {
  auto g = ParseGraph(R"(graph tiny (%0: f32[4]) {
    %1 = relu(%0) : f32[4]
    return %1
  })");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ((*g)->name(), "tiny");
  EXPECT_EQ((*g)->num_nodes(), 1);
  EXPECT_EQ((*g)->outputs()[0]->producer()->kind(), OpKind::kRelu);
}

TEST(ParserTest, DynamicDimsAndAttrs) {
  auto g = ParseGraph(R"(graph t (%0: f32[?x8]) {
    %1 = reduce_sum(%0) {dims = [1], keep_dims = 1} : f32[?x1]
    return %1
  })");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  Node* node = (*g)->outputs()[0]->producer();
  EXPECT_EQ(node->GetIntListAttr("dims"), (std::vector<int64_t>{1}));
  EXPECT_EQ(node->GetIntAttr("keep_dims", 0), 1);
  EXPECT_EQ(node->output(0)->type().ToString(), "f32[?x1]");
}

TEST(ParserTest, ConstantTensorLiteral) {
  auto g = ParseGraph(R"(graph c () {
    %0 = constant() {value = f32[2x2] {1, 2.5, -3, 4}} : f32[2x2]
    return %0
  })");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Tensor& t =
      (*g)->outputs()[0]->producer()->GetTensorAttr("value");
  EXPECT_FLOAT_EQ(t.f32_data()[1], 2.5f);
  EXPECT_FLOAT_EQ(t.f32_data()[2], -3.0f);
}

TEST(ParserTest, DTypeAttr) {
  auto g = ParseGraph(R"(graph c (%0: f32[3]) {
    %1 = cast(%0) {to = i64} : i64[3]
    return %1
  })");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ((*g)->outputs()[0]->dtype(), DType::kI64);
}

TEST(ParserTest, RejectsUnknownOp) {
  auto g = ParseGraph(R"(graph b (%0: f32[2]) {
    %1 = frobnicate(%0) : f32[2]
    return %1
  })");
  EXPECT_FALSE(g.ok());
}

TEST(ParserTest, RejectsUndefinedValue) {
  auto g = ParseGraph(R"(graph b (%0: f32[2]) {
    %1 = relu(%9) : f32[2]
    return %1
  })");
  EXPECT_FALSE(g.ok());
}

TEST(ParserTest, RejectsTypeMismatch) {
  auto g = ParseGraph(R"(graph b (%0: f32[2]) {
    %1 = relu(%0) : f32[3]
    return %1
  })");
  EXPECT_FALSE(g.ok());  // verifier catches the declared type
}

TEST(ParserTest, RejectsTrailingGarbage) {
  auto g = ParseGraph(R"(graph b (%0: f32[2]) {
    %1 = relu(%0) : f32[2]
    return %1
  } extra)");
  EXPECT_FALSE(g.ok());
}

// Verification runs the type rules on parsed text, so a bad conv2d is an
// error status, not a crash of the tool that loads the file.
TEST(ParserTest, RejectsInvalidConv2D) {
  const char* kBadConvs[] = {
      // Zero stride (used to raise SIGFPE during type inference).
      R"(graph b (%0: f32[1x8x8x1], %1: f32[3x3x1x2]) {
        %2 = conv2d(%0, %1) {strides = [0, 1], padding = [0, 0]} : f32[1x6x6x2]
        return %2
      })",
      // Integer operands.
      R"(graph b (%0: i64[1x8x8x1], %1: i64[3x3x1x2]) {
        %2 = conv2d(%0, %1) {strides = [1, 1], padding = [0, 0]} : i64[1x6x6x2]
        return %2
      })",
      // A window larger than the padded input.
      R"(graph b (%0: f32[1x1x1x1], %1: f32[4x4x1x1]) {
        %2 = conv2d(%0, %1) {strides = [1, 1], padding = [0, 0]} : f32[1x-2x-2x1]
        return %2
      })",
  };
  for (const char* text : kBadConvs) {
    auto g = ParseGraph(text);
    EXPECT_FALSE(g.ok()) << text;
    if (!g.ok()) {
      EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument)
          << g.status().ToString();
    }
  }
  auto good = ParseGraph(R"(graph g (%0: f32[1x8x8x1], %1: f32[3x3x1x2]) {
    %2 = conv2d(%0, %1) {strides = [2, 1], padding = [1, 0]} : f32[1x4x6x2]
    return %2
  })");
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

// A loaded file whose integer division has no value compiles (constant
// folding leaves the division alone) and fails when it runs: neither step
// may raise SIGFPE in the tool that loads it.
TEST(ParserTest, UndefinedIntegerDivisionCompilesAndFailsAtRun) {
  auto g = ParseGraph(R"(graph d (%0: i64[2]) {
  %1 = constant() {value = i64[2] {6, 8}} : i64[2]
  %2 = constant() {value = i64[2] {2, 0}} : i64[2]
  %3 = div(%1, %2) : i64[2]
  %4 = add(%0, %3) : i64[2]
  return %4
})");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto exe = DiscCompiler::Compile(**g, {{""}});
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  auto run = (*exe)->Run({Tensor::I64({2}, {1, 1})});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
      << run.status().ToString();
}

TEST(ParserTest, RoundTripPreservesStructureAndSemantics) {
  Graph g("roundtrip");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* w = b.Constant(Tensor::F32({8, 4}, [] {
    std::vector<float> v(32);
    for (size_t i = 0; i < v.size(); ++i) v[i] = 0.1f * (i % 7);
    return v;
  }()));
  Value* h = b.Relu(b.MatMul(x, w));
  Value* s = b.Softmax(h);
  b.Output({s, h});

  auto parsed = ParseGraph(g.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << g.ToString();
  EXPECT_EQ((*parsed)->num_nodes(), g.num_nodes());
  EXPECT_EQ((*parsed)->outputs().size(), g.outputs().size());

  // Same numerics.
  Rng rng(5);
  Tensor in(DType::kF32, {3, 8});
  for (int i = 0; i < 24; ++i) in.f32_data()[i] = rng.Normal();
  auto want = EvaluateGraph(g, {in});
  auto got = EvaluateGraph(**parsed, {in});
  ASSERT_TRUE(want.ok() && got.ok());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_TRUE(Tensor::AllClose((*got)[i], (*want)[i]));
  }
}

TEST(ParserTest, RoundTripIsAFixpoint) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* flat = b.Reshape(x, {-1});
  Value* back = b.ReshapeDynamic(b.Exp(flat), b.ShapeOf(x));
  b.Output({back});
  auto once = ParseGraph(g.ToString());
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  auto twice = ParseGraph((*once)->ToString());
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  EXPECT_EQ((*once)->ToString(), (*twice)->ToString());
}

TEST(ParserTest, MultiRankTypesParse) {
  auto g = ParseGraph(R"(graph r (%0: f32[], %1: i1[2x3x4x5]) {
    return %0, %1
  })");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ((*g)->inputs()[0]->rank(), 0);
  EXPECT_EQ((*g)->inputs()[1]->rank(), 4);
  EXPECT_EQ((*g)->inputs()[1]->dtype(), DType::kI1);
}

TEST(ParserTest, TransposeAttrRoundTrip) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, kDynamicDim, 4});
  b.Output({b.Transpose(x, {2, 0, 1})});
  auto parsed = ParseGraph(g.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)->outputs()[0]->producer()->GetIntListAttr("perm"),
            (std::vector<int64_t>{2, 0, 1}));
}

}  // namespace
}  // namespace disc
