#include "ir/type_inference.h"

#include <gtest/gtest.h>

namespace disc {
namespace {

TensorType F32(std::vector<int64_t> dims) {
  return TensorType(DType::kF32, std::move(dims));
}
TensorType I64(std::vector<int64_t> dims) {
  return TensorType(DType::kI64, std::move(dims));
}

Result<TensorType> Infer(OpKind kind, std::vector<TensorType> operands,
                         AttrMap attrs = {}) {
  std::vector<const Tensor*> constants(operands.size(), nullptr);
  auto r = InferOutputTypes(kind, operands, attrs, constants);
  if (!r.ok()) return r.status();
  return (*r)[0];
}

TEST(BroadcastDimsTest, Basic) {
  auto r = BroadcastDims({4, 1}, {1, 5});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<int64_t>{4, 5}));
}

TEST(BroadcastDimsTest, RankExtension) {
  auto r = BroadcastDims({3, 4}, {4});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<int64_t>{3, 4}));
}

TEST(BroadcastDimsTest, DynamicMeetsStatic) {
  auto r = BroadcastDims({kDynamicDim, 4}, {8, 4});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<int64_t>{8, 4}));
}

TEST(BroadcastDimsTest, Mismatch) {
  EXPECT_FALSE(BroadcastDims({3}, {4}).ok());
}

TEST(TypeInferenceTest, UnaryPreservesType) {
  auto r = Infer(OpKind::kExp, {F32({kDynamicDim, 8})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[?x8]");
}

TEST(TypeInferenceTest, BinaryBroadcast) {
  auto r = Infer(OpKind::kAdd, {F32({kDynamicDim, 8}), F32({8})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[?x8]");
}

TEST(TypeInferenceTest, BinaryDTypeMismatch) {
  EXPECT_FALSE(Infer(OpKind::kAdd, {F32({4}), I64({4})}).ok());
}

TEST(TypeInferenceTest, ComparisonYieldsI1) {
  auto r = Infer(OpKind::kLess, {F32({4}), F32({4})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dtype, DType::kI1);
}

TEST(TypeInferenceTest, CastChangesDType) {
  auto r = Infer(OpKind::kCast, {F32({4})}, {{"to", DType::kI64}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dtype, DType::kI64);
}

TEST(TypeInferenceTest, SelectBroadcastsAllThree) {
  TensorType pred(DType::kI1, {4, 1});
  auto r = InferOutputTypes(OpKind::kSelect, {pred, F32({1, 5}), F32({})},
                            {}, {nullptr, nullptr, nullptr});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].ToString(), "f32[4x5]");
}

TEST(TypeInferenceTest, ReduceDropsDims) {
  auto r = Infer(OpKind::kReduceSum, {F32({2, kDynamicDim, 8})},
                 {{"dims", std::vector<int64_t>{2}}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[2x?]");
}

TEST(TypeInferenceTest, ReduceKeepDims) {
  auto r = Infer(OpKind::kReduceMax, {F32({2, 8})},
                 {{"dims", std::vector<int64_t>{1}}, {"keep_dims", 1}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[2x1]");
}

TEST(TypeInferenceTest, ReduceDimOutOfBounds) {
  EXPECT_FALSE(Infer(OpKind::kReduceSum, {F32({2})},
                     {{"dims", std::vector<int64_t>{5}}})
                   .ok());
}

TEST(TypeInferenceTest, MatMulBasic) {
  auto r = Infer(OpKind::kMatMul, {F32({kDynamicDim, 16}), F32({16, 32})},
                 {{"transpose_a", 0}, {"transpose_b", 0}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[?x32]");
}

TEST(TypeInferenceTest, MatMulBatchedBroadcast) {
  auto r = Infer(OpKind::kMatMul,
                 {F32({kDynamicDim, 12, 64, 64}), F32({kDynamicDim, 12, 64, 8})},
                 {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[?x12x64x8]");
}

TEST(TypeInferenceTest, MatMulTransposeB) {
  auto r = Infer(OpKind::kMatMul, {F32({4, 16}), F32({32, 16})},
                 {{"transpose_b", 1}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[4x32]");
}

TEST(TypeInferenceTest, MatMulContractionMismatch) {
  EXPECT_FALSE(Infer(OpKind::kMatMul, {F32({4, 16}), F32({17, 8})}, {}).ok());
}

TEST(TypeInferenceTest, Conv2DStaticShape) {
  auto r = Infer(OpKind::kConv2D,
                 {F32({2, 32, 32, 3}), F32({3, 3, 3, 16})},
                 {{"strides", std::vector<int64_t>{1, 1}},
                  {"padding", std::vector<int64_t>{1, 1}}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[2x32x32x16]");
}

TEST(TypeInferenceTest, Conv2DDynamicWidth) {
  auto r = Infer(OpKind::kConv2D,
                 {F32({1, 32, kDynamicDim, 3}), F32({3, 3, 3, 16})},
                 {{"strides", std::vector<int64_t>{2, 2}},
                  {"padding", std::vector<int64_t>{1, 1}}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[1x16x?x16]");
}

TEST(TypeInferenceTest, Conv2DRejectsInvalidOperandsAndAttrs) {
  auto conv = [](TensorType in, TensorType filter,
                 std::vector<int64_t> strides, std::vector<int64_t> padding) {
    return Infer(OpKind::kConv2D, {std::move(in), std::move(filter)},
                 {{"strides", std::move(strides)},
                  {"padding", std::move(padding)}});
  };
  // Zero or negative strides (a zero stride used to divide by zero).
  EXPECT_FALSE(conv(F32({1, 8, 8, 3}), F32({3, 3, 3, 4}), {0, 1}, {0, 0}).ok());
  EXPECT_FALSE(
      conv(F32({1, 8, 8, 3}), F32({3, 3, 3, 4}), {1, -2}, {0, 0}).ok());
  EXPECT_FALSE(conv(F32({1, kDynamicDim, 8, 3}), F32({3, 3, 3, 4}), {0, 1},
                    {0, 0})
                   .ok());
  // Negative padding.
  EXPECT_FALSE(
      conv(F32({1, 8, 8, 3}), F32({3, 3, 3, 4}), {1, 1}, {-1, 0}).ok());
  // Non-f32 or mismatched dtypes.
  EXPECT_FALSE(conv(I64({1, 8, 8, 3}), I64({3, 3, 3, 4}), {1, 1}, {0, 0}).ok());
  EXPECT_FALSE(conv(F32({1, 8, 8, 3}), I64({3, 3, 3, 4}), {1, 1}, {0, 0}).ok());
  // Static channel mismatch.
  EXPECT_FALSE(conv(F32({1, 8, 8, 3}), F32({3, 3, 2, 4}), {1, 1}, {0, 0}).ok());
  // A 4x4 window on a 1x1 input used to infer f32[1x-2x-2x1].
  EXPECT_FALSE(conv(F32({1, 1, 1, 1}), F32({4, 4, 1, 1}), {1, 1}, {0, 0}).ok());
  // The same window fits once padded, and dynamic dims defer the check.
  auto padded = conv(F32({1, 1, 1, 1}), F32({4, 4, 1, 1}), {1, 1}, {2, 2});
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  EXPECT_EQ(padded->ToString(), "f32[1x2x2x1]");
  EXPECT_TRUE(conv(F32({1, kDynamicDim, kDynamicDim, kDynamicDim}),
                   F32({4, 4, 1, 1}), {1, 1}, {0, 0})
                  .ok());
  // Missing strides or padding.
  EXPECT_FALSE(Infer(OpKind::kConv2D, {F32({1, 8, 8, 3}), F32({3, 3, 3, 4})},
                     {{"padding", std::vector<int64_t>{0, 0}}})
                   .ok());
}

TEST(TypeInferenceTest, TransposePermutes) {
  auto r = Infer(OpKind::kTranspose, {F32({2, kDynamicDim, 8})},
                 {{"perm", std::vector<int64_t>{2, 0, 1}}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[8x2x?]");
}

TEST(TypeInferenceTest, TransposeBadPerm) {
  EXPECT_FALSE(Infer(OpKind::kTranspose, {F32({2, 3})},
                     {{"perm", std::vector<int64_t>{0, 0}}})
                   .ok());
}

TEST(TypeInferenceTest, ReshapeStaticWildcard) {
  auto r = Infer(OpKind::kReshape, {F32({2, 3, 4})},
                 {{"new_shape", std::vector<int64_t>{6, kDynamicDim}}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[6x4]");
}

TEST(TypeInferenceTest, ReshapeDynamicInputKeepsWildcard) {
  auto r = Infer(OpKind::kReshape, {F32({kDynamicDim, 3, 4})},
                 {{"new_shape", std::vector<int64_t>{kDynamicDim, 12}}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[?x12]");
}

TEST(TypeInferenceTest, ReshapeCountMismatch) {
  EXPECT_FALSE(Infer(OpKind::kReshape, {F32({2, 3})},
                     {{"new_shape", std::vector<int64_t>{7}}})
                   .ok());
}

TEST(TypeInferenceTest, ReshapeFromConstantShapeOperand) {
  Tensor shape = Tensor::I64({2}, {6, 4});
  std::vector<const Tensor*> constants = {nullptr, &shape};
  auto r = InferOutputTypes(OpKind::kReshape, {F32({2, 3, 4}), I64({2})}, {},
                            constants);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].ToString(), "f32[6x4]");
}

TEST(TypeInferenceTest, ReshapeFromDynamicShapeOperand) {
  auto r = InferOutputTypes(OpKind::kReshape, {F32({2, 3, 4}), I64({2})}, {},
                            {nullptr, nullptr});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].ToString(), "f32[?x?]");
}

TEST(TypeInferenceTest, BroadcastToChecksCompat) {
  auto ok = Infer(OpKind::kBroadcastTo, {F32({1, 8})},
                  {{"new_shape", std::vector<int64_t>{4, 8}}});
  EXPECT_TRUE(ok.ok());
  auto bad = Infer(OpKind::kBroadcastTo, {F32({3, 8})},
                   {{"new_shape", std::vector<int64_t>{4, 8}}});
  EXPECT_FALSE(bad.ok());
}

TEST(TypeInferenceTest, ConcatSumsAxis) {
  auto r = Infer(OpKind::kConcat,
                 {F32({2, kDynamicDim}), F32({3, kDynamicDim})},
                 {{"axis", 0}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[5x?]");
}

TEST(TypeInferenceTest, ConcatDynamicAxis) {
  auto r = Infer(OpKind::kConcat, {F32({kDynamicDim, 4}), F32({3, 4})},
                 {{"axis", 0}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[?x4]");
}

TEST(TypeInferenceTest, SliceStatic) {
  auto r = Infer(OpKind::kSlice, {F32({10, 8})},
                 {{"starts", std::vector<int64_t>{2, 0}},
                  {"ends", std::vector<int64_t>{8, -1}},
                  {"steps", std::vector<int64_t>{2, 1}}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[3x8]");
}

TEST(TypeInferenceTest, GatherShape) {
  auto r = InferOutputTypes(OpKind::kGather, {F32({10, 4}), I64({2, 3})},
                            {{"axis", 0}}, {nullptr, nullptr});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].ToString(), "f32[2x3x4]");
}

TEST(TypeInferenceTest, PadAddsDims) {
  auto r = Infer(OpKind::kPad, {F32({4, kDynamicDim})},
                 {{"pads_low", std::vector<int64_t>{1, 0}},
                  {"pads_high", std::vector<int64_t>{1, 2}},
                  {"pad_value", 0.0}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f32[6x?]");
}

TEST(TypeInferenceTest, ShapeOfAndDim) {
  auto r = Infer(OpKind::kShapeOf, {F32({4, kDynamicDim, 8})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "i64[3]");
  auto d = Infer(OpKind::kDim, {F32({4, kDynamicDim})}, {{"index", 1}});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->ToString(), "i64[]");
}

TEST(TypeInferenceTest, ConstantFromAttr) {
  AttrMap attrs = {{"value", Tensor::F32({2, 2}, {1, 2, 3, 4})}};
  auto r = InferOutputTypes(OpKind::kConstant, {}, attrs, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].ToString(), "f32[2x2]");
}

}  // namespace
}  // namespace disc
