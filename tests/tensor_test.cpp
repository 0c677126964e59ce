#include "ir/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace disc {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t(DType::kF32, {2, 3});
  EXPECT_EQ(t.num_elements(), 6);
  EXPECT_EQ(t.byte_size(), 24);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.f32_data()[i], 0.0f);
}

TEST(TensorTest, F32Factory) {
  Tensor t = Tensor::F32({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.dtype(), DType::kF32);
  EXPECT_EQ(t.ElementAsDouble(3), 4.0);
}

TEST(TensorTest, I64Factory) {
  Tensor t = Tensor::I64({3}, {10, 20, 30});
  EXPECT_EQ(t.i64_data()[1], 20);
  EXPECT_EQ(t.byte_size(), 24);
}

TEST(TensorTest, I1NormalizesToZeroOne) {
  Tensor t = Tensor::I1({3}, {5, 0, -2});
  EXPECT_EQ(t.i64_data()[0], 1);
  EXPECT_EQ(t.i64_data()[1], 0);
  EXPECT_EQ(t.i64_data()[2], 1);
  EXPECT_EQ(t.byte_size(), 3);  // i1 is 1 byte per element logically
}

TEST(TensorTest, Scalars) {
  EXPECT_EQ(Tensor::ScalarF32(2.5f).rank(), 0);
  EXPECT_EQ(Tensor::ScalarF32(2.5f).num_elements(), 1);
  EXPECT_EQ(Tensor::ScalarI64(7).i64_data()[0], 7);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::F32({2}, {1, 2});
  Tensor b = a.Clone();
  b.f32_data()[0] = 99;
  EXPECT_EQ(a.f32_data()[0], 1.0f);
}

TEST(TensorTest, CopyIsAliasing) {
  Tensor a = Tensor::F32({2}, {1, 2});
  Tensor b = a;
  b.f32_data()[0] = 99;
  EXPECT_EQ(a.f32_data()[0], 99.0f);
}

TEST(TensorTest, Strides) {
  Tensor t(DType::kF32, {2, 3, 4});
  auto s = t.Strides();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 12);
  EXPECT_EQ(s[1], 4);
  EXPECT_EQ(s[2], 1);
}

TEST(TensorTest, TypeString) {
  EXPECT_EQ(Tensor(DType::kF32, {2, 3}).TypeString(), "f32[2x3]");
  EXPECT_EQ(Tensor::ScalarI64(1).TypeString(), "i64[]");
}

TEST(TensorTest, SetElementFromDoubleClampsI1) {
  Tensor t(DType::kI1, {2});
  t.SetElementFromDouble(0, 3.5);
  t.SetElementFromDouble(1, 0.0);
  EXPECT_EQ(t.i64_data()[0], 1);
  EXPECT_EQ(t.i64_data()[1], 0);
}

TEST(TensorTest, MaxAbsDiff) {
  Tensor a = Tensor::F32({2}, {1, 2});
  Tensor b = Tensor::F32({2}, {1.5, 2});
  EXPECT_DOUBLE_EQ(Tensor::MaxAbsDiff(a, b), 0.5);
}

TEST(TensorTest, AllCloseExactAndTolerance) {
  Tensor a = Tensor::F32({2}, {1.0f, 100.0f});
  Tensor b = Tensor::F32({2}, {1.0f, 100.001f});
  EXPECT_TRUE(Tensor::AllClose(a, b));
  Tensor c = Tensor::F32({2}, {1.0f, 110.0f});
  EXPECT_FALSE(Tensor::AllClose(a, c));
}

TEST(TensorTest, AllCloseShapeMismatch) {
  EXPECT_FALSE(Tensor::AllClose(Tensor::F32({2}, {1, 2}),
                                Tensor::F32({2, 1}, {1, 2})));
}

TEST(TensorTest, AllCloseNaNAgreement) {
  float nan = std::nanf("");
  EXPECT_TRUE(Tensor::AllClose(Tensor::F32({1}, {nan}),
                               Tensor::F32({1}, {nan})));
  EXPECT_FALSE(
      Tensor::AllClose(Tensor::F32({1}, {nan}), Tensor::F32({1}, {1.0f})));
}

TEST(TensorTest, AllCloseInfinityMatchesOnlyItself) {
  const float inf = std::numeric_limits<float>::infinity();
  const float max = std::numeric_limits<float>::max();
  EXPECT_TRUE(Tensor::AllClose(Tensor::F32({2}, {inf, -inf}),
                               Tensor::F32({2}, {inf, -inf})));
  for (float other : {0.0f, 1.0f, max, -inf}) {
    EXPECT_FALSE(
        Tensor::AllClose(Tensor::F32({1}, {other}), Tensor::F32({1}, {inf})))
        << other;
    EXPECT_FALSE(
        Tensor::AllClose(Tensor::F32({1}, {inf}), Tensor::F32({1}, {other})))
        << other;
  }
}

}  // namespace
}  // namespace disc
