#include "ir/eval.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ir/builder.h"
#include "support/rng.h"

namespace disc {
namespace {

Tensor RandomF32(Rng* rng, std::vector<int64_t> dims) {
  Tensor t(DType::kF32, std::move(dims));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.f32_data()[i] = rng->Normal();
  }
  return t;
}

std::vector<Tensor> Eval(const Graph& g, std::vector<Tensor> inputs) {
  auto r = EvaluateGraph(g, inputs);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : std::vector<Tensor>{};
}

TEST(EvalTest, AddWithBroadcast) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 3});
  Value* y = b.Input("y", DType::kF32, {3});
  b.Output({b.Add(x, y)});
  auto out = Eval(g, {Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6}),
                      Tensor::F32({3}, {10, 20, 30})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(Tensor::AllClose(
      out[0], Tensor::F32({2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(EvalTest, UnaryMath) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  b.Output({b.Exp(x), b.Relu(x), b.Abs(x), b.Sigmoid(x)});
  auto out = Eval(g, {Tensor::F32({4}, {-1, 0, 1, 2})});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_NEAR(out[0].f32_data()[0], std::exp(-1.0f), 1e-6);
  EXPECT_EQ(out[1].f32_data()[0], 0.0f);
  EXPECT_EQ(out[1].f32_data()[3], 2.0f);
  EXPECT_EQ(out[2].f32_data()[0], 1.0f);
  EXPECT_NEAR(out[3].f32_data()[1], 0.5f, 1e-6);
}

TEST(EvalTest, CompareAndSelect) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  Value* pred = b.Greater(x, b.ScalarF32(0.0f));
  b.Output({b.Select(pred, x, b.Neg(x))});  // == abs
  auto out = Eval(g, {Tensor::F32({4}, {-3, -1, 2, 0})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({4}, {3, 1, 2, 0})));
}

TEST(EvalTest, IntegerDivModTruncate) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kI64, {3});
  Value* y = b.Input("y", DType::kI64, {3});
  b.Output({b.Div(x, y), b.Binary(OpKind::kMod, x, y)});
  auto out = Eval(g, {Tensor::I64({3}, {7, 8, 9}), Tensor::I64({3}, {2, 4, 5})});
  EXPECT_EQ(out[0].i64_data()[0], 3);
  EXPECT_EQ(out[0].i64_data()[1], 2);
  EXPECT_EQ(out[1].i64_data()[2], 4);
}

TEST(EvalTest, ReduceOps) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 3});
  b.Output({b.ReduceSum(x, {1}), b.ReduceMax(x, {0}),
            b.ReduceMean(x, {0, 1}), b.Reduce(OpKind::kReduceMin, x, {1})});
  auto out = Eval(g, {Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({2}, {6, 15})));
  EXPECT_TRUE(Tensor::AllClose(out[1], Tensor::F32({3}, {4, 5, 6})));
  EXPECT_NEAR(out[2].f32_data()[0], 3.5f, 1e-6);
  EXPECT_TRUE(Tensor::AllClose(out[3], Tensor::F32({2}, {1, 4})));
}

TEST(EvalTest, ReduceKeepDims) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 3});
  b.Output({b.ReduceSum(x, {1}, /*keep=*/true)});
  auto out = Eval(g, {Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6})});
  EXPECT_EQ(out[0].dims(), (std::vector<int64_t>{2, 1}));
}

TEST(EvalTest, MatMul2D) {
  Graph g;
  GraphBuilder b(&g);
  Value* a = b.Input("a", DType::kF32, {2, 3});
  Value* w = b.Input("w", DType::kF32, {3, 2});
  b.Output({b.MatMul(a, w)});
  auto out = Eval(g, {Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6}),
                      Tensor::F32({3, 2}, {1, 0, 0, 1, 1, 1})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({2, 2}, {4, 5, 10, 11})));
}

TEST(EvalTest, MatMulTransposedAgreesWithExplicitTranspose) {
  Rng rng(42);
  Tensor a = RandomF32(&rng, {4, 6});
  Tensor w = RandomF32(&rng, {5, 6});

  Graph g1;
  GraphBuilder b1(&g1);
  Value* av = b1.Input("a", DType::kF32, {4, 6});
  Value* wv = b1.Input("w", DType::kF32, {5, 6});
  b1.Output({b1.MatMul(av, wv, false, /*transpose_b=*/true)});

  Graph g2;
  GraphBuilder b2(&g2);
  Value* av2 = b2.Input("a", DType::kF32, {4, 6});
  Value* wv2 = b2.Input("w", DType::kF32, {5, 6});
  b2.Output({b2.MatMul(av2, b2.Transpose(wv2, {1, 0}))});

  auto r1 = Eval(g1, {a, w});
  auto r2 = Eval(g2, {a, w});
  EXPECT_TRUE(Tensor::AllClose(r1[0], r2[0]));
}

TEST(EvalTest, BatchedMatMulBroadcastsBatchDims) {
  Rng rng(1);
  Tensor a = RandomF32(&rng, {3, 2, 4});
  Tensor w = RandomF32(&rng, {4, 5});  // broadcast over batch

  Graph g;
  GraphBuilder b(&g);
  Value* av = b.Input("a", DType::kF32, {3, 2, 4});
  Value* wv = b.Input("w", DType::kF32, {4, 5});
  b.Output({b.MatMul(av, wv)});
  auto out = Eval(g, {a, w});
  ASSERT_EQ(out[0].dims(), (std::vector<int64_t>{3, 2, 5}));
  // Check batch 2 against a manual 2-D matmul.
  Graph g2;
  GraphBuilder b2(&g2);
  Value* a2 = b2.Input("a", DType::kF32, {2, 4});
  Value* w2 = b2.Input("w", DType::kF32, {4, 5});
  b2.Output({b2.MatMul(a2, w2)});
  Tensor slice(DType::kF32, {2, 4});
  for (int i = 0; i < 8; ++i) slice.f32_data()[i] = a.f32_data()[16 + i];
  auto ref = Eval(g2, {slice, w});
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(out[0].f32_data()[20 + i], ref[0].f32_data()[i], 1e-5);
  }
}

// The per-output dot-product loops EvaluateNode ran before GEMM and Conv2D
// were reordered, kept as the bitwise reference for the reordered loops.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b, bool ta, bool tb,
                   const std::vector<int64_t>& batch) {
  const int64_t ra = a.rank(), rb = b.rank();
  const int64_t m = a.dims()[ra - (ta ? 1 : 2)];
  const int64_t k = a.dims()[ra - (ta ? 2 : 1)];
  const int64_t n = b.dims()[rb - (tb ? 2 : 1)];
  const int64_t lda = a.dims()[ra - 1], ldb = b.dims()[rb - 1];
  auto batch_offset = [](const Tensor& t, const std::vector<int64_t>& idx) {
    const int64_t batch_rank = t.rank() - 2;
    const int64_t align = static_cast<int64_t>(idx.size()) - batch_rank;
    const std::vector<int64_t> strides = t.Strides();
    int64_t offset = 0;
    for (int64_t i = 0; i < batch_rank; ++i) {
      offset += (t.dims()[i] == 1 ? 0 : idx[align + i]) * strides[i];
    }
    return offset;
  };
  std::vector<int64_t> out_dims = batch;
  out_dims.push_back(m);
  out_dims.push_back(n);
  Tensor out(a.dtype(), out_dims);
  std::vector<int64_t> idx(batch.size(), 0);
  for (int64_t bi = 0; bi < Product(batch); ++bi) {
    const int64_t oa = batch_offset(a, idx), ob = batch_offset(b, idx);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        double sum = 0.0;
        for (int64_t kk = 0; kk < k; ++kk) {
          const int64_t ia = ta ? kk * lda + i : i * lda + kk;
          const int64_t ib = tb ? j * ldb + kk : kk * ldb + j;
          sum += a.ElementAsDouble(oa + ia) * b.ElementAsDouble(ob + ib);
        }
        out.SetElementFromDouble(bi * m * n + i * n + j, sum);
      }
    }
    for (int64_t d = static_cast<int64_t>(batch.size()) - 1; d >= 0; --d) {
      if (++idx[d] < batch[d]) break;
      idx[d] = 0;
    }
  }
  return out;
}

Tensor NaiveConv2D(const Tensor& in, const Tensor& filter, int64_t sh,
                   int64_t sw, int64_t ph, int64_t pw) {
  const int64_t n = in.dims()[0], h = in.dims()[1], w = in.dims()[2],
                c = in.dims()[3];
  const int64_t kh = filter.dims()[0], kw = filter.dims()[1],
                oc = filter.dims()[3];
  const int64_t oh = (h + 2 * ph - kh) / sh + 1;
  const int64_t ow = (w + 2 * pw - kw) / sw + 1;
  Tensor out(DType::kF32, {n, oh, ow, oc});
  const float* src = in.f32_data();
  const float* flt = filter.f32_data();
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t yo = 0; yo < oh; ++yo) {
      for (int64_t xo = 0; xo < ow; ++xo) {
        for (int64_t co = 0; co < oc; ++co) {
          double sum = 0.0;
          for (int64_t ky = 0; ky < kh; ++ky) {
            const int64_t yi = yo * sh - ph + ky;
            if (yi < 0 || yi >= h) continue;
            for (int64_t kx = 0; kx < kw; ++kx) {
              const int64_t xi = xo * sw - pw + kx;
              if (xi < 0 || xi >= w) continue;
              for (int64_t ci = 0; ci < c; ++ci) {
                sum += static_cast<double>(
                           src[((ni * h + yi) * w + xi) * c + ci]) *
                       static_cast<double>(
                           flt[((ky * kw + kx) * c + ci) * oc + co]);
              }
            }
          }
          out.f32_data()[((ni * oh + yo) * ow + xo) * oc + co] =
              static_cast<float>(sum);
        }
      }
    }
  }
  return out;
}

Tensor RandomI64(Rng* rng, std::vector<int64_t> dims) {
  Tensor t(DType::kI64, std::move(dims));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.i64_data()[i] = rng->UniformInt(-9, 9);
  }
  return t;
}

TEST(EvalTest, MatMulLoopOrderIsBitIdenticalToDotProducts) {
  struct Case {
    std::vector<int64_t> a, b, batch;
    bool ta, tb;
    DType dtype;
  };
  const std::vector<Case> cases = {
      {{5, 7}, {7, 3}, {}, false, false, DType::kF32},
      {{7, 5}, {7, 3}, {}, true, false, DType::kF32},
      {{5, 7}, {3, 7}, {}, false, true, DType::kF32},
      {{7, 5}, {3, 7}, {}, true, true, DType::kF32},
      {{1, 4, 6}, {3, 6, 5}, {3}, false, false, DType::kF32},
      {{3, 4, 6}, {1, 5, 6}, {3}, false, true, DType::kF32},
      {{2, 3, 4, 5}, {2, 3, 5, 6}, {2, 3}, false, false, DType::kF32},
      {{2, 3, 4, 5}, {3, 6, 5}, {2, 3}, false, true, DType::kF32},
      {{4, 1}, {1, 6}, {}, false, false, DType::kF32},
      {{0, 5}, {5, 3}, {}, false, false, DType::kF32},
      {{4, 5}, {5, 0}, {}, false, false, DType::kF32},
      {{4, 6}, {6, 3}, {}, false, false, DType::kI64},
      {{2, 6, 4}, {2, 3, 6}, {2}, true, true, DType::kI64},
  };
  Rng rng(17);
  for (const Case& tc : cases) {
    Graph g;
    GraphBuilder b(&g);
    Value* av = b.Input("a", tc.dtype, tc.a);
    Value* bv = b.Input("b", tc.dtype, tc.b);
    Value* y = b.MatMul(av, bv, tc.ta, tc.tb);
    Tensor a = tc.dtype == DType::kF32 ? RandomF32(&rng, tc.a)
                                       : RandomI64(&rng, tc.a);
    Tensor w = tc.dtype == DType::kF32 ? RandomF32(&rng, tc.b)
                                       : RandomI64(&rng, tc.b);
    auto got = EvaluateNode(*y->producer(), {a, w});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(
        Tensor::BitEqual((*got)[0], NaiveMatMul(a, w, tc.ta, tc.tb, tc.batch)))
        << a.TypeString() << " x " << w.TypeString() << " ta=" << tc.ta
        << " tb=" << tc.tb;
  }
}

TEST(EvalTest, Conv2DLoopOrderIsBitIdenticalToPerChannelSums) {
  struct Case {
    std::vector<int64_t> in, filter;
    int64_t sh, sw, ph, pw;
  };
  const std::vector<Case> cases = {
      {{1, 6, 7, 3}, {3, 3, 3, 4}, 1, 1, 0, 0},
      {{2, 6, 7, 3}, {3, 3, 3, 4}, 1, 1, 1, 1},
      {{1, 9, 8, 2}, {3, 2, 2, 5}, 2, 1, 1, 0},
      {{1, 8, 9, 2}, {2, 3, 2, 3}, 2, 3, 0, 2},
      {{1, 5, 5, 1}, {1, 1, 1, 6}, 1, 2, 0, 0},
  };
  Rng rng(23);
  for (const Case& tc : cases) {
    Graph g;
    GraphBuilder b(&g);
    Value* x = b.Input("x", DType::kF32, tc.in);
    Value* w = b.Input("w", DType::kF32, tc.filter);
    Value* y = b.Conv2D(x, w, {tc.sh, tc.sw}, {tc.ph, tc.pw});
    Tensor in = RandomF32(&rng, tc.in);
    Tensor filter = RandomF32(&rng, tc.filter);
    auto got = EvaluateNode(*y->producer(), {in, filter});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(Tensor::BitEqual(
        (*got)[0], NaiveConv2D(in, filter, tc.sh, tc.sw, tc.ph, tc.pw)))
        << in.TypeString() << " * " << filter.TypeString();
  }
}

TEST(EvalTest, Conv2DIdentityKernel) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {1, 3, 3, 1});
  // 1x1 identity filter.
  Value* w = b.Constant(Tensor::F32({1, 1, 1, 1}, {1.0f}));
  b.Output({b.Conv2D(x, w, {1, 1}, {0, 0})});
  Tensor in = Tensor::F32({1, 3, 3, 1}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto out = Eval(g, {in});
  EXPECT_TRUE(Tensor::AllClose(out[0], in));
}

TEST(EvalTest, Conv2DSumKernelWithPadding) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {1, 2, 2, 1});
  Value* w = b.Constant(Tensor::F32({3, 3, 1, 1}, std::vector<float>(9, 1.0f)));
  b.Output({b.Conv2D(x, w, {1, 1}, {1, 1})});
  auto out = Eval(g, {Tensor::F32({1, 2, 2, 1}, {1, 2, 3, 4})});
  // Every output = sum of in-bounds neighbours; center sums all = 10.
  EXPECT_EQ(out[0].dims(), (std::vector<int64_t>{1, 2, 2, 1}));
  EXPECT_FLOAT_EQ(out[0].f32_data()[0], 10.0f);
}

TEST(EvalTest, TransposeReshapeRoundTrip) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 3});
  Value* t = b.Transpose(x, {1, 0});
  b.Output({b.Reshape(t, {6})});
  auto out = Eval(g, {Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({6}, {1, 4, 2, 5, 3, 6})));
}

TEST(EvalTest, DynamicReshapeFromShapeOf) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* flat = b.Reshape(x, {-1});
  Value* back = b.ReshapeDynamic(flat, b.ShapeOf(x));
  b.Output({back});
  Tensor in = Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6});
  auto out = Eval(g, {in});
  EXPECT_TRUE(Tensor::AllClose(out[0], in));
}

TEST(EvalTest, BroadcastToExpands) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {1, 3});
  b.Output({b.BroadcastTo(x, {2, 3})});
  auto out = Eval(g, {Tensor::F32({1, 3}, {1, 2, 3})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({2, 3}, {1, 2, 3, 1, 2, 3})));
}

TEST(EvalTest, ConcatAxis1) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 2});
  Value* y = b.Input("y", DType::kF32, {2, 1});
  b.Output({b.Concat({x, y}, 1)});
  auto out = Eval(g, {Tensor::F32({2, 2}, {1, 2, 3, 4}),
                      Tensor::F32({2, 1}, {9, 8})});
  EXPECT_TRUE(
      Tensor::AllClose(out[0], Tensor::F32({2, 3}, {1, 2, 9, 3, 4, 8})));
}

TEST(EvalTest, SliceStrided) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {6});
  b.Output({b.Slice(x, {1}, {6}, {2})});
  auto out = Eval(g, {Tensor::F32({6}, {0, 1, 2, 3, 4, 5})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({3}, {1, 3, 5})));
}

TEST(EvalTest, GatherRows) {
  Graph g;
  GraphBuilder b(&g);
  Value* table = b.Input("t", DType::kF32, {4, 2});
  Value* ids = b.Input("ids", DType::kI64, {3});
  b.Output({b.Gather(table, ids, 0)});
  auto out = Eval(g, {Tensor::F32({4, 2}, {0, 1, 10, 11, 20, 21, 30, 31}),
                      Tensor::I64({3}, {2, 0, 2})});
  EXPECT_TRUE(Tensor::AllClose(
      out[0], Tensor::F32({3, 2}, {20, 21, 0, 1, 20, 21})));
}

TEST(EvalTest, GatherOutOfBoundsFails) {
  Graph g;
  GraphBuilder b(&g);
  Value* table = b.Input("t", DType::kF32, {4, 2});
  Value* ids = b.Input("ids", DType::kI64, {1});
  b.Output({b.Gather(table, ids, 0)});
  auto r = EvaluateGraph(g, {Tensor(DType::kF32, {4, 2}),
                             Tensor::I64({1}, {7})});
  EXPECT_FALSE(r.ok());
}

TEST(EvalTest, PadWithValue) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2});
  b.Output({b.Pad(x, {1}, {2}, -1.0)});
  auto out = Eval(g, {Tensor::F32({2}, {5, 6})});
  EXPECT_TRUE(
      Tensor::AllClose(out[0], Tensor::F32({5}, {-1, 5, 6, -1, -1})));
}

TEST(EvalTest, ShapeOfAndDim) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  b.Output({b.ShapeOf(x), b.Dim(x, 0)});
  auto out = Eval(g, {Tensor(DType::kF32, {5, 8})});
  EXPECT_EQ(out[0].i64_data()[0], 5);
  EXPECT_EQ(out[0].i64_data()[1], 8);
  EXPECT_EQ(out[1].i64_data()[0], 5);
}

TEST(EvalTest, IotaAxis) {
  Graph g;
  GraphBuilder b(&g);
  b.Output({b.Iota({2, 3}, 1)});
  auto out = Eval(g, {});
  EXPECT_EQ(out[0].i64_data()[0], 0);
  EXPECT_EQ(out[0].i64_data()[2], 2);
  EXPECT_EQ(out[0].i64_data()[3], 0);
}

TEST(EvalTest, SoftmaxRowsSumToOne) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Softmax(x)});
  Rng rng(3);
  auto out = Eval(g, {RandomF32(&rng, {5, 7})});
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 7; ++c) sum += out[0].f32_data()[r * 7 + c];
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(EvalTest, LayerNormZeroMeanUnitVar) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {3, 16});
  Value* scale = b.Constant(Tensor::F32({16}, std::vector<float>(16, 1.0f)));
  Value* bias = b.Constant(Tensor::F32({16}, std::vector<float>(16, 0.0f)));
  b.Output({b.LayerNorm(x, scale, bias)});
  Rng rng(4);
  auto out = Eval(g, {RandomF32(&rng, {3, 16})});
  for (int64_t r = 0; r < 3; ++r) {
    double mean = 0, var = 0;
    for (int64_t c = 0; c < 16; ++c) mean += out[0].f32_data()[r * 16 + c];
    mean /= 16;
    for (int64_t c = 0; c < 16; ++c) {
      double d = out[0].f32_data()[r * 16 + c] - mean;
      var += d * d;
    }
    var /= 16;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(EvalTest, InputShapeValidation) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  b.Output({b.Relu(x)});
  EXPECT_FALSE(EvaluateGraph(g, {Tensor(DType::kF32, {2, 9})}).ok());
  EXPECT_FALSE(EvaluateGraph(g, {Tensor(DType::kF32, {8})}).ok());
  EXPECT_FALSE(EvaluateGraph(g, {}).ok());
  EXPECT_TRUE(EvaluateGraph(g, {Tensor(DType::kF32, {2, 8})}).ok());
}

}  // namespace
}  // namespace disc
