#include "ir/eval.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "ir/builder.h"
#include "ir/contraction.h"
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

  // A zero divisor, or INT64_MIN / -1, has no integer quotient: the
  // evaluator reports it instead of trapping.
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::vector<std::pair<int64_t, int64_t>> undefined = {
      {7, 0}, {0, 0}, {kMin, -1}};
  for (const auto& [dividend, divisor] : undefined) {
    for (OpKind kind : {OpKind::kDiv, OpKind::kMod}) {
      Graph bad;
      GraphBuilder bb(&bad);
      Value* p = bb.Input("p", DType::kI64, {2});
      Value* q = bb.Input("q", DType::kI64, {2});
      bb.Output({bb.Binary(kind, p, q)});
      auto r = EvaluateGraph(bad, {Tensor::I64({2}, {8, dividend}),
                                   Tensor::I64({2}, {3, divisor})});
      ASSERT_FALSE(r.ok()) << OpName(kind) << " " << dividend << " / "
                           << divisor;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << r.status().ToString();
    }
  }
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

// Per-output dot-product loops: the bitwise reference for every variant of
// the register-tiled GEMM and Conv2D (ir/contraction.h). The runtime's
// library steps, EvaluateGraph and perfbench's correctness check all run
// those kernels, so these loops are the only independent oracle.
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

Tensor RandomI64(Rng* rng, std::vector<int64_t> dims, int64_t bound = 9) {
  Tensor t(DType::kI64, std::move(dims));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.i64_data()[i] = rng->UniformInt(-bound, bound);
  }
  return t;
}

Tensor RandomOperand(Rng* rng, DType dtype, std::vector<int64_t> dims) {
  switch (dtype) {
    case DType::kF32:
      return RandomF32(rng, std::move(dims));
    case DType::kI64:
      return RandomI64(rng, std::move(dims));
    case DType::kI1: {
      Tensor t(DType::kI1, std::move(dims));
      for (int64_t i = 0; i < t.num_elements(); ++i) {
        t.i64_data()[i] = rng->UniformInt(0, 1);
      }
      return t;
    }
  }
  return Tensor();
}

// Operand dims of an [rows, cols] matrix stored transposed or not, behind
// `batch` dims.
std::vector<int64_t> MatrixDims(std::vector<int64_t> batch, int64_t rows,
                                int64_t cols, bool transposed) {
  batch.push_back(transposed ? cols : rows);
  batch.push_back(transposed ? rows : cols);
  return batch;
}

// Pack space of the size a contraction call reports, exactly that long so
// that AddressSanitizer builds catch a kernel that packs past it.
class Pack {
 public:
  explicit Pack(int64_t bytes) : doubles_((bytes + 7) / 8) {}
  std::byte* data() { return reinterpret_cast<std::byte*>(doubles_.data()); }

 private:
  std::vector<double> doubles_;
};

// Runs `a` x `w` on variant `isa` through its explicit-ISA entry point and
// compares the result bit for bit with NaiveMatMul. Integer operands only
// ever run the generic variant, so they are checked for that one. Where
// `isa` is the variant EvaluateNode selects, EvaluateNode must agree too.
void ExpectMatMulMatchesNaive(ContractionIsa isa, const Tensor& a,
                              const Tensor& w, bool ta, bool tb) {
  if (a.dtype() != DType::kF32 && isa != ContractionIsa::kGeneric) return;
  auto dims = MatMulDimsOf(a.dims(), w.dims(), ta, tb);
  ASSERT_TRUE(dims.ok()) << dims.status().ToString();
  std::vector<int64_t> out_dims = dims->batch;
  out_dims.push_back(dims->m);
  out_dims.push_back(dims->n);
  // Every output must be written: start from values no sum produces.
  Tensor got(a.dtype(), out_dims);
  if (a.dtype() == DType::kF32) {
    std::fill_n(got.f32_data(), got.num_elements(),
                std::numeric_limits<float>::signaling_NaN());
    Pack pack(MatMulPackBytes(isa, a.dtype(), *dims));
    MatMulF32(isa, *dims, a.f32_data(), w.f32_data(), got.f32_data(),
              pack.data());
  } else {
    std::fill_n(got.i64_data(), got.num_elements(), int64_t{-7});
    Pack pack(MatMulPackBytes(isa, a.dtype(), *dims));
    MatMulI64(*dims, a.dtype(), a.i64_data(), w.i64_data(), got.i64_data(),
              pack.data());
  }
  EXPECT_TRUE(Tensor::BitEqual(got, NaiveMatMul(a, w, ta, tb, dims->batch)))
      << ContractionIsaName(isa) << ": " << a.TypeString() << " x "
      << w.TypeString() << " ta=" << ta << " tb=" << tb;
  if (isa != SelectContraction(a.dtype(), dims->m, tb)) return;
  Graph g;
  GraphBuilder b(&g);
  Value* y = b.MatMul(b.Input("a", a.dtype(), a.dims()),
                      b.Input("b", w.dtype(), w.dims()), ta, tb);
  auto evaluated = EvaluateNode(*y->producer(), {a, w});
  ASSERT_TRUE(evaluated.ok()) << evaluated.status().ToString();
  EXPECT_TRUE(Tensor::BitEqual((*evaluated)[0], got));
}

// The same on random operands of [m, k] x [k, n] behind the given batch
// dims.
void ExpectMatMulMatchesNaive(ContractionIsa isa, Rng* rng, DType dtype,
                              const std::vector<int64_t>& a_batch,
                              const std::vector<int64_t>& b_batch, int64_t m,
                              int64_t n, int64_t k, bool ta, bool tb) {
  Tensor a = RandomOperand(rng, dtype, MatrixDims(a_batch, m, k, ta));
  Tensor w = RandomOperand(rng, dtype, MatrixDims(b_batch, k, n, tb));
  ExpectMatMulMatchesNaive(isa, a, w, ta, tb);
}

Conv2DDims ConvDims(const Tensor& in, const Tensor& filter, int64_t sh,
                    int64_t sw, int64_t ph, int64_t pw) {
  Conv2DDims d;
  d.n = in.dims()[0];
  d.h = in.dims()[1];
  d.w = in.dims()[2];
  d.c = in.dims()[3];
  d.kh = filter.dims()[0];
  d.kw = filter.dims()[1];
  d.oc = filter.dims()[3];
  d.sh = sh;
  d.sw = sw;
  d.ph = ph;
  d.pw = pw;
  return d;
}

// Runs one Conv2D of `in` and `filter` on variant `isa` and compares it bit
// for bit with NaiveConv2D (and, for the variant EvaluateNode selects, with
// EvaluateNode); returns the result.
Tensor ExpectConv2DMatchesNaive(ContractionIsa isa, const Tensor& in,
                                const Tensor& filter, int64_t sh, int64_t sw,
                                int64_t ph, int64_t pw) {
  Tensor want = NaiveConv2D(in, filter, sh, sw, ph, pw);
  Tensor got(DType::kF32, want.dims());
  std::fill_n(got.f32_data(), got.num_elements(),
              std::numeric_limits<float>::signaling_NaN());
  const Conv2DDims dims = ConvDims(in, filter, sh, sw, ph, pw);
  Pack pack(Conv2DPackBytes(isa, dims));
  Conv2DF32(isa, dims, in.f32_data(), filter.f32_data(), got.f32_data(),
            pack.data());
  EXPECT_TRUE(Tensor::BitEqual(got, want))
      << ContractionIsaName(isa) << ": " << in.TypeString() << " * "
      << filter.TypeString() << " strides " << sh << "," << sw
      << " padding " << ph << "," << pw;
  if (isa == SelectContraction(DType::kF32, 0, false)) {
    Graph g;
    GraphBuilder b(&g);
    Value* y = b.Conv2D(b.Input("x", DType::kF32, in.dims()),
                        b.Input("w", DType::kF32, filter.dims()), {sh, sw},
                        {ph, pw});
    auto evaluated = EvaluateNode(*y->producer(), {in, filter});
    EXPECT_TRUE(evaluated.ok()) << evaluated.status().ToString();
    if (evaluated.ok()) {
      EXPECT_TRUE(Tensor::BitEqual((*evaluated)[0], got));
    }
  }
  return got;
}

}  // namespace

// Names a failing test's variant (found by argument-dependent lookup, so it
// lives in the enum's namespace).
void PrintTo(ContractionIsa isa, std::ostream* os) {
  *os << ContractionIsaName(isa);
}

namespace {

// The contraction tests run once per variant, through the explicit-ISA
// entry points; a variant this CPU cannot run is skipped by name.
class ContractionTest : public ::testing::TestWithParam<ContractionIsa> {
 protected:
  void SetUp() override {
    if (!HostSupports(isa())) {
      GTEST_SKIP() << ContractionIsaName(isa())
                   << " is not supported by this CPU";
    }
  }
  ContractionIsa isa() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(
    Isa, ContractionTest, ::testing::ValuesIn(kContractionIsas),
    [](const ::testing::TestParamInfo<ContractionIsa>& info) {
      return std::string(ContractionIsaName(info.param));
    });

TEST_P(ContractionTest, MatMulLoopOrderIsBitIdenticalToDotProducts) {
  Rng rng(17);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      // Row and column counts on both sides of every variant's tile (4 x 4,
      // 6 x 8 and 8 x 16) and of its row and column remainders.
      for (int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 17}) {
        for (int64_t n : {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 37}) {
          for (int64_t k : {0, 1, 64, 288}) {
            ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {}, {}, m, n,
                                     k, ta, tb);
          }
        }
      }
      ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {}, {}, 0, 7, 5, ta,
                               tb);
      ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {}, {}, 5, 0, 7, ta,
                               tb);
      // Batch dims, equal or broadcast from either side.
      ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {2, 3}, {2, 3}, 4, 5,
                               6, ta, tb);
      ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {1}, {3}, 5, 6, 7,
                               ta, tb);
      ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {3}, {1}, 6, 5, 7,
                               ta, tb);
      ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {2, 3}, {3}, 4, 6, 5,
                               ta, tb);
      ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {}, {2, 1}, 9, 3, 4,
                               ta, tb);
      ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {2, 1}, {1, 3}, 5,
                               17, 6, ta, tb);
      ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {3}, {1}, 9, 17, 64,
                               ta, tb);
      for (DType dtype : {DType::kI64, DType::kI1}) {
        ExpectMatMulMatchesNaive(isa(), &rng, dtype, {}, {}, 5, 7, 6, ta, tb);
        ExpectMatMulMatchesNaive(isa(), &rng, dtype, {2}, {1}, 4, 9, 3, ta,
                                 tb);
        ExpectMatMulMatchesNaive(isa(), &rng, dtype, {1}, {3}, 1, 4, 5, ta,
                                 tb);
      }
    }
  }
}

TEST_P(ContractionTest, MatMulRandomShapesAreBitIdenticalToDotProducts) {
  Rng rng(29);
  const std::vector<std::vector<int64_t>> batches = {{}, {2}, {1}, {3}};
  for (int i = 0; i < 240; ++i) {
    const int64_t m = rng.UniformInt(1, 17);
    const int64_t n = rng.UniformInt(1, 37);
    const int64_t k = rng.UniformInt(0, 64);
    const bool ta = rng.UniformInt(0, 1) != 0;
    const bool tb = rng.UniformInt(0, 1) != 0;
    const DType dtype =
        std::vector<DType>{DType::kF32, DType::kF32, DType::kI64,
                           DType::kI1}[rng.UniformInt(0, 3)];
    // {2} and {3} never meet, so broadcasting stays valid.
    const auto& a_batch = batches[rng.UniformInt(0, 2)];
    const auto& b_batch = a_batch == batches[1]
                              ? batches[rng.UniformInt(0, 2)]
                              : batches[rng.UniformInt(0, 3)];
    ExpectMatMulMatchesNaive(isa(), &rng, dtype, a_batch, b_batch, m, n, k,
                             ta, tb);
  }
}

// Every tile of the variant's table (contraction.h): m from 1 to two full
// row blocks plus one, so that every remainder height R runs, and n from 1 to
// two of the widest tiles plus one lane, so that every R meets full tiles and
// every edge tile width and masked lane count (k = 64 only where the last
// Vec holds all lanes or one, which still meets every edge width). The
// geometry below is the widest per variant: {lanes per Vec, full tile rows,
// widest tile in Vecs}.
TEST_P(ContractionTest, MatMulCoversEveryTileOfTheTable) {
  struct Geometry {
    int64_t lanes, rows, max_vecs;
  };
  const Geometry g = isa() == ContractionIsa::kAvx512 ? Geometry{8, 8, 8}
                     : isa() == ContractionIsa::kAvx2 ? Geometry{4, 6, 4}
                                                      : Geometry{2, 4, 2};
  Rng rng(53);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int64_t m = 1; m <= 2 * g.rows + 1; ++m) {
        for (int64_t n = 1; n <= 2 * g.max_vecs * g.lanes + 1; ++n) {
          for (int64_t k : {0, 1, 7, 64}) {
            if (k == 64 && n % g.lanes > 1) continue;
            ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {}, {}, m, n,
                                     k, ta, tb);
          }
        }
        // Batch dims broadcast from either side, at a full-tile width plus
        // one lane.
        const int64_t n = g.max_vecs * g.lanes + 1;
        ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {2, 1}, {1, 3}, m,
                                 n, 7, ta, tb);
        ExpectMatMulMatchesNaive(isa(), &rng, DType::kF32, {3}, {1}, m, n, 7,
                                 ta, tb);
      }
    }
  }
}

TEST_P(ContractionTest, Conv2DLoopOrderIsBitIdenticalToPerChannelSums) {
  struct Case {
    std::vector<int64_t> in, filter;
    int64_t sh, sw, ph, pw;
  };
  std::vector<Case> cases = {
      {{1, 6, 7, 3}, {3, 3, 3, 4}, 1, 1, 0, 0},
      {{2, 6, 7, 3}, {3, 3, 3, 4}, 1, 1, 1, 1},
      {{1, 9, 8, 2}, {3, 2, 2, 5}, 2, 1, 1, 0},
      {{1, 8, 9, 2}, {2, 3, 2, 3}, 2, 3, 0, 2},
      {{1, 5, 5, 1}, {1, 1, 1, 6}, 1, 2, 0, 0},
      // Stride 2 with pad 1: interior blocks of strided pixels.
      {{2, 7, 17, 3}, {3, 3, 3, 5}, 2, 2, 1, 1},
      {{1, 5, 37, 2}, {3, 3, 2, 17}, 2, 2, 1, 1},
      // Padding beyond the kernel's reach: the outer output rows and
      // columns have no in-bounds tap at all.
      {{1, 2, 2, 2}, {2, 2, 2, 5}, 1, 1, 3, 3},
      {{2, 3, 4, 1}, {3, 2, 1, 4}, 1, 1, 2, 3},
      // No input channels: every sum is empty.
      {{1, 3, 4, 0}, {3, 3, 0, 5}, 1, 1, 1, 1},
  };
  // With a 3 x 3 window and padding 1, an output row of width ow has ow - 2
  // interior pixels: every count from 0 to 23 leaves each variant's tile
  // height (4, 6 or 8) some remainder, across output-channel counts below,
  // at, between and above its tile widths (4, 8, 16).
  for (int64_t ow = 1; ow <= 25; ++ow) {
    for (int64_t oc : {1, 5, 16, 17, 32}) {
      cases.push_back({{2, 4, ow, 3}, {3, 3, 3, oc}, 1, 1, 1, 1});
    }
    cases.push_back({{1, 3, ow + 2, 1}, {3, 3, 1, 9}, 1, 1, 0, 0});
  }
  // Stride 2, padding 1: an odd width w gives (w - 1) / 2 - 1 interior
  // pixels and one border pixel at each end. Interior counts 0 to 17 leave
  // every remainder height of every variant, across output-channel counts
  // that give every edge tile width (up to 4 Vecs of 8 lanes) and more.
  for (int64_t interior = 0; interior <= 17; ++interior) {
    for (int64_t oc : {1, 7, 12, 24, 33, 40}) {
      cases.push_back(
          {{1, 3, 2 * interior + 3, 2}, {3, 3, 2, oc}, 2, 2, 1, 1});
    }
  }
  Rng rng(23);
  for (const Case& tc : cases) {
    ExpectConv2DMatchesNaive(isa(), RandomF32(&rng, tc.in),
                             RandomF32(&rng, tc.filter), tc.sh, tc.sw, tc.ph,
                             tc.pw);
  }
}

TEST_P(ContractionTest, Conv2DRandomShapesAreBitIdenticalToPerChannelSums) {
  Rng rng(31);
  for (int i = 0; i < 120; ++i) {
    const int64_t sh = rng.UniformInt(1, 2), sw = rng.UniformInt(1, 2);
    const int64_t ph = rng.UniformInt(0, 3), pw = rng.UniformInt(0, 3);
    const int64_t h = rng.UniformInt(1, 8), w = rng.UniformInt(1, 25);
    // The window must fit the padded input.
    const int64_t kh = rng.UniformInt(1, std::min<int64_t>(3, h + 2 * ph));
    const int64_t kw = rng.UniformInt(1, std::min<int64_t>(3, w + 2 * pw));
    const int64_t c = rng.UniformInt(1, 4);
    const int64_t oc = std::vector<int64_t>{1, 3, 4, 5, 8, 9, 16, 17,
                                            32}[rng.UniformInt(0, 8)];
    const int64_t batch = rng.UniformInt(1, 2);
    ExpectConv2DMatchesNaive(isa(), RandomF32(&rng, {batch, h, w, c}),
                             RandomF32(&rng, {kh, kw, c, oc}), sh, sw, ph,
                             pw);
  }
}

// Taps that fall in the padding must be skipped, not multiplied by zero:
// with +inf on the filter's (0, 0) tap, which is padding for every pixel of
// the top output row and the left output column, those outputs stay finite
// (a zero-padding kernel would produce 0 * inf = NaN there). Everywhere else
// the tap is in bounds and, with positive inputs, gives +inf.
TEST_P(ContractionTest, Conv2DSkipsPaddedTaps) {
  Rng rng(37);
  for (int64_t oc : {5, 17}) {
    Tensor in(DType::kF32, {1, 5, 19, 2});
    for (int64_t i = 0; i < in.num_elements(); ++i) {
      in.f32_data()[i] = rng.Uniform(0.5f, 1.5f);
    }
    Tensor filter = RandomF32(&rng, {3, 3, 2, oc});
    for (int64_t i = 0; i < 2 * oc; ++i) {
      filter.f32_data()[i] = std::numeric_limits<float>::infinity();
    }
    Tensor out = ExpectConv2DMatchesNaive(isa(), in, filter, 1, 1, 1, 1);
    ASSERT_EQ(out.dims(), (std::vector<int64_t>{1, 5, 19, oc}));
    for (int64_t yo = 0; yo < 5; ++yo) {
      for (int64_t xo = 0; xo < 19; ++xo) {
        for (int64_t co = 0; co < oc; ++co) {
          const float v = out.f32_data()[(yo * 19 + xo) * oc + co];
          if (yo == 0 || xo == 0) {
            EXPECT_TRUE(std::isfinite(v)) << yo << "," << xo << "," << co;
          } else {
            EXPECT_EQ(v, std::numeric_limits<float>::infinity());
          }
        }
      }
    }
  }
}

// Sums start from +0.0: products that are all -0.0 (zeros times negatives)
// must sum to +0.0, as the naive loops give.
TEST_P(ContractionTest, ContractionSumsStartAtPositiveZero) {
  for (bool tb : {false, true}) {
    Tensor zeros = Tensor::F32({9, 6}, std::vector<float>(54, 0.0f));
    Tensor negatives = Tensor::F32(MatrixDims({}, 6, 17, tb),
                                   std::vector<float>(102, -2.0f));
    ExpectMatMulMatchesNaive(isa(), zeros, negatives, false, tb);
  }
  Tensor image = Tensor::F32({1, 3, 12, 1}, std::vector<float>(36, 0.0f));
  Tensor filter = Tensor::F32({3, 3, 1, 17}, std::vector<float>(153, -1.0f));
  Tensor out = ExpectConv2DMatchesNaive(isa(), image, filter, 1, 1, 1, 1);
  EXPECT_TRUE(Tensor::BitEqual(
      out, Tensor::F32({1, 3, 12, 17}, std::vector<float>(612, 0.0f))));
}

// Sums run in increasing contraction order. With ordinary operands the
// double sum is exact or its rounding vanishes in the output, so a kernel
// that summed in another order would still match; these operands make the
// running sum round at almost every step and keep that rounding visible.
TEST_P(ContractionTest, ContractionSumsRunInIncreasingOrder) {
  Rng rng(41);
  // Products of up to 54 bits round in double, and the i64 output shows
  // every bit of the sum.
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const int64_t bound = int64_t{1} << 27;
      Tensor a = RandomI64(&rng, MatrixDims({}, 5, 64, ta), bound);
      Tensor w = RandomI64(&rng, MatrixDims({}, 64, 7, tb), bound);
      ExpectMatMulMatchesNaive(isa(), a, w, ta, tb);
    }
  }
  // Each f32 contraction step triple adds +-2^53, a small product, then the
  // opposite of the first: the small products round against 2^53 and the
  // large ones cancel, so the f32 output holds the rounded small sum.
  auto big_small_big = [&](float* v, int64_t stride, float big, bool flip) {
    const float sign = flip && rng.UniformInt(0, 1) != 0 ? -1.0f : 1.0f;
    v[0] = sign * big;
    v[stride] = static_cast<float>(rng.UniformInt(-100, 100));
    v[2 * stride] = flip ? -v[0] : v[0];
  };
  for (bool tb : {false, true}) {
    const int64_t m = 9, n = 17, k = 3 * 8;
    Tensor a(DType::kF32, {m, k});
    Tensor w(DType::kF32, MatrixDims({}, k, n, tb));
    for (int64_t t = 0; t < k; t += 3) {
      for (int64_t i = 0; i < m; ++i) {
        big_small_big(a.f32_data() + i * k + t, 1, 0x1p27f, false);
      }
      for (int64_t j = 0; j < n; ++j) {
        if (tb) {
          big_small_big(w.f32_data() + j * k + t, 1, 0x1p26f, true);
        } else {
          big_small_big(w.f32_data() + t * n + j, n, 0x1p26f, true);
        }
      }
    }
    ExpectMatMulMatchesNaive(isa(), a, w, false, tb);
  }
  // The same along Conv2D's (ky, kx, ci) order, over channels 0, 1, 2.
  // Padding 1 sends the border pixels through the one-pixel path.
  for (int64_t oc : {5, 17}) {
    Tensor in(DType::kF32, {1, 4, 13, 3});
    for (int64_t i = 0; i < in.num_elements(); i += 3) {
      big_small_big(in.f32_data() + i, 1, 0x1p27f, false);
    }
    Tensor filter(DType::kF32, {3, 3, 3, oc});
    for (int64_t tap = 0; tap < 3 * 3; ++tap) {
      for (int64_t co = 0; co < oc; ++co) {
        big_small_big(filter.f32_data() + tap * 3 * oc + co, oc, 0x1p26f,
                      true);
      }
    }
    ExpectConv2DMatchesNaive(isa(), in, filter, 1, 1, 1, 1);
  }
}

// f32 edge values, placed in one operand of each product, against random
// values and zeros of both signs in the other: signed zeros (an all-zero
// operand makes every product +-0, and the sum starts from +0), infinities
// (inf x 0 gives NaN, inf - inf too), a NaN (its payload carries through),
// subnormals (their products are exact in double), and values near FLT_MAX
// (whose sums overflow when narrowed to f32).
TEST_P(ContractionTest, F32EdgeOperandsMatchTheNaiveLoops) {
  using Limits = std::numeric_limits<float>;
  const float edges[] = {0.0f,           -0.0f,          Limits::infinity(),
                         -Limits::infinity(), Limits::quiet_NaN(),
                         Limits::denorm_min(), -Limits::denorm_min(),
                         0x1.8p-130f,    Limits::max(),  -Limits::max()};
  Rng rng(43);
  // Every element of `t` (for zeros) or every fourth one becomes `edge`.
  auto place = [](Tensor* t, float edge) {
    const int64_t step = edge == 0.0f ? 1 : 4;
    for (int64_t i = 0; i < t->num_elements(); i += step) {
      t->f32_data()[i] = edge;
    }
  };
  auto with_zeros = [](Tensor* t) {
    for (int64_t i = 0; i < t->num_elements(); i += 3) {
      t->f32_data()[i] = i % 2 == 0 ? 0.0f : -0.0f;
    }
  };
  for (float edge : edges) {
    for (bool in_a : {true, false}) {
      for (bool tb : {false, true}) {
        for (int64_t m : {1, 9}) {
          Tensor a = RandomF32(&rng, {m, 5});
          Tensor w = RandomF32(&rng, MatrixDims({}, 5, 17, tb));
          place(in_a ? &a : &w, edge);
          with_zeros(in_a ? &w : &a);
          ExpectMatMulMatchesNaive(isa(), a, w, false, tb);
        }
      }
      Tensor in = RandomF32(&rng, {1, 3, 11, 2});
      Tensor filter = RandomF32(&rng, {3, 3, 2, 17});
      place(in_a ? &in : &filter, edge);
      with_zeros(in_a ? &filter : &in);
      ExpectConv2DMatchesNaive(isa(), in, filter, 1, 1, 1, 1);
    }
  }
}

// `values` copied so that the last one ends a page followed by an
// inaccessible page: any access past the end faults. Vector intrinsics are
// not instrumented by ASan, so this is what catches a full-width load or
// store at a column or pixel edge.
class GuardedFloats {
 public:
  explicit GuardedFloats(const float* values, int64_t count) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t bytes = static_cast<size_t>(count) * sizeof(float);
    const size_t data_pages = (bytes + page - 1) / page;
    size_ = (data_pages + 1) * page;
    void* base = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    DISC_CHECK(base != MAP_FAILED);
    base_ = static_cast<char*>(base);
    DISC_CHECK_EQ(mprotect(base_ + data_pages * page, page, PROT_NONE), 0);
    data_ = reinterpret_cast<float*>(base_ + data_pages * page) - count;
    std::copy(values, values + count, data_);
  }
  explicit GuardedFloats(const Tensor& t)
      : GuardedFloats(t.f32_data(), t.num_elements()) {}
  ~GuardedFloats() { munmap(base_, size_); }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;

  float* data() const { return data_; }

 private:
  char* base_ = nullptr;
  size_t size_ = 0;
  float* data_ = nullptr;
};

TEST_P(ContractionTest, EdgeReadsStayInsideTheOperands) {
  Rng rng(47);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int64_t m : {1, 5, 13}) {
        for (int64_t n : {1, 3, 5, 7, 9, 15, 17, 37}) {
          for (int64_t k : {1, 7, 9, 64}) {
            Tensor a = RandomF32(&rng, MatrixDims({}, m, k, ta));
            Tensor w = RandomF32(&rng, MatrixDims({}, k, n, tb));
            auto dims = MatMulDimsOf(a.dims(), w.dims(), ta, tb);
            ASSERT_TRUE(dims.ok());
            GuardedFloats guarded_a(a), guarded_w(w);
            std::vector<float> zeros(m * n, 0.0f);
            GuardedFloats out(zeros.data(), m * n);
            Pack pack(MatMulPackBytes(isa(), DType::kF32, *dims));
            MatMulF32(isa(), *dims, guarded_a.data(), guarded_w.data(),
                      out.data(), pack.data());
            Tensor want = NaiveMatMul(a, w, ta, tb, {});
            EXPECT_TRUE(std::equal(out.data(), out.data() + m * n,
                                   want.f32_data(),
                                   [](float x, float y) {
                                     return std::memcmp(&x, &y, 4) == 0;
                                   }))
                << ContractionIsaName(isa()) << " m=" << m << " n=" << n
                << " k=" << k << " ta=" << ta << " tb=" << tb;
          }
        }
      }
    }
  }
  // The last pixel's taps end the input: with one or three channels (packed
  // runs of 3 or 9 taps) and at strides 1 and 2.
  for (int64_t oc : {1, 3, 5, 7, 9, 15, 17, 33}) {
    for (int64_t w : {1, 4, 13}) {
      for (int64_t c : {1, 3}) {
        for (int64_t stride : {1, 2}) {
          Tensor in = RandomF32(&rng, {1, 4, w, c});
          Tensor filter = RandomF32(&rng, {3, 3, c, oc});
          GuardedFloats guarded_in(in), guarded_filter(filter);
          Tensor want = NaiveConv2D(in, filter, stride, stride, 1, 1);
          std::vector<float> zeros(want.num_elements(), 0.0f);
          GuardedFloats out(zeros.data(), want.num_elements());
          const Conv2DDims dims = ConvDims(in, filter, stride, stride, 1, 1);
          Pack pack(Conv2DPackBytes(isa(), dims));
          Conv2DF32(isa(), dims, guarded_in.data(), guarded_filter.data(),
                    out.data(), pack.data());
          EXPECT_EQ(std::memcmp(out.data(), want.f32_data(),
                                want.num_elements() * sizeof(float)),
                    0)
              << ContractionIsaName(isa()) << " oc=" << oc << " w=" << w
              << " c=" << c << " stride=" << stride;
        }
      }
    }
  }
}

// On every host: integer operands and one-row transposed-B products take the
// generic variant; everything else takes the widest the CPU runs.
TEST(EvalTest, ContractionSelectionRules) {
  EXPECT_TRUE(HostSupports(ContractionIsa::kGeneric));
  EXPECT_TRUE(HostSupports(HostIsa()));
  for (int64_t m : {1, 2, 3, 4, 64}) {
    for (bool tb : {false, true}) {
      EXPECT_EQ(SelectContraction(DType::kI64, m, tb),
                ContractionIsa::kGeneric);
      EXPECT_EQ(SelectContraction(DType::kI1, m, tb),
                ContractionIsa::kGeneric);
      EXPECT_EQ(SelectContraction(DType::kF32, m, tb),
                tb && m < 2 ? ContractionIsa::kGeneric : HostIsa())
          << "m=" << m << " tb=" << tb;
    }
  }
}

// Operands whose dims or dtypes the graph left open are checked when the
// op runs.
TEST(EvalTest, Conv2DRejectsInvalidOperandsAtRunTime) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32,
                     {1, kDynamicDim, kDynamicDim, kDynamicDim});
  Value* w = b.Input("w", DType::kF32, {4, 4, kDynamicDim, 1});
  Value* y = b.Conv2D(x, w, {1, 1}, {0, 0});
  b.Output({y});
  const Node& conv = *y->producer();
  // A 4x4 window on a 1x1 input.
  auto small = EvaluateGraph(g, {Tensor(DType::kF32, {1, 1, 1, 1}),
                                 Tensor(DType::kF32, {4, 4, 1, 1})});
  EXPECT_EQ(small.status().code(), StatusCode::kInvalidArgument);
  // Input and filter channels disagree.
  auto channels = EvaluateGraph(g, {Tensor(DType::kF32, {1, 4, 4, 2}),
                                    Tensor(DType::kF32, {4, 4, 3, 1})});
  EXPECT_EQ(channels.status().code(), StatusCode::kInvalidArgument);
  // Integer operands.
  auto ints = EvaluateNode(conv, {Tensor(DType::kI64, {1, 4, 4, 1}),
                                  Tensor(DType::kI64, {4, 4, 1, 1})});
  EXPECT_EQ(ints.status().code(), StatusCode::kInvalidArgument);
  auto mixed = EvaluateNode(conv, {Tensor(DType::kF32, {1, 4, 4, 1}),
                                   Tensor(DType::kI64, {4, 4, 1, 1})});
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  // The same operands at a valid size run.
  EXPECT_TRUE(EvaluateGraph(g, {Tensor(DType::kF32, {1, 4, 5, 1}),
                                Tensor(DType::kF32, {4, 4, 1, 1})})
                  .ok());
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
