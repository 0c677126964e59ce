// The vector row kernels of kernel/elementwise.h against the scalar
// reference, bit for bit: every op and row form, every length 0-67 at element
// offsets 0-3, in place, on edge values, and, for the checked ops, on every
// 4099th f32 bit pattern. The disabled sweep checks every f32 input; run it
// with --gtest_also_run_disabled_tests (CI does, on every Release runner).
#include "kernel/elementwise.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ir/eval.h"
#include "support/rng.h"

namespace disc {

// Names a failing test's ISA (found by argument-dependent lookup, so it lives
// in the enum's namespace).
void PrintTo(ContractionIsa isa, std::ostream* os) {
  *os << ContractionIsaName(isa);
}

namespace {

constexpr ContractionIsa kRowIsas[] = {ContractionIsa::kAvx2,
                                       ContractionIsa::kAvx512};
constexpr OpKind kCheckedOps[] = {OpKind::kTanh, OpKind::kExp,
                                  OpKind::kSigmoid};
constexpr OpKind kUnaryOps[] = {
    OpKind::kNeg,   OpKind::kAbs,        OpKind::kRelu,  OpKind::kSqrt,
    OpKind::kRsqrt, OpKind::kReciprocal, OpKind::kFloor, OpKind::kCeil,
    OpKind::kTanh,  OpKind::kExp,        OpKind::kSigmoid};
constexpr OpKind kBinaryOps[] = {OpKind::kAdd,     OpKind::kSub,
                                 OpKind::kMul,     OpKind::kDiv,
                                 OpKind::kMaximum, OpKind::kMinimum};
// The (a, b) steps of the binary row forms.
constexpr int64_t kSteps[][2] = {{1, 1}, {1, 0}, {0, 1}};

constexpr int64_t kMaxLength = 67;
constexpr int64_t kMaxOffset = 3;
constexpr float kSentinel = -12345.0f;

uint32_t BitsOf(float f) {
  uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

float FromBits(uint32_t b) {
  float f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

// The f32 element as EvaluateNode reads it (Tensor::ElementAsDouble, in
// another translation unit). Inlined, GCC would narrow expressions such as
// (float)std::floor((double)x) to floorf(x), which keeps a signalling NaN
// that the double operation quiets.
[[gnu::noinline]] double Widen(float x) { return x; }

float UnaryReference(OpKind op, float x) {
  return static_cast<float>(ApplyUnaryScalar(op, Widen(x)));
}

float BinaryReference(OpKind op, float a, float b) {
  return static_cast<float>(
      ApplyBinaryScalar(op, Widen(a), Widen(b), DType::kF32));
}

// Signed zeros, the smallest and largest subnormals, +-FLT_MIN, +-FLT_MAX,
// infinities, NaN payloads, and the clamp and saturation edges of the
// checked ops with their f32 neighbours.
std::vector<float> EdgeValues() {
  std::vector<float> values = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      FromBits(0x007fffff),
      FromBits(0x807fffff),
      std::numeric_limits<float>::min(),
      -std::numeric_limits<float>::min(),
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      FromBits(0x7fc00000),  // the default quiet NaN
      FromBits(0xffc00000),
      FromBits(0x7fc12345),  // quiet NaNs with payloads
      FromBits(0xffffffff),
      FromBits(0x7f800001),  // signalling NaNs
      FromBits(0xffbfffff),
      1.0f,
      -1.0f,
      0.5f,
  };
  // tanh saturates at 9.5 (and rounds to 1 from ~9.01), exp overflows from
  // ~88.72 and is clamped at 89, exp and sigmoid underflow from ~-103.97 and
  // are clamped at -104 and 104, sigmoid's exp(-x) is subnormal around 90,
  // and 0.17 and 0.3466 are where tanh and exp change their reduction.
  for (float edge : {9.5f, 9.0f, 9.01f, 89.0f, 88.7228394f, 104.0f,
                     103.972f, 90.0f, 87.3365f, 17.0f, 0.17f, 0.34657359f}) {
    for (float e : {edge, -edge}) {
      values.push_back(e);
      values.push_back(std::nextafter(e, std::numeric_limits<float>::max()));
      values.push_back(std::nextafter(e, -std::numeric_limits<float>::max()));
    }
  }
  return values;
}

// Edge values interleaved with normals of several scales.
std::vector<float> Pool(uint64_t seed) {
  std::vector<float> pool = EdgeValues();
  Rng rng(seed);
  for (float scale : {1.0f, 4.0f, 30.0f, 1e-3f}) {
    for (int i = 0; i < 64; ++i) pool.push_back(rng.Normal(0.0f, scale));
  }
  std::shuffle(pool.begin(), pool.end(), std::mt19937(seed));
  return pool;
}

// An exactly sized heap buffer, so a read past the row leaves the allocation.
std::unique_ptr<float[]> Buffer(const std::vector<float>& pool, size_t first,
                                int64_t size) {
  auto buffer = std::make_unique<float[]>(size);
  for (int64_t i = 0; i < size; ++i) {
    buffer[i] = pool[(first + i) % pool.size()];
  }
  return buffer;
}

// `got` holds the outputs at [offset, offset + n), each with the bits of
// want[i]; everything around them must still be the sentinel.
void ExpectRow(const std::vector<float>& got, int64_t offset, int64_t n,
               const std::vector<float>& want, const std::string& where) {
  for (int64_t i = 0; i < static_cast<int64_t>(got.size()); ++i) {
    const bool in_row = i >= offset && i < offset + n;
    const uint32_t expected =
        in_row ? BitsOf(want[i - offset]) : BitsOf(kSentinel);
    ASSERT_EQ(BitsOf(got[i]), expected)
        << where << " element " << i << (in_row ? "" : " (outside the row)");
  }
}

// Each row test runs once per ISA, through the explicit-ISA selection; an ISA
// this CPU cannot run is skipped by name.
class ElementwiseRowTest : public ::testing::TestWithParam<ContractionIsa> {
 protected:
  void SetUp() override {
    if (!HostSupports(isa())) {
      GTEST_SKIP() << ContractionIsaName(isa())
                   << " is not supported by this CPU";
    }
  }
  ContractionIsa isa() const { return GetParam(); }

  UnaryRowFn Unary(OpKind op) const {
    UnaryRowFn row = SelectUnaryRow(isa(), op);
    EXPECT_NE(row, nullptr) << OpName(op);
    return row;
  }

  // Runs `op` on every f32 bit pattern i * stride (i >= 0, below 2^32), with
  // `threads` threads, and returns the count of outputs that differ from the
  // reference; prints the first few.
  int64_t SweepCheckedOp(OpKind op, uint64_t stride, int threads) const {
    const UnaryRowFn row = Unary(op);
    constexpr uint64_t kPatterns = uint64_t{1} << 32;
    constexpr int64_t kChunk = 1 << 16;
    const uint64_t count = (kPatterns + stride - 1) / stride;
    std::atomic<uint64_t> next{0};
    std::atomic<int64_t> mismatches{0};
    auto work = [&] {
      std::vector<float> in(kChunk), got(kChunk);
      for (;;) {
        const uint64_t begin = next.fetch_add(kChunk);
        if (begin >= count) break;
        const int64_t n =
            static_cast<int64_t>(std::min<uint64_t>(kChunk, count - begin));
        for (int64_t i = 0; i < n; ++i) {
          in[i] = FromBits(static_cast<uint32_t>((begin + i) * stride));
        }
        row(got.data(), in.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          const float want = UnaryReference(op, in[i]);
          if (BitsOf(got[i]) != BitsOf(want) && mismatches++ < 8) {
            std::fprintf(stderr, "%s(%a) [bits %08x]: got %a, want %a\n",
                         OpName(op), in[i], BitsOf(in[i]), got[i], want);
          }
        }
      }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(work);
    work();
    for (std::thread& t : pool) t.join();
    return mismatches.load();
  }
};

INSTANTIATE_TEST_SUITE_P(
    Isa, ElementwiseRowTest, ::testing::ValuesIn(kRowIsas),
    [](const ::testing::TestParamInfo<ContractionIsa>& info) {
      return std::string(ContractionIsaName(info.param));
    });

TEST_P(ElementwiseRowTest, UnaryRowsMatchTheScalarReference) {
  const std::vector<float> pool = Pool(1);
  size_t first = 0;
  for (OpKind op : kUnaryOps) {
    const UnaryRowFn row = Unary(op);
    ASSERT_NE(row, nullptr);
    for (int64_t n = 0; n <= kMaxLength; ++n) {
      for (int64_t offset = 0; offset <= kMaxOffset; ++offset) {
        first += 7;
        const std::string where = std::string(OpName(op)) + " n=" +
                                  std::to_string(n) +
                                  " offset=" + std::to_string(offset);
        const auto x = Buffer(pool, first, offset + n);
        std::vector<float> want(n);
        for (int64_t i = 0; i < n; ++i) {
          want[i] = UnaryReference(op, x[offset + i]);
        }
        std::vector<float> out(offset + n + 4, kSentinel);
        row(out.data() + offset, x.get() + offset, n);
        ExpectRow(out, offset, n, want, where);
        // In place: out == x.
        row(x.get() + offset, x.get() + offset, n);
        std::vector<float> in_place(x.get() + offset, x.get() + offset + n);
        ExpectRow(in_place, 0, n, want, where + " in place");
      }
    }
  }
}

TEST_P(ElementwiseRowTest, BinaryRowsMatchTheScalarReference) {
  const std::vector<float> pool = Pool(2);
  size_t first = 0;
  for (OpKind op : kBinaryOps) {
    for (const auto& steps : kSteps) {
      const int64_t sa = steps[0], sb = steps[1];
      const BinaryRowFn row = SelectBinaryRow(isa(), op, sa, sb);
      ASSERT_NE(row, nullptr) << OpName(op) << " " << sa << "," << sb;
      for (int64_t n = 0; n <= kMaxLength; ++n) {
        for (int64_t offset = 0; offset <= kMaxOffset; ++offset) {
          first += 11;
          const std::string where =
              std::string(OpName(op)) + " steps=" + std::to_string(sa) + "," +
              std::to_string(sb) + " n=" + std::to_string(n) +
              " offset=" + std::to_string(offset);
          // A step-0 operand is one element, at offset 0.
          const int64_t a_size = sa == 1 ? offset + n : 1;
          const int64_t b_size = sb == 1 ? offset + n : 1;
          const auto a = Buffer(pool, first, a_size);
          const auto b = Buffer(pool, first * 3 + 1, b_size);
          const float* pa = a.get() + (sa == 1 ? offset : 0);
          const float* pb = b.get() + (sb == 1 ? offset : 0);
          std::vector<float> want(n);
          for (int64_t i = 0; i < n; ++i) {
            want[i] = BinaryReference(op, pa[i * sa], pb[i * sb]);
          }
          std::vector<float> out(offset + n + 4, kSentinel);
          row(out.data() + offset, pa, pb, n);
          ExpectRow(out, offset, n, want, where);
          // In place: out == a, then out == b, wherever that operand is a
          // full row.
          for (int in_place : {0, 1}) {
            if ((in_place == 0 ? sa : sb) != 1) continue;
            const auto a2 = Buffer(pool, first, a_size);
            const auto b2 = Buffer(pool, first * 3 + 1, b_size);
            float* pa2 = a2.get() + (sa == 1 ? offset : 0);
            float* pb2 = b2.get() + (sb == 1 ? offset : 0);
            float* dst = in_place == 0 ? pa2 : pb2;
            row(dst, pa2, pb2, n);
            std::vector<float> got(dst, dst + n);
            ExpectRow(got, 0, n, want,
                      where + (in_place == 0 ? " out == a" : " out == b"));
          }
        }
      }
    }
  }
}

TEST_P(ElementwiseRowTest, EdgeValuesMatchTheScalarReference) {
  const std::vector<float> edges = EdgeValues();
  const int64_t n = static_cast<int64_t>(edges.size());
  for (OpKind op : kUnaryOps) {
    std::vector<float> want(n), got(n);
    for (int64_t i = 0; i < n; ++i) want[i] = UnaryReference(op, edges[i]);
    Unary(op)(got.data(), edges.data(), n);
    ExpectRow(got, 0, n, want, OpName(op));
  }
  // Every pair of edge values, in every form.
  for (OpKind op : kBinaryOps) {
    for (const auto& steps : kSteps) {
      const BinaryRowFn row = SelectBinaryRow(isa(), op, steps[0], steps[1]);
      for (int64_t s = 0; s < n; ++s) {
        const float scalar = edges[s];
        std::vector<float> want(n), got(n);
        const std::vector<float> single(1, scalar);
        const float* a = steps[0] == 1 ? edges.data() : single.data();
        const float* b = steps[1] == 1 ? edges.data() : single.data();
        if (steps[0] == 1 && steps[1] == 1) {
          // Pair edges[i] with every other edge value by rotation.
          std::vector<float> rotated(edges);
          std::rotate(rotated.begin(), rotated.begin() + s, rotated.end());
          for (int64_t i = 0; i < n; ++i) {
            want[i] = BinaryReference(op, edges[i], rotated[i]);
          }
          row(got.data(), edges.data(), rotated.data(), n);
        } else {
          for (int64_t i = 0; i < n; ++i) {
            want[i] = BinaryReference(op, a[i * steps[0]], b[i * steps[1]]);
          }
          row(got.data(), a, b, n);
        }
        ExpectRow(got, 0, n, want,
                  std::string(OpName(op)) + " with " + std::to_string(scalar) +
                      " steps=" + std::to_string(steps[0]) + "," +
                      std::to_string(steps[1]));
      }
    }
  }
}

TEST_P(ElementwiseRowTest, CheckedOpsMatchOnEvery4099thBitPattern) {
  for (OpKind op : kCheckedOps) {
    EXPECT_EQ(SweepCheckedOp(op, 4099, 1), 0) << OpName(op);
  }
}

// Every f32 input of every checked op, on all hardware threads: about a
// minute per ISA on four cores. CI runs it on each runner.
TEST_P(ElementwiseRowTest, DISABLED_CheckedOpsMatchOnEveryF32) {
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 64u));
  for (OpKind op : kCheckedOps) {
    const int64_t mismatches = SweepCheckedOp(op, 1, threads);
    std::printf("%s on %s: 4294967296 inputs, %lld mismatches (%d threads)\n",
                OpName(op), ContractionIsaName(isa()),
                static_cast<long long>(mismatches), threads);
    EXPECT_EQ(mismatches, 0) << OpName(op);
  }
}

TEST(ElementwiseRowSelectTest, OnlyTheVectorOpsAndFormsHaveRows) {
  EXPECT_EQ(RowLanes(ContractionIsa::kGeneric), 0);
  EXPECT_EQ(SelectUnaryRow(ContractionIsa::kGeneric, OpKind::kTanh), nullptr);
  EXPECT_EQ(SelectBinaryRow(ContractionIsa::kGeneric, OpKind::kAdd, 1, 1),
            nullptr);
  for (ContractionIsa isa : kRowIsas) {
    if (!HostSupports(isa)) continue;
    EXPECT_EQ(RowLanes(isa), isa == ContractionIsa::kAvx2 ? 4 : 8);
    for (OpKind op : {OpKind::kLog, OpKind::kErf, OpKind::kSign,
                      OpKind::kCast, OpKind::kLogicalNot}) {
      EXPECT_EQ(SelectUnaryRow(isa, op), nullptr) << OpName(op);
    }
    for (OpKind op : {OpKind::kPow, OpKind::kMod, OpKind::kLess,
                      OpKind::kEqual, OpKind::kAnd}) {
      EXPECT_EQ(SelectBinaryRow(isa, op, 1, 1), nullptr) << OpName(op);
    }
    // Strided and all-scalar rows stay scalar.
    EXPECT_EQ(SelectBinaryRow(isa, OpKind::kAdd, 0, 0), nullptr);
    EXPECT_EQ(SelectBinaryRow(isa, OpKind::kAdd, 2, 1), nullptr);
    EXPECT_EQ(SelectBinaryRow(isa, OpKind::kAdd, 1, -1), nullptr);
  }
}

}  // namespace
}  // namespace disc
