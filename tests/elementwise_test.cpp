// The vector row kernels of kernel/elementwise.h against the scalar
// reference, bit for bit: every op and row form and the copy row, every
// length 0-67 at element offsets 0-3, in place, on edge values; the binary
// rows on every pair of an edge grid and on random bit patterns; the checked
// ops on every 4099th f32 bit pattern; and the row reductions against a
// scalar double accumulation. The disabled sweeps check every f32 input of
// each unary row; run them with --gtest_also_run_disabled_tests (CI does, on
// every Release runner).
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
// The copy row stands in the unary op lists as cast, whose reference,
// (float)(double)x, is what it computes.
constexpr OpKind kCopy = OpKind::kCast;
// The rows that run on f32 lanes, and the copy row.
constexpr OpKind kNativeOps[] = {OpKind::kNeg,   OpKind::kAbs,
                                 OpKind::kRelu,  OpKind::kSqrt,
                                 OpKind::kFloor, OpKind::kCeil,
                                 OpKind::kReciprocal, kCopy};
constexpr OpKind kUnaryOps[] = {
    OpKind::kNeg,   OpKind::kAbs,        OpKind::kRelu,  OpKind::kSqrt,
    OpKind::kRsqrt, OpKind::kReciprocal, OpKind::kFloor, OpKind::kCeil,
    OpKind::kTanh,  OpKind::kExp,        OpKind::kSigmoid, kCopy};
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

  // The row of unary `op`, or the copy row for kCopy.
  UnaryRowFn Unary(OpKind op) const {
    UnaryRowFn row =
        op == kCopy ? SelectCopyRow(isa()) : SelectUnaryRow(isa(), op);
    EXPECT_NE(row, nullptr) << OpName(op);
    return row;
  }

  // Elements per vector of the rows that run on f32 lanes.
  int64_t F32Lanes() const { return 2 * RowLanes(isa()); }

  // Runs `op` on every f32 bit pattern i * stride (i >= 0, below 2^32), with
  // `threads` threads, and returns the count of outputs that differ from the
  // reference; prints the first few.
  int64_t SweepUnaryOp(OpKind op, uint64_t stride, int threads) const {
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

  // Sweeps every f32 input of `op` on all hardware threads and prints one
  // line.
  void SweepEveryF32(OpKind op) const {
    const int threads = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 64u));
    const int64_t mismatches = SweepUnaryOp(op, 1, threads);
    std::printf("%s on %s: 4294967296 inputs, %lld mismatches (%d threads)\n",
                op == kCopy ? "copy" : OpName(op), ContractionIsaName(isa()),
                static_cast<long long>(mismatches), threads);
    EXPECT_EQ(mismatches, 0) << OpName(op);
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
    EXPECT_EQ(SweepUnaryOp(op, 4099, 1), 0) << OpName(op);
  }
}

// Every f32 input of every checked op: about a minute per ISA on four
// cores. CI runs it on each Release runner.
TEST_P(ElementwiseRowTest, DISABLED_CheckedOpsMatchOnEveryF32) {
  for (OpKind op : kCheckedOps) SweepEveryF32(op);
}

// Every f32 input of every native row and of the copy row: their exactness
// rests on the double-rounding argument and on x + -0.0 quieting a NaN and
// keeping every other value (elementwise.h), which this checks outright.
// CI runs it on each Release runner.
TEST_P(ElementwiseRowTest, DISABLED_NativeRowsAndCopyMatchOnEveryF32) {
  for (OpKind op : kNativeOps) SweepEveryF32(op);
}

// About 300 values where f32 arithmetic is delicate: signed zeros, the
// subnormal bounds, +-FLT_MIN, +-FLT_MAX, infinities, quiet and signalling
// NaNs with payloads and both signs, powers of two across the range, and
// operands whose sums, products or quotients fall halfway between two
// floats or on the overflow threshold, each with its f32 neighbours.
std::vector<float> EdgeGrid() {
  std::vector<float> grid;
  auto with_neighbours = [&grid](float v) {
    for (float s : {v, -v}) {
      grid.push_back(s);
      grid.push_back(std::nextafter(s, std::numeric_limits<float>::infinity()));
      grid.push_back(
          std::nextafter(s, -std::numeric_limits<float>::infinity()));
    }
  };
  for (float v : {0.0f, std::numeric_limits<float>::denorm_min(),
                  FromBits(0x007fffff), std::numeric_limits<float>::min(),
                  std::numeric_limits<float>::max()}) {
    with_neighbours(v);
  }
  for (uint32_t bits :
       {0x7f800000u, 0xff800000u,                           // infinities
        0x7fc00000u, 0xffc00000u, 0x7fc12345u, 0xffe54321u,  // quiet NaNs
        0x7fffffffu, 0xffffffffu, 0x7f800001u, 0xff800001u,  // signalling
        0x7fa00000u, 0xffbfffffu, 0x7f812345u}) {
    grid.push_back(FromBits(bits));
  }
  // Powers of two from 2^-149 to 2^127.
  for (int e = -149; e <= 127; e += 12) with_neighbours(std::ldexp(1.0f, e));
  // Ties: 1 + 2^-24 and (1 + 2^-12)^2 are halfway between floats, 2^103
  // is half an ulp of FLT_MAX (so FLT_MAX + 2^103 ties to infinity), 1.5
  // times the smallest subnormal halves to a tie, and 3, 1/3 and 0.1 give
  // inexact quotients.
  for (float v : {std::ldexp(1.0f, -24), 1.0f + std::ldexp(1.0f, -12),
                  1.0f + std::ldexp(1.0f, -23), std::ldexp(1.0f, 103),
                  std::ldexp(1.0f, 102), std::ldexp(1.5f, 127),
                  std::ldexp(3.0f, -149), 1.5f, 0.5f, 3.0f, 1.0f / 3.0f,
                  0.1f, 10.0f, 1e-20f, 1e20f, 16777216.0f, 8388608.5f}) {
    with_neighbours(v);
  }
  return grid;
}

// Every pair of the edge grid, in every row form, through rows whose
// lengths cycle through 1 .. 2 * lanes + 1 (full vectors and every tail),
// then 10^6 pairs of random bit patterns.
TEST_P(ElementwiseRowTest, BinaryRowsMatchOnTheEdgeGridAndRandomPairs) {
  const std::vector<float> grid = EdgeGrid();
  ASSERT_GE(grid.size(), 250u);
  const int64_t g = static_cast<int64_t>(grid.size());
  const int64_t max_length = 2 * F32Lanes() + 1;
  std::vector<float> a, b;
  for (float x : grid) {
    for (float y : grid) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  constexpr int64_t kRandomPairs = 1000000;
  std::vector<float> ra(kRandomPairs), rb(kRandomPairs);
  std::mt19937 gen(26);
  for (int64_t i = 0; i < kRandomPairs; ++i) {
    ra[i] = FromBits(static_cast<uint32_t>(gen()));
    rb[i] = FromBits(static_cast<uint32_t>(gen()));
  }
  // Runs `row` over [0, n) in rows of cycling length and checks each
  // output; a step-0 operand stays at its one element.
  auto check = [&](BinaryRowFn row, OpKind op, const float* x, int64_t sx,
                   const float* y, int64_t sy, int64_t n,
                   const std::string& where) {
    std::vector<float> got(n);
    int64_t length = 1;
    for (int64_t i = 0; i < n; i += length, length = length % max_length + 1) {
      row(got.data() + i, x + i * sx, y + i * sy, std::min(length, n - i));
    }
    for (int64_t i = 0; i < n; ++i) {
      const float want = BinaryReference(op, x[i * sx], y[i * sy]);
      ASSERT_EQ(BitsOf(got[i]), BitsOf(want))
          << where << ": " << OpName(op) << "(" << x[i * sx] << " [bits "
          << std::hex << BitsOf(x[i * sx]) << "], " << y[i * sy] << " [bits "
          << BitsOf(y[i * sy]) << std::dec << "]) at " << i;
    }
  };
  for (OpKind op : kBinaryOps) {
    check(SelectBinaryRow(isa(), op, 1, 1), op, a.data(), 1, b.data(), 1,
          g * g, "grid pairs");
    for (int64_t s = 0; s < g; ++s) {
      check(SelectBinaryRow(isa(), op, 1, 0), op, grid.data(), 1, &grid[s],
            0, g, "grid, scalar b");
      check(SelectBinaryRow(isa(), op, 0, 1), op, &grid[s], 0, grid.data(),
            1, g, "scalar a, grid");
    }
    check(SelectBinaryRow(isa(), op, 1, 1), op, ra.data(), 1, rb.data(), 1,
          kRandomPairs, "random pairs");
  }
}

// The row reductions against a scalar double accumulation in row-major
// order, on 1 .. 2 * RowLanes + 1 rows (whole blocks, every partial one and
// the scalar rows) of lengths around the block width, from exactly sized
// buffers. A cancelling pair of +-2^70 in each row makes the order of the
// additions show.
// Special values go in the first, a middle or the last column; each row
// holds at most one NaN, whose payload the sum then carries.
TEST_P(ElementwiseRowTest, RowReductionsMatchAScalarAccumulation) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            FromBits(0x7f800001),  // signalling
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            0.0f, -0.0f, FromBits(0xffc12345)};
  const OpKind ops[] = {OpKind::kReduceSum, OpKind::kReduceMean,
                        OpKind::kReduceMax, OpKind::kReduceMin};
  const int64_t lanes = RowLanes(isa());
  Rng rng(5);
  for (OpKind op : ops) {
    const RowReduceFn reduce = SelectRowReduce(isa(), op);
    ASSERT_NE(reduce, nullptr) << OpName(op);
    for (int64_t rows = 1; rows <= 2 * lanes + 1; ++rows) {
      for (int64_t len : {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 64}) {
        auto x = std::make_unique<float[]>(rows * len);
        for (int64_t r = 0; r < rows; ++r) {
          float* row = x.get() + r * len;
          for (int64_t c = 0; c < len; ++c) row[c] = rng.Normal(0.0f, 3.0f);
          if (len >= 6) {
            // 2^70 absorbs what is added between it and its negation, so
            // the sum keeps only the elements after both: any other order
            // shows.
            row[1 + r % 3] = 0x1p70f;
            row[len - 2] = -0x1p70f;
          }
          if (r % 5 == 4) {
            std::fill_n(row, len, -0.0f);  // a signed-zero sum
          } else if (r % 5 != 3) {
            const int64_t column[] = {0, len / 2, len - 1};
            row[column[(r + len) % 3]] = specials[(r + len) % 7];
          }
        }
        auto out = std::make_unique<float[]>(rows);
        reduce(out.get(), x.get(), rows, len);
        for (int64_t r = 0; r < rows; ++r) {
          constexpr double kInf = std::numeric_limits<double>::infinity();
          double acc = op == OpKind::kReduceMax   ? -kInf
                       : op == OpKind::kReduceMin ? kInf
                                                  : 0.0;
          for (int64_t c = 0; c < len; ++c) {
            const double v = Widen(x[r * len + c]);
            acc = op == OpKind::kReduceMax   ? std::max(acc, v)
                  : op == OpKind::kReduceMin ? std::min(acc, v)
                                             : acc + v;
          }
          if (op == OpKind::kReduceMean) acc /= static_cast<double>(len);
          ASSERT_EQ(BitsOf(out[r]), BitsOf(static_cast<float>(acc)))
              << OpName(op) << " rows=" << rows << " len=" << len
              << " row " << r;
        }
      }
    }
  }
}

TEST(ElementwiseRowSelectTest, OnlyTheVectorOpsAndFormsHaveRows) {
  EXPECT_EQ(RowLanes(ContractionIsa::kGeneric), 0);
  EXPECT_EQ(SelectUnaryRow(ContractionIsa::kGeneric, OpKind::kTanh), nullptr);
  EXPECT_EQ(SelectBinaryRow(ContractionIsa::kGeneric, OpKind::kAdd, 1, 1),
            nullptr);
  EXPECT_EQ(SelectCopyRow(ContractionIsa::kGeneric), nullptr);
  EXPECT_EQ(SelectRowReduce(ContractionIsa::kGeneric, OpKind::kReduceSum),
            nullptr);
  for (ContractionIsa isa : kRowIsas) {
    if (!HostSupports(isa)) continue;
    EXPECT_EQ(RowLanes(isa), isa == ContractionIsa::kAvx2 ? 4 : 8);
    for (OpKind op : kUnaryOps) {
      if (op == kCopy) continue;
      EXPECT_NE(SelectUnaryRow(isa, op), nullptr) << OpName(op);
    }
    EXPECT_NE(SelectCopyRow(isa), nullptr);
    for (OpKind op : {OpKind::kReduceSum, OpKind::kReduceMean,
                      OpKind::kReduceMax, OpKind::kReduceMin}) {
      EXPECT_NE(SelectRowReduce(isa, op), nullptr) << OpName(op);
    }
    EXPECT_EQ(SelectRowReduce(isa, OpKind::kAdd), nullptr);
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
