#include "kernel/elementwise.h"

#include <algorithm>
#include <iterator>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "ir/eval.h"
#include "support/logging.h"

namespace disc {

namespace {

// ---------------------------------------------------------------------------
// The row templates, shared by every ISA.
//
// Each ISA has two traits structs, F32 (native rows and the copy row: kLanes
// floats per Vec) and F64 (rsqrt, the checked rows and the row reductions:
// kLanes doubles per Vec, each loaded from and stored to one float). Both
// hold:
//   Vec                      kLanes lanes
//   Mask, TailMask(count)    the first `count` (1..kLanes) lanes
//   Load(p, v), LoadTail(p, m, v)
//                            v = kLanes floats at p (those in m, the rest 0),
//                            widened to double in F64
//   Splat(s, v)              every lane of v = s
//   Store(p, v), StoreTail(p, v, m)
//                            v (the lanes in m) stored at p, narrowed to f32
//                            in F64
//   Add, Sub, Mul, Div(a, b) a = a op b
//   Max, Min(a, b)           a = std::max(a, b), std::min(a, b)
//   Neg, Abs, Sqrt(a)
// F32 adds:
//   NanFromFirst(a, b)       b = a in the lanes where a is NaN
//   Floor, Ceil(a)
//   Quiet(a)                 a = a + -0.0: quiets a NaN, keeps other bits
// F64 adds:
//   Spill(v, p)              the kLanes doubles of v stored at p
//   CopySign(a, b)           a = |a| with the sign of b
//   MulAdd(a, b, c)          a = a * b + c, one rounding
//   NegMulAdd(a, b, c)       a = a - b * c, one rounding
//   Exp2(kb, s)              s = 2^k, where kb = k + kRoundToInt, |k| < 1023
//   NanLanes(v)              the bit mask of v's NaN lanes
//   F32Differs(a, b)         the lanes whose f32 narrowings differ in a bit
//   LoadColumns<kTail>(p, stride, rows, m, col)
//                            col[j] lane r = p[r * stride + j], widened, for
//                            r < rows and the columns j in m (all kLanes
//                            unless kTail); other lanes 0
//   kMinBlockRows            the fewest rows a partial reduction block takes
// The templates are instantiated inside each ISA's entry points, which are
// [[gnu::flatten]]: everything inlines into a function compiled for that
// ISA's target. Vecs cross the primitives by reference, since the templates
// themselves are compiled for the baseline target, whose calling convention
// has no AVX registers.

constexpr bool IsCheckedRowOp(OpKind op) {
  return op == OpKind::kTanh || op == OpKind::kExp || op == OpKind::kSigmoid;
}

// The unary ops whose rows run on widened doubles (F64): the checked ops,
// and rsqrt, which the reference rounds twice (see elementwise.h).
constexpr bool IsWidenedRowOp(OpKind op) {
  return IsCheckedRowOp(op) || op == OpKind::kRsqrt;
}

// The copy row is the unary row of cast, whose reference, (float)(double)x,
// quiets a signalling NaN and changes nothing else.
constexpr OpKind kCopy = OpKind::kCast;

// Adding 1.5 * 2^52 + 1023 rounds a double in [-2^50, 2^50] to the nearest
// integer k and leaves k + 1023 in the low bits of the sum's mantissa.
constexpr double kRoundToInt = 0x1.8p52 + 1023.0;

// The approximations. exp(z) = 2^k (1 + q) with z = k ln2 + r, k the integer
// nearest z / ln2, so |r| <= ln2 / 2 plus a few ulp, and q the degree-13
// Taylor polynomial of expm1(r) (in Horner form, with fused multiply-adds).
//   - Truncation: the first omitted term, |r|^14 / 14!, is below 2^-55 |q|.
//   - Reduction: ln2 is split into kLn2Hi + kLn2Lo (fdlibm's split, accurate
//     to 2^-80 relative), so with |k| <= 151 and two fused steps r is within
//     2^-53 |r| + 2^-70 of z - k ln2, an error below 2^-54 in exp.
//   - Horner: the last two roundings dominate (each earlier one reaches the
//     result scaled by |r| <= 0.35), so q is within 3 * 2^-53 of expm1(r)
//     relatively, and 2^k (1 + q) within 2^-51 of exp(z).
// The ops then add a few roundings each, all counted below:
//   exp      y = 2^k + 2^k q (one fused step): relative error below 2^-50.
//   sigmoid  y = 1 / (1 + exp(-x)): 1 + e and the division add 2^-52, so
//            below 2^-50.
//   tanh     z = -2|x|, u = 2^k q + (2^k - 1) = expm1(z) (2^k - 1 is exact
//            and |2^k q| <= |u|, so u is within 4 * 2^-53 relatively), and
//            |tanh(x)| = -u / (2 + u). Since u is in (-1, 0], the quotient
//            at most doubles u's relative error; with the two roundings the
//            result is within 10 * 2^-53 < 2^-49 relatively. For |x| <= 0.17,
//            k = 0 and u = q, which keeps tiny and subnormal inputs accurate.
// libm's tanh, exp and the reference's 1 / (1 + exp(-x)) are within 2^-50
// relative of the true value, so the reference lies within 2^-48 |y| of y,
// and y * (1 +- 2^-44), rounded, still bracket it.
constexpr double kLog2e = 1.4426950408889634;
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
// 1 / n! for n = 13 down to 2: the Horner coefficients of expm1(r) / r - 1.
constexpr double kExpM1Taylor[] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0,
    1.0 / 3628800.0,    1.0 / 362880.0,    1.0 / 40320.0,
    1.0 / 5040.0,       1.0 / 720.0,       1.0 / 120.0,
    1.0 / 24.0,         1.0 / 6.0,         1.0 / 2.0};
constexpr double kZivMargin = 0x1p-44;
// The clamps, each where the f32 result has saturated: (float)tanh(9.5) is 1,
// exp(89) overflows f32, and exp(-104) < 2^-150 rounds to +0.
constexpr double kTanhSaturates = 9.5;
constexpr double kExpOverflows = 89.0;
constexpr double kExpUnderflows = -104.0;

// Sets s = 2^k and q ~ expm1(r), where z = k ln2 + r (see above).
template <class Isa>
inline void ExpM1Reduced(const typename Isa::Vec& z, typename Isa::Vec& s,
                         typename Isa::Vec& q) {
  using Vec = typename Isa::Vec;
  Vec c{}, kb = z, k{}, r = z;
  Isa::Splat(kLog2e, c);
  Isa::Mul(kb, c);
  Isa::Splat(kRoundToInt, c);
  Isa::Add(kb, c);
  k = kb;
  Isa::Sub(k, c);
  Isa::Splat(kLn2Hi, c);
  Isa::NegMulAdd(r, k, c);
  Isa::Splat(kLn2Lo, c);
  Isa::NegMulAdd(r, k, c);
  Isa::Splat(kExpM1Taylor[0], q);
  for (size_t j = 1; j < std::size(kExpM1Taylor); ++j) {
    Isa::Splat(kExpM1Taylor[j], c);
    Isa::MulAdd(q, r, c);
  }
  Isa::Splat(1.0, c);
  Isa::MulAdd(q, r, c);
  Isa::Mul(q, r);
  Isa::Exp2(kb, s);
}

// v = std::min(std::max(v, lo), hi).
template <class Isa>
inline void Clamp(typename Isa::Vec& v, double lo, double hi) {
  typename Isa::Vec c{};
  Isa::Splat(lo, c);
  Isa::Max(v, c);
  Isa::Splat(hi, c);
  Isa::Min(v, c);
}

// Sets y to the approximation of checked op K at x and returns the lanes
// whose f32 result it does not settle: NaN inputs and lanes that fail the
// rounding test.
template <class Isa, OpKind K>
inline unsigned Checked(const typename Isa::Vec& x, typename Isa::Vec& y) {
  using Vec = typename Isa::Vec;
  Vec z = x, s{}, q{}, c{};
  if constexpr (K == OpKind::kTanh) {
    Isa::Abs(z);
    Isa::Splat(kTanhSaturates, c);
    Isa::Min(z, c);
    Isa::Splat(-2.0, c);
    Isa::Mul(z, c);
  } else if constexpr (K == OpKind::kSigmoid) {
    Isa::Neg(z);
    Clamp<Isa>(z, kExpUnderflows, -kExpUnderflows);
  } else {
    Clamp<Isa>(z, kExpUnderflows, kExpOverflows);
  }
  ExpM1Reduced<Isa>(z, s, q);
  y = q;
  if constexpr (K == OpKind::kTanh) {
    Vec s_minus_1 = s;
    Isa::Splat(1.0, c);
    Isa::Sub(s_minus_1, c);
    Isa::MulAdd(y, s, s_minus_1);  // expm1(-2|x|)
    Vec den = y;
    Isa::Splat(2.0, c);
    Isa::Add(den, c);
    Isa::Div(y, den);
    Isa::CopySign(y, x);
  } else {
    Isa::MulAdd(y, s, s);  // exp(z)
    if constexpr (K == OpKind::kSigmoid) {
      Isa::Splat(1.0, c);
      Isa::Add(y, c);
      Isa::Div(c, y);
      y = c;
    }
  }
  Vec lo = y, hi = y;
  Isa::Splat(1.0 - kZivMargin, c);
  Isa::Mul(lo, c);
  Isa::Splat(1.0 + kZivMargin, c);
  Isa::Mul(hi, c);
  return Isa::F32Differs(lo, hi) | Isa::NanLanes(x);
}

// Exact unary op K on v: rsqrt on F64, the others on F32.
template <class Isa, OpKind K>
inline void ExactUnary(typename Isa::Vec& v) {
  typename Isa::Vec c{};
  if constexpr (K == OpKind::kNeg) {
    Isa::Neg(v);
    Isa::Quiet(v);
  } else if constexpr (K == OpKind::kAbs) {
    Isa::Abs(v);
    Isa::Quiet(v);
  } else if constexpr (K == OpKind::kRelu) {
    // x > 0 ? x : 0 is std::max(+0, x), which never returns a NaN.
    Isa::Splat(0.0f, c);
    Isa::Max(c, v);
    v = c;
  } else if constexpr (K == OpKind::kSqrt) {
    Isa::Sqrt(v);
  } else if constexpr (K == OpKind::kRsqrt || K == OpKind::kReciprocal) {
    if constexpr (K == OpKind::kRsqrt) Isa::Sqrt(v);
    Isa::Splat(1.0f, c);
    Isa::Div(c, v);
    v = c;
  } else if constexpr (K == OpKind::kFloor) {
    Isa::Floor(v);
  } else if constexpr (K == OpKind::kCeil) {
    Isa::Ceil(v);
  } else {
    static_assert(K == kCopy);
    Isa::Quiet(v);
  }
}

// Exact binary op K on F32: a = K(a, b). Arithmetic takes NanFromFirst(a, b)
// as its second operand (ir/eval.h), so two NaNs give a's, quieted.
template <class Isa, OpKind K>
inline void ExactBinary(typename Isa::Vec& a, const typename Isa::Vec& b) {
  if constexpr (K == OpKind::kAdd || K == OpKind::kSub ||
                K == OpKind::kMul || K == OpKind::kDiv) {
    typename Isa::Vec second = b;
    Isa::NanFromFirst(a, second);
    if constexpr (K == OpKind::kAdd) {
      Isa::Add(a, second);
    } else if constexpr (K == OpKind::kSub) {
      Isa::Sub(a, second);
    } else if constexpr (K == OpKind::kMul) {
      Isa::Mul(a, second);
    } else {
      Isa::Div(a, second);
    }
  } else if constexpr (K == OpKind::kMaximum) {
    Isa::Max(a, b);
    Isa::Quiet(a);
  } else {
    static_assert(K == OpKind::kMinimum);
    Isa::Min(a, b);
    Isa::Quiet(a);
  }
}

// The scalar reference on the lanes a checked row hands back: out[l] =
// (float)ApplyUnaryScalar(K, in[l]) for every bit l of `lanes`. Compiled for
// the baseline target, as the fused kernels' scalar loops are, and never
// inlined into a row.
template <OpKind K>
[[gnu::noinline]] void ScalarLanes(float* out, const double* in,
                                   unsigned lanes) {
  for (; lanes != 0; lanes &= lanes - 1) {
    const int l = __builtin_ctz(lanes);
    out[l] = static_cast<float>(ApplyUnaryScalar(K, in[l]));
  }
}

// v = the `count` floats at p (all kLanes when not kTail), widened in F64.
template <class Isa, bool kTail>
inline void LoadLanes(const float* p, typename Isa::Mask mask,
                      typename Isa::Vec& v) {
  if constexpr (kTail) {
    Isa::LoadTail(p, mask, v);
  } else {
    Isa::Load(p, v);
  }
}

// The first `count` lanes of v (all kLanes when not kTail) stored at p,
// narrowed in F64.
template <class Isa, bool kTail>
inline void StoreLanes(float* p, const typename Isa::Vec& v,
                       typename Isa::Mask mask) {
  if constexpr (kTail) {
    Isa::StoreTail(p, v, mask);
  } else {
    Isa::Store(p, v);
  }
}

// out[0, count) = K(x[0, count)); count == kLanes unless kTail.
template <class Isa, OpKind K, bool kTail>
inline void UnaryVector(float* out, const float* x, int64_t count) {
  using Vec = typename Isa::Vec;
  typename Isa::Mask mask{};
  if constexpr (kTail) mask = Isa::TailMask(count);
  Vec v{};
  LoadLanes<Isa, kTail>(x, mask, v);
  if constexpr (IsCheckedRowOp(K)) {
    Vec y{};
    const unsigned fallback =
        Checked<Isa, K>(v, y) & ((1u << count) - 1);
    StoreLanes<Isa, kTail>(out, y, mask);
    if (fallback != 0) {
      // From the widened inputs, which out may have overwritten.
      double in[Isa::kLanes] = {};
      Isa::Spill(v, in);
      ScalarLanes<K>(out, in, fallback);
    }
  } else {
    ExactUnary<Isa, K>(v);
    StoreLanes<Isa, kTail>(out, v, mask);
  }
}

template <class Isa, OpKind K>
inline void UnaryRow(float* out, const float* x, int64_t n) {
  constexpr int64_t kLanes = Isa::kLanes;
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    UnaryVector<Isa, K, false>(out + i, x + i, kLanes);
  }
  if (i < n) UnaryVector<Isa, K, true>(out + i, x + i, n - i);
}

// out[0, count) = K(a, b) over one vector; an operand with step 0 arrives
// splatted in `a0` or `b0`.
template <class Isa, OpKind K, int kAStep, int kBStep, bool kTail>
inline void BinaryVector(float* out, const float* a, const float* b,
                         const typename Isa::Vec& a0,
                         const typename Isa::Vec& b0, int64_t count) {
  using Vec = typename Isa::Vec;
  typename Isa::Mask mask{};
  if constexpr (kTail) mask = Isa::TailMask(count);
  Vec x = a0, y = b0;
  if constexpr (kAStep == 1) LoadLanes<Isa, kTail>(a, mask, x);
  if constexpr (kBStep == 1) LoadLanes<Isa, kTail>(b, mask, y);
  ExactBinary<Isa, K>(x, y);
  StoreLanes<Isa, kTail>(out, x, mask);
}

template <class Isa, OpKind K, int kAStep, int kBStep>
inline void BinaryRow(float* out, const float* a, const float* b, int64_t n) {
  static_assert(kAStep + kBStep > 0 && kAStep <= 1 && kBStep <= 1);
  constexpr int64_t kLanes = Isa::kLanes;
  if (n <= 0) return;
  typename Isa::Vec a0{}, b0{};
  // A step-0 operand is read once, before anything is stored.
  if constexpr (kAStep == 0) Isa::Splat(*a, a0);
  if constexpr (kBStep == 0) Isa::Splat(*b, b0);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    BinaryVector<Isa, K, kAStep, kBStep, false>(out + i, a + i * kAStep,
                                                b + i * kBStep, a0, b0, kLanes);
  }
  if (i < n) {
    BinaryVector<Isa, K, kAStep, kBStep, true>(out + i, a + i * kAStep,
                                               b + i * kBStep, a0, b0, n - i);
  }
}

// acc = K(acc, v) for reduction K, as EvaluateNode combines its accumulator
// with the next element.
template <class Isa, OpKind K>
inline void Combine(typename Isa::Vec& acc, const typename Isa::Vec& v) {
  if constexpr (K == OpKind::kReduceMax) {
    Isa::Max(acc, v);
  } else if constexpr (K == OpKind::kReduceMin) {
    Isa::Min(acc, v);
  } else {
    static_assert(K == OpKind::kReduceSum || K == OpKind::kReduceMean);
    Isa::Add(acc, v);
  }
}

// Folds columns [0, len) of a block's `rows` rows (F64 lanes) into acc, in
// increasing order. The loops over a block's lanes are unrolled (here and in
// LoadColumns), so the columns stay in registers.
template <class Isa, OpKind K>
inline void ReduceBlock(typename Isa::Vec& acc, const float* x, int64_t rows,
                        int64_t len) {
  constexpr int kLanes = Isa::kLanes;
  typename Isa::Vec col[kLanes];
  const typename Isa::Mask all{};  // unused by full loads
  int64_t c = 0;
  for (; c + kLanes <= len; c += kLanes) {
    Isa::template LoadColumns<false>(x + c, len, rows, all, col);
#pragma GCC unroll 8
    for (int j = 0; j < kLanes; ++j) Combine<Isa, K>(acc, col[j]);
  }
  if (c < len) {
    const int64_t tail = len - c;
    Isa::template LoadColumns<true>(x + c, len, rows, Isa::TailMask(tail),
                                    col);
#pragma GCC unroll 8
    for (int j = 0; j < kLanes; ++j) {
      if (j == tail) break;
      Combine<Isa, K>(acc, col[j]);
    }
  }
}

// The initial value of reduction K, as EvaluateNode's.
template <OpKind K>
constexpr double kReduceInit =
    K == OpKind::kReduceMax   ? -std::numeric_limits<double>::infinity()
    : K == OpKind::kReduceMin ? std::numeric_limits<double>::infinity()
                              : 0.0;

// One block of `rows` rows (kLanes unless the last) from `x` to `out`.
template <class Isa, OpKind K>
inline void ReduceRowBlock(float* out, const float* x, int64_t rows,
                           int64_t len) {
  typename Isa::Vec acc{};
  Isa::Splat(kReduceInit<K>, acc);
  ReduceBlock<Isa, K>(acc, x, rows, len);
  if constexpr (K == OpKind::kReduceMean) {
    typename Isa::Vec count{};
    Isa::Splat(static_cast<double>(len), count);
    Isa::Div(acc, count);
  }
  if (rows == Isa::kLanes) {
    Isa::Store(out, acc);
  } else {
    Isa::StoreTail(out, acc, Isa::TailMask(rows));
  }
}

// out = K over the `len` elements at x, with one scalar accumulator, as
// EvaluateNode sums one output cell.
template <OpKind K>
inline void ReduceRowScalar(float* out, const float* x, int64_t len) {
  double acc = kReduceInit<K>;
  for (int64_t i = 0; i < len; ++i) {
    const double v = x[i];
    if constexpr (K == OpKind::kReduceMax) {
      acc = std::max(acc, v);
    } else if constexpr (K == OpKind::kReduceMin) {
      acc = std::min(acc, v);
    } else {
      acc += v;
    }
  }
  if constexpr (K == OpKind::kReduceMean) acc /= static_cast<double>(len);
  *out = static_cast<float>(acc);
}

// out[r] = K over row r of the dense [rows, len] x, kLanes rows per block
// (see elementwise.h). A block costs the same whatever its rows, so a last
// block of fewer than Isa::kMinBlockRows rows would be slower than one
// scalar accumulator per row, which those rows get instead.
template <class Isa, OpKind K>
inline void ReduceRows(float* out, const float* x, int64_t rows,
                       int64_t len) {
  constexpr int64_t kLanes = Isa::kLanes;
  int64_t r = 0;
  for (; r + kLanes <= rows; r += kLanes) {
    ReduceRowBlock<Isa, K>(out + r, x + r * len, kLanes, len);
  }
  if (rows - r >= Isa::kMinBlockRows) {
    ReduceRowBlock<Isa, K>(out + r, x + r * len, rows - r, len);
    return;
  }
  for (; r < rows; ++r) ReduceRowScalar<K>(out + r, x + r * len, len);
}

// The row kernels of ISA entry-point struct `Rows` (see below).
template <class Rows>
UnaryRowFn UnaryRowOf(OpKind op) {
  switch (op) {
    case OpKind::kNeg:
      return &Rows::template Unary<OpKind::kNeg>;
    case OpKind::kAbs:
      return &Rows::template Unary<OpKind::kAbs>;
    case OpKind::kRelu:
      return &Rows::template Unary<OpKind::kRelu>;
    case OpKind::kSqrt:
      return &Rows::template Unary<OpKind::kSqrt>;
    case OpKind::kRsqrt:
      return &Rows::template Unary<OpKind::kRsqrt>;
    case OpKind::kReciprocal:
      return &Rows::template Unary<OpKind::kReciprocal>;
    case OpKind::kFloor:
      return &Rows::template Unary<OpKind::kFloor>;
    case OpKind::kCeil:
      return &Rows::template Unary<OpKind::kCeil>;
    case OpKind::kTanh:
      return &Rows::template Unary<OpKind::kTanh>;
    case OpKind::kExp:
      return &Rows::template Unary<OpKind::kExp>;
    case OpKind::kSigmoid:
      return &Rows::template Unary<OpKind::kSigmoid>;
    default:
      return nullptr;
  }
}

template <class Rows, int kAStep, int kBStep>
BinaryRowFn BinaryRowOf(OpKind op) {
  switch (op) {
    case OpKind::kAdd:
      return &Rows::template Binary<OpKind::kAdd, kAStep, kBStep>;
    case OpKind::kSub:
      return &Rows::template Binary<OpKind::kSub, kAStep, kBStep>;
    case OpKind::kMul:
      return &Rows::template Binary<OpKind::kMul, kAStep, kBStep>;
    case OpKind::kDiv:
      return &Rows::template Binary<OpKind::kDiv, kAStep, kBStep>;
    case OpKind::kMaximum:
      return &Rows::template Binary<OpKind::kMaximum, kAStep, kBStep>;
    case OpKind::kMinimum:
      return &Rows::template Binary<OpKind::kMinimum, kAStep, kBStep>;
    default:
      return nullptr;
  }
}

template <class Rows>
BinaryRowFn BinaryRowOf(OpKind op, int64_t a_step, int64_t b_step) {
  if (a_step == 1 && b_step == 1) return BinaryRowOf<Rows, 1, 1>(op);
  if (a_step == 1 && b_step == 0) return BinaryRowOf<Rows, 1, 0>(op);
  if (a_step == 0 && b_step == 1) return BinaryRowOf<Rows, 0, 1>(op);
  return nullptr;
}

template <class Rows>
RowReduceFn RowReduceOf(OpKind op) {
  switch (op) {
    case OpKind::kReduceSum:
      return &Rows::template Reduce<OpKind::kReduceSum>;
    case OpKind::kReduceMean:
      return &Rows::template Reduce<OpKind::kReduceMean>;
    case OpKind::kReduceMax:
      return &Rows::template Reduce<OpKind::kReduceMax>;
    case OpKind::kReduceMin:
      return &Rows::template Reduce<OpKind::kReduceMin>;
    default:
      return nullptr;
  }
}

#if defined(__x86_64__)

// ---------------------------------------------------------------------------
// avx2: eight f32 lanes, or four double lanes from four floats, with fma
// (HostSupports(kAvx2) requires both). Tails use masked loads and stores.
#pragma GCC push_options
#pragma GCC target("avx2,fma")

// Lane masks: the first `count` of kLanes 32-bit lanes are at
// kAvx2LaneMasks + 8 - count.
constexpr int32_t kAvx2LaneMasks[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                        0,  0,  0,  0,  0,  0,  0,  0};

struct Avx2F32 {
  using Vec = __m256;
  // The lane masks' address: a 256-bit mask returned to the baseline
  // templates would change their ABI.
  using Mask = const int32_t*;
  static constexpr int kLanes = 8;
  static Mask TailMask(int64_t count) {
    return kAvx2LaneMasks + kLanes - count;
  }
  static __m256i Lanes(Mask mask) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask));
  }
  static void Load(const float* p, Vec& v) { v = _mm256_loadu_ps(p); }
  static void LoadTail(const float* p, Mask mask, Vec& v) {
    v = _mm256_maskload_ps(p, Lanes(mask));
  }
  static void Splat(float s, Vec& v) { v = _mm256_set1_ps(s); }
  static void Store(float* p, const Vec& v) { _mm256_storeu_ps(p, v); }
  static void StoreTail(float* p, const Vec& v, Mask mask) {
    _mm256_maskstore_ps(p, Lanes(mask), v);
  }
  static void Add(Vec& a, const Vec& b) { a = _mm256_add_ps(a, b); }
  static void Sub(Vec& a, const Vec& b) { a = _mm256_sub_ps(a, b); }
  static void Mul(Vec& a, const Vec& b) { a = _mm256_mul_ps(a, b); }
  static void Div(Vec& a, const Vec& b) { a = _mm256_div_ps(a, b); }
  // maxps(b, a) is b > a ? b : a, which is std::max(a, b) = a < b ? b : a
  // also for NaN and +-0; likewise for min.
  static void Max(Vec& a, const Vec& b) { a = _mm256_max_ps(b, a); }
  static void Min(Vec& a, const Vec& b) { a = _mm256_min_ps(b, a); }
  static void NanFromFirst(const Vec& a, Vec& b) {
    b = _mm256_blendv_ps(b, a, _mm256_cmp_ps(a, a, _CMP_UNORD_Q));
  }
  static void Neg(Vec& a) { a = _mm256_xor_ps(a, _mm256_set1_ps(-0.0f)); }
  static void Abs(Vec& a) { a = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a); }
  static void Sqrt(Vec& a) { a = _mm256_sqrt_ps(a); }
  static void Floor(Vec& a) { a = _mm256_floor_ps(a); }
  static void Ceil(Vec& a) { a = _mm256_ceil_ps(a); }
  static void Quiet(Vec& a) {
    // Opaque to GCC, which assumes no signalling NaNs and would fold
    // a + -0.0 to a.
    Vec minus_zero = _mm256_set1_ps(-0.0f);
    __asm__("" : "+x"(minus_zero));
    a = _mm256_add_ps(a, minus_zero);
  }
};

struct Avx2F64 {
  using Vec = __m256d;
  using Mask = __m128i;
  static constexpr int kLanes = 4;
  // Where a partial reduction block beats scalar rows (elementwise.h).
  static constexpr int kMinBlockRows = 3;
  static Mask TailMask(int64_t count) {
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(kAvx2LaneMasks + 8 - count));
  }
  static void Load(const float* p, Vec& v) {
    v = _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
  static void LoadTail(const float* p, Mask mask, Vec& v) {
    v = _mm256_cvtps_pd(_mm_maskload_ps(p, mask));
  }
  template <bool kTail>
  static void LoadColumns(const float* p, int64_t stride, int64_t rows,
                          Mask mask, Vec (&col)[kLanes]) {
    __m128 r[kLanes];
#pragma GCC unroll 4
    for (int k = 0; k < kLanes; ++k) {
      if (k >= rows) {
        r[k] = _mm_setzero_ps();
      } else if constexpr (kTail) {
        r[k] = _mm_maskload_ps(p + k * stride, mask);
      } else {
        r[k] = _mm_loadu_ps(p + k * stride);
      }
    }
    _MM_TRANSPOSE4_PS(r[0], r[1], r[2], r[3]);
#pragma GCC unroll 4
    for (int j = 0; j < kLanes; ++j) col[j] = _mm256_cvtps_pd(r[j]);
  }
  static void Splat(double s, Vec& v) { v = _mm256_set1_pd(s); }
  static void Store(float* p, const Vec& v) {
    _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
  }
  static void StoreTail(float* p, const Vec& v, Mask mask) {
    _mm_maskstore_ps(p, mask, _mm256_cvtpd_ps(v));
  }
  static void Spill(const Vec& v, double* p) { _mm256_storeu_pd(p, v); }
  static void Add(Vec& a, const Vec& b) { a = _mm256_add_pd(a, b); }
  static void Sub(Vec& a, const Vec& b) { a = _mm256_sub_pd(a, b); }
  static void Mul(Vec& a, const Vec& b) { a = _mm256_mul_pd(a, b); }
  static void Div(Vec& a, const Vec& b) { a = _mm256_div_pd(a, b); }
  // As for Avx2F32: the swapped operands give std::max / std::min.
  static void Max(Vec& a, const Vec& b) { a = _mm256_max_pd(b, a); }
  static void Min(Vec& a, const Vec& b) { a = _mm256_min_pd(b, a); }
  static void Neg(Vec& a) { a = _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static void Abs(Vec& a) { a = _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  static void Sqrt(Vec& a) { a = _mm256_sqrt_pd(a); }
  static void CopySign(Vec& a, const Vec& b) {
    const Vec sign = _mm256_set1_pd(-0.0);
    a = _mm256_or_pd(_mm256_andnot_pd(sign, a), _mm256_and_pd(sign, b));
  }
  static void MulAdd(Vec& a, const Vec& b, const Vec& c) {
    a = _mm256_fmadd_pd(a, b, c);
  }
  static void NegMulAdd(Vec& a, const Vec& b, const Vec& c) {
    a = _mm256_fnmadd_pd(b, c, a);
  }
  static void Exp2(const Vec& kb, Vec& s) {
    s = _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_castpd_si256(kb), 52));
  }
  static unsigned NanLanes(const Vec& v) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v, v, _CMP_UNORD_Q)));
  }
  static unsigned F32Differs(const Vec& a, const Vec& b) {
    const __m128i same = _mm_cmpeq_epi32(_mm_castps_si128(_mm256_cvtpd_ps(a)),
                                         _mm_castps_si128(_mm256_cvtpd_ps(b)));
    return ~static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(same))) &
           0xfu;
  }
};

struct Avx2Rows {
  template <OpKind K>
  [[gnu::flatten]] static void Unary(float* out, const float* x, int64_t n) {
    if constexpr (IsWidenedRowOp(K)) {
      UnaryRow<Avx2F64, K>(out, x, n);
    } else {
      UnaryRow<Avx2F32, K>(out, x, n);
    }
    _mm256_zeroupper();
  }
  template <OpKind K, int kAStep, int kBStep>
  [[gnu::flatten]] static void Binary(float* out, const float* a,
                                      const float* b, int64_t n) {
    BinaryRow<Avx2F32, K, kAStep, kBStep>(out, a, b, n);
    _mm256_zeroupper();
  }
  [[gnu::flatten]] static void Copy(float* out, const float* x, int64_t n) {
    UnaryRow<Avx2F32, kCopy>(out, x, n);
    _mm256_zeroupper();
  }
  template <OpKind K>
  [[gnu::flatten]] static void Reduce(float* out, const float* x,
                                      int64_t rows, int64_t len) {
    ReduceRows<Avx2F64, K>(out, x, rows, len);
    _mm256_zeroupper();
  }
};

#pragma GCC pop_options

// ---------------------------------------------------------------------------
// avx512: sixteen f32 lanes, or eight double lanes from eight floats, with
// 256-bit masked loads and stores (avx512vl). GCC 12's unmasked _mm512
// widening, narrowing, max, min, sqrt, shift and and-not intrinsics raise
// -Wmaybe-uninitialized (see ir/contraction.cc): widening, max, min and
// sqrt use the masked forms with every lane set, narrowing goes through
// __builtin_convertvector, and the sign-bit logic through GCC's vector
// extensions (integer ops, so avx512dq is not needed).
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl")

struct Avx512F32 {
  using Vec = __m512;
  using Bits = uint32_t __attribute__((vector_size(64)));
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  static constexpr Mask kAll = 0xffff;
  static constexpr uint32_t kSign = uint32_t{1} << 31;
  static Mask TailMask(int64_t count) {
    return static_cast<Mask>((1u << count) - 1);
  }
  static void Load(const float* p, Vec& v) { v = _mm512_loadu_ps(p); }
  static void LoadTail(const float* p, Mask mask, Vec& v) {
    v = _mm512_maskz_loadu_ps(mask, p);
  }
  static void Splat(float s, Vec& v) { v = _mm512_set1_ps(s); }
  static void Store(float* p, const Vec& v) { _mm512_storeu_ps(p, v); }
  static void StoreTail(float* p, const Vec& v, Mask mask) {
    _mm512_mask_storeu_ps(p, mask, v);
  }
  static void Add(Vec& a, const Vec& b) { a = _mm512_add_ps(a, b); }
  static void Sub(Vec& a, const Vec& b) { a = _mm512_sub_ps(a, b); }
  static void Mul(Vec& a, const Vec& b) { a = _mm512_mul_ps(a, b); }
  static void Div(Vec& a, const Vec& b) { a = _mm512_div_ps(a, b); }
  // As for avx2: the swapped operands give std::max / std::min.
  static void Max(Vec& a, const Vec& b) {
    a = _mm512_mask_max_ps(a, kAll, b, a);
  }
  static void Min(Vec& a, const Vec& b) {
    a = _mm512_mask_min_ps(a, kAll, b, a);
  }
  static void NanFromFirst(const Vec& a, Vec& b) {
    b = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a, a, _CMP_UNORD_Q), b, a);
  }
  static void Neg(Vec& a) { a = (Vec)((Bits)a ^ kSign); }
  static void Abs(Vec& a) { a = (Vec)((Bits)a & ~kSign); }
  static void Sqrt(Vec& a) { a = _mm512_mask_sqrt_ps(a, kAll, a); }
  static void Floor(Vec& a) { a = _mm512_floor_ps(a); }
  static void Ceil(Vec& a) { a = _mm512_ceil_ps(a); }
  static void Quiet(Vec& a) {
    // Opaque to GCC, as for avx2.
    Vec minus_zero = _mm512_set1_ps(-0.0f);
    __asm__("" : "+v"(minus_zero));
    a = _mm512_add_ps(a, minus_zero);
  }
};

struct Avx512F64 {
  using Vec = __m512d;
  using Bits = uint64_t __attribute__((vector_size(64)));
  using Mask = __mmask8;
  static constexpr int kLanes = 8;
  static constexpr int kMinBlockRows = 4;
  static constexpr Mask kAll = 0xff;
  static constexpr uint64_t kSign = uint64_t{1} << 63;
  static Mask TailMask(int64_t count) {
    return static_cast<Mask>((1u << count) - 1);
  }
  static void Load(const float* p, Vec& v) {
    v = _mm512_maskz_cvtps_pd(kAll, _mm256_loadu_ps(p));
  }
  static void LoadTail(const float* p, Mask mask, Vec& v) {
    v = _mm512_maskz_cvtps_pd(kAll, _mm256_maskz_loadu_ps(mask, p));
  }
  template <bool kTail>
  static void LoadColumns(const float* p, int64_t stride, int64_t rows,
                          Mask mask, Vec (&col)[kLanes]) {
    __m256 r[kLanes];
#pragma GCC unroll 8
    for (int k = 0; k < kLanes; ++k) {
      if (k >= rows) {
        r[k] = _mm256_setzero_ps();
      } else if constexpr (kTail) {
        r[k] = _mm256_maskz_loadu_ps(mask, p + k * stride);
      } else {
        r[k] = _mm256_loadu_ps(p + k * stride);
      }
    }
    // An 8x8 transpose: rows (0,1), (2,3), ... interleaved, then pairs of
    // pairs, then the 128-bit halves.
    __m256 t[kLanes], s[kLanes];
#pragma GCC unroll 4
    for (int k = 0; k < kLanes; k += 2) {
      t[k] = _mm256_unpacklo_ps(r[k], r[k + 1]);
      t[k + 1] = _mm256_unpackhi_ps(r[k], r[k + 1]);
    }
#pragma GCC unroll 2
    for (int k = 0; k < kLanes; k += 4) {
      s[k] = _mm256_shuffle_ps(t[k], t[k + 2], 0x44);
      s[k + 1] = _mm256_shuffle_ps(t[k], t[k + 2], 0xee);
      s[k + 2] = _mm256_shuffle_ps(t[k + 1], t[k + 3], 0x44);
      s[k + 3] = _mm256_shuffle_ps(t[k + 1], t[k + 3], 0xee);
    }
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      col[j] = _mm512_maskz_cvtps_pd(
          kAll, _mm256_permute2f128_ps(s[j], s[j + 4], 0x20));
      col[j + 4] = _mm512_maskz_cvtps_pd(
          kAll, _mm256_permute2f128_ps(s[j], s[j + 4], 0x31));
    }
  }
  static void Splat(double s, Vec& v) { v = _mm512_set1_pd(s); }
  static void Store(float* p, const Vec& v) {
    _mm256_storeu_ps(p, __builtin_convertvector(v, __m256));
  }
  static void StoreTail(float* p, const Vec& v, Mask mask) {
    _mm256_mask_storeu_ps(p, mask, __builtin_convertvector(v, __m256));
  }
  static void Spill(const Vec& v, double* p) { _mm512_storeu_pd(p, v); }
  static void Add(Vec& a, const Vec& b) { a = _mm512_add_pd(a, b); }
  static void Sub(Vec& a, const Vec& b) { a = _mm512_sub_pd(a, b); }
  static void Mul(Vec& a, const Vec& b) { a = _mm512_mul_pd(a, b); }
  static void Div(Vec& a, const Vec& b) { a = _mm512_div_pd(a, b); }
  static void Max(Vec& a, const Vec& b) {
    a = _mm512_mask_max_pd(a, kAll, b, a);
  }
  static void Min(Vec& a, const Vec& b) {
    a = _mm512_mask_min_pd(a, kAll, b, a);
  }
  static void Neg(Vec& a) { a = (Vec)((Bits)a ^ kSign); }
  static void Abs(Vec& a) { a = (Vec)((Bits)a & ~kSign); }
  static void Sqrt(Vec& a) { a = _mm512_mask_sqrt_pd(a, kAll, a); }
  static void CopySign(Vec& a, const Vec& b) {
    a = (Vec)(((Bits)a & ~kSign) | ((Bits)b & kSign));
  }
  static void MulAdd(Vec& a, const Vec& b, const Vec& c) {
    a = _mm512_fmadd_pd(a, b, c);
  }
  static void NegMulAdd(Vec& a, const Vec& b, const Vec& c) {
    a = _mm512_fnmadd_pd(b, c, a);
  }
  static void Exp2(const Vec& kb, Vec& s) { s = (Vec)((Bits)kb << 52); }
  static unsigned NanLanes(const Vec& v) {
    return _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q);
  }
  static unsigned F32Differs(const Vec& a, const Vec& b) {
    return _mm256_cmpneq_epi32_mask(
        _mm256_castps_si256(__builtin_convertvector(a, __m256)),
        _mm256_castps_si256(__builtin_convertvector(b, __m256)));
  }
};

struct Avx512Rows {
  template <OpKind K>
  [[gnu::flatten]] static void Unary(float* out, const float* x, int64_t n) {
    if constexpr (IsWidenedRowOp(K)) {
      UnaryRow<Avx512F64, K>(out, x, n);
    } else {
      UnaryRow<Avx512F32, K>(out, x, n);
    }
    _mm256_zeroupper();
  }
  template <OpKind K, int kAStep, int kBStep>
  [[gnu::flatten]] static void Binary(float* out, const float* a,
                                      const float* b, int64_t n) {
    BinaryRow<Avx512F32, K, kAStep, kBStep>(out, a, b, n);
    _mm256_zeroupper();
  }
  [[gnu::flatten]] static void Copy(float* out, const float* x, int64_t n) {
    UnaryRow<Avx512F32, kCopy>(out, x, n);
    _mm256_zeroupper();
  }
  template <OpKind K>
  [[gnu::flatten]] static void Reduce(float* out, const float* x,
                                      int64_t rows, int64_t len) {
    ReduceRows<Avx512F64, K>(out, x, rows, len);
    _mm256_zeroupper();
  }
};

#pragma GCC pop_options

#endif  // defined(__x86_64__)

}  // namespace

int64_t RowLanes(ContractionIsa isa) {
  switch (isa) {
#if defined(__x86_64__)
    case ContractionIsa::kAvx2:
      return Avx2F64::kLanes;
    case ContractionIsa::kAvx512:
      return Avx512F64::kLanes;
#endif
    default:
      return 0;
  }
}

// The entry points of `isa`'s Rows struct through `pick`, after checking
// that the host runs `isa`; null on generic.
template <typename Fn, typename Pick>
Fn SelectRows(ContractionIsa isa, Pick pick) {
  DISC_CHECK(HostSupports(isa))
      << ContractionIsaName(isa) << " is not supported by this CPU";
  switch (isa) {
#if defined(__x86_64__)
    case ContractionIsa::kAvx2:
      return pick(Avx2Rows{});
    case ContractionIsa::kAvx512:
      return pick(Avx512Rows{});
#endif
    default:
      return nullptr;
  }
}

UnaryRowFn SelectUnaryRow(ContractionIsa isa, OpKind op) {
  return SelectRows<UnaryRowFn>(isa, [op](auto rows) {
    return UnaryRowOf<decltype(rows)>(op);
  });
}

BinaryRowFn SelectBinaryRow(ContractionIsa isa, OpKind op, int64_t a_step,
                            int64_t b_step) {
  return SelectRows<BinaryRowFn>(isa, [=](auto rows) {
    return BinaryRowOf<decltype(rows)>(op, a_step, b_step);
  });
}

UnaryRowFn SelectCopyRow(ContractionIsa isa) {
  return SelectRows<UnaryRowFn>(
      isa, [](auto rows) -> UnaryRowFn { return &decltype(rows)::Copy; });
}

RowReduceFn SelectRowReduce(ContractionIsa isa, OpKind op) {
  return SelectRows<RowReduceFn>(isa, [op](auto rows) {
    return RowReduceOf<decltype(rows)>(op);
  });
}

}  // namespace disc
