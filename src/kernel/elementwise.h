// Vector row kernels for the f32 members of fused kernels: elementwise rows,
// a quieting copy row and row-blocked reductions. One set of row templates
// over ISA traits structs, instantiated for AVX2 and AVX-512 (the ISAs of
// ir/contraction.h, detected once per process by the same probe).
// FusedKernel::Bind picks a row kernel for a member whose rows are
// contiguous (execute.cc); every other member keeps its scalar loop, which
// is also the generic variant.
//
// Numeric contract: every output is bit-identical to the scalar reference,
// (float)ApplyUnaryScalar(op, x), (float)ApplyBinaryScalar(op, a, b, f32)
// (ir/eval.h) or EvaluateNode's reduction, for every input, NaN payloads
// and signed zeros included. The reference widens each f32 to double, which
// quiets a signalling NaN, computes in double and narrows once. IEEE 754
// leaves open which payload an arithmetic op on two NaNs carries; the
// reference pins it to the first operand's, quieted, by passing that NaN as
// both operands (NanFromFirst), and the rows do the same with one compare
// and one blend per vector.
//   * Native rows: add, sub, mul, div, reciprocal, sqrt, maximum, minimum,
//     neg, abs, relu, floor and ceil run on f32 lanes, 8 per vector on AVX2
//     and 16 on AVX-512, with no conversion. For +, -, *, / and sqrt,
//     rounding the exact result to binary64 and then to binary32 gives the
//     same value as rounding it once to binary32, since 53 >= 2 * 24 + 2
//     (S. A. Figueroa, "When is double rounding innocuous?", ACM SIGNUM
//     Newsletter 30(3), 1995); a subnormal f32 result has fewer bits still,
//     and no f32 operands give a subnormal double. floor, ceil, neg and abs
//     are exact in both widths, and maximum, minimum and relu select an
//     operand as std::max / std::min do, so NaN and +-0 pick the same one.
//     What widening adds is quieting. Arithmetic, sqrt, floor and ceil
//     quiet a signalling NaN themselves, and relu never returns a NaN;
//     maximum, minimum, neg and abs would pass one through, so they add
//     -0.0 to their result. Under the default MXCSR (round to nearest, no
//     flush-to-zero, no denormals-are-zero) x + -0.0 quiets a NaN and
//     leaves every other value's bits unchanged (+0 + -0 is +0).
//   * rsqrt keeps a double row: the reference rounds twice, after the sqrt
//     and after the division, so one f32 sqrt and one f32 division, each
//     correctly rounded, can differ from it. The row runs the same two
//     double operations, then one narrowing.
//   * Checked rows: tanh, exp and sigmoid evaluate a vector double
//     approximation y whose relative error, proved in elementwise.cc, is
//     below 2^-49. A lane keeps (float)y only when (float)(y * (1 - 2^-44))
//     and (float)(y * (1 + 2^-44)) have the same bits (Ziv's rounding test).
//     libm's result lies within 2^-44 |y| of y, since its own error is a few
//     ulp, far below the margin whatever the glibc version; rounding to f32 is
//     monotone, so it narrows to the same f32. NaN lanes, and lanes that fail
//     the test (about one in 2^19, near a rounding boundary), are recomputed
//     through ApplyUnaryScalar. An argument is clamped only where the f32
//     result provably saturates: tanh is +-1 for |x| >= 9.5, exp is +inf above
//     89 and +0 below -104, and so is sigmoid's exp(-x) argument (not at 89:
//     1 / (1 + e^90) is a subnormal f32, not zero).
//   * The copy row stores x + -0.0, which is (float)(double)x: the store
//     conversion of every f32 data-movement member.
//   * Row reductions (sum, mean, max, min) reduce each row of a dense
//     [rows, len] matrix, RowLanes(isa) rows per block, one double lane per
//     row. A block loads RowLanes(isa) columns of its rows at a time,
//     transposes them in registers and widens them, then folds the columns
//     into the lanes in increasing order, starting from the reference's
//     initial value (+0, -inf or +inf). So each row sees the same double
//     operations in the same order as EvaluateNode's one accumulator; mean
//     then divides by len. Blocks run in row order; the last may be
//     partial, its missing rows read as zeros and never stored. A block
//     costs the same whatever its rows, so a last block of fewer than 3
//     (AVX2) or 4 (AVX-512) rows runs one scalar accumulator per row
//     instead, in the same order.
// Everything else stays scalar: i64 and i1 dtypes, casts, compares, logical
// ops, pow, mod, log, erf, sign, select, strided rows, rows shorter than
// RowLanes(isa), and reductions that are not over trailing dims.
//
// A row kernel reads and writes exactly its elements (column tails use
// masked loads and stores), accepts unaligned pointers, and, for the
// elementwise and copy rows, is correct when out equals an input. Each
// entry point ends with an explicit vzeroupper (see ir/contraction.h),
// since the member loops that follow are legacy SSE.
#ifndef DISC_KERNEL_ELEMENTWISE_H_
#define DISC_KERNEL_ELEMENTWISE_H_

#include <cstdint>

#include "ir/contraction.h"
#include "ir/op_kind.h"

namespace disc {

/// \brief out[i] = op(x[i]) for i in [0, n).
using UnaryRowFn = void (*)(float* out, const float* x, int64_t n);

/// \brief out[i] = op(a[i * a_step], b[i * b_step]) for i in [0, n), with
/// the steps fixed when the kernel is selected.
using BinaryRowFn = void (*)(float* out, const float* a, const float* b,
                             int64_t n);

/// \brief out[r] = op over x[r * len, (r + 1) * len) for r in [0, rows),
/// with len >= 1: a reduction of the trailing dims of a dense f32 input.
using RowReduceFn = void (*)(float* out, const float* x, int64_t rows,
                             int64_t len);

/// \brief The shortest row Bind gives a row kernel on `isa` (0 for generic),
/// and the rows per block of a row reduction: one vector of doubles, 4 on
/// AVX2 and 8 on AVX-512.
int64_t RowLanes(ContractionIsa isa);

/// \brief The row kernel of f32 unary `op` on `isa`, which the host must
/// support; null when `op` has none (see the file comment) or `isa` is
/// generic.
UnaryRowFn SelectUnaryRow(ContractionIsa isa, OpKind op);

/// \brief The row kernel of f32 binary `op` on `isa` with operand steps
/// (1, 1), (1, 0) or (0, 1); null for other steps and as for
/// SelectUnaryRow.
BinaryRowFn SelectBinaryRow(ContractionIsa isa, OpKind op, int64_t a_step,
                            int64_t b_step);

/// \brief The quieting copy row on `isa`: out[i] = (float)(double)x[i].
/// Null when `isa` is generic.
UnaryRowFn SelectCopyRow(ContractionIsa isa);

/// \brief The row reduction of f32 reduce_sum, reduce_mean, reduce_max or
/// reduce_min on `isa`; null for other ops and when `isa` is generic.
RowReduceFn SelectRowReduce(ContractionIsa isa, OpKind op);

}  // namespace disc

#endif  // DISC_KERNEL_ELEMENTWISE_H_
