// Vector row kernels for the f32 elementwise members of fused kernels: one
// row template over an ISA traits struct, instantiated for AVX2 and AVX-512
// (the ISAs of ir/contraction.h, detected once per process by the same
// probe). FusedKernel::Bind picks a row kernel for a member whose innermost
// rows are contiguous (execute.cc); every other row keeps the scalar loop,
// which is also the generic variant.
//
// Numeric contract: every output is bit-identical to the scalar reference,
// (float)ApplyUnaryScalar(op, x) or (float)ApplyBinaryScalar(op, a, b, f32)
// (ir/eval.h), for every input, NaN payloads and signed zeros included.
// IEEE 754 leaves open which payload an arithmetic op on two NaNs carries;
// the reference pins it to the first operand's, quieted, by passing that NaN
// as both operands (NanFromFirst), and the rows do the same with one compare
// and one blend per vector.
//   * Exact ops: neg, abs, relu, sqrt, rsqrt (sqrt, then divide),
//     reciprocal, floor, ceil, add, sub, mul, div, maximum and minimum run
//     the same IEEE double operations on the same widened operands, then one
//     narrowing. IEEE 754 defines each of them as correctly rounded, so
//     each lane equals the scalar expression by construction. maximum and
//     minimum select operands as std::max / std::min do, so NaN and +-0 pick
//     the same one.
//   * Checked ops: tanh, exp and sigmoid evaluate a vector double
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
// Everything else stays scalar: i64 and i1 dtypes, casts, compares, logical
// ops, pow, mod, log, erf, sign, select, strided rows, rows shorter than one
// vector, and reductions (bit identity fixes a reduction's order).
//
// A row kernel reads and writes exactly its n elements (column tails use
// masked loads and stores), accepts unaligned pointers, and is correct when
// out equals an input. Each entry point ends with an explicit vzeroupper
// (see ir/contraction.h), since the member loops that follow are legacy SSE.
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

/// \brief Elements per vector of `isa`'s row kernels (0 for generic): the
/// shortest row Bind gives one.
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

}  // namespace disc

#endif  // DISC_KERNEL_ELEMENTWISE_H_
