// Reference evaluator: executes single ops / whole graphs on concrete
// tensors, one op at a time.
//
// This is the semantic ground truth of the repo. It is used by
//   * constant folding (disc::opt),
//   * the eager-interpreter baselines (PyTorch-style engines),
//   * the runtime's library steps (GEMM / Conv2D: the launch plan holds each
//     step's ResolveContraction, and a Run calls RunContraction), and
//   * every correctness test that compares compiled kernels against a
//     reference.
// Elementwise ops compute on a double carrier and round to the node's dtype
// on store; reductions and contractions accumulate in double in a fixed
// order. The fused-kernel executor (kernel/execute.cc) reproduces these
// semantics bit for bit and shares the scalar functions below. They are
// force-inlined: the fused scalar loops instantiate them with a constant op
// kind and dtype, so each loop body compiles to the bare expression (one
// multiply, say) instead of an out-of-line call that switches per element.
// The executor's vector rows (kernel/elementwise.h) use them as the
// fallback for lanes a rounding test cannot settle, and are tested against
// them. This evaluator stays scalar: it is the oracle the rows answer to.
//
// MatMul and Conv2D run the register-tiled kernels of ir/contraction.h, in
// the variant SelectContraction picks per resolved call (ResolveContraction,
// shared with the runtime's launch plans): the widest the host CPU
// runs (AVX-512, AVX2, or the generic SSE2 tile), except that i64 and i1
// operands, and transpose_b with fewer than 2 rows, take the generic one.
// The AVX variants use fused multiply-adds, which round exactly as a
// multiply then an add only because an f32 x f32 product is exact in
// double; so they take f32 operands only. Each AVX entry point ends with an
// explicit vzeroupper, which keeps the legacy-SSE code that runs after it
// at full speed. Every variant sums each output's products in double, from
// +0.0, in increasing contraction order, so all of them are bit-identical
// to a per-output dot-product loop.
#ifndef DISC_IR_EVAL_H_
#define DISC_IR_EVAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ir/contraction.h"
#include "ir/graph.h"
#include "ir/tensor.h"
#include "support/logging.h"
#include "support/status.h"

namespace disc {

/// \brief Evaluates one node given concrete operand tensors.
Result<std::vector<Tensor>> EvaluateNode(const Node& node,
                                         const std::vector<Tensor>& inputs);

/// \brief Evaluates the whole graph; `inputs` parallel to graph.inputs().
/// Input dims must be consistent with the declared (possibly dynamic)
/// types. Returns tensors parallel to graph.outputs().
Result<std::vector<Tensor>> EvaluateGraph(const Graph& graph,
                                          const std::vector<Tensor>& inputs);

/// \brief A MatMul or Conv2D resolved for concrete operand types: the
/// kernel call both EvaluateNode and the runtime's library steps make.
struct ContractionCall {
  OpKind kind = OpKind::kMatMul;
  DType dtype = DType::kF32;  // of the operands and the result
  ContractionIsa isa = ContractionIsa::kGeneric;
  MatMulDims matmul;  // kMatMul
  Conv2DDims conv;    // kConv2D
  std::vector<int64_t> out_dims;
  /// Pack space the call needs (MatMulPackBytes / Conv2DPackBytes).
  int64_t pack_bytes = 0;
};

/// \brief Resolves MatMul or Conv2D `node` for operands of these dtypes and
/// dims: checks them as EvaluateNode does (InvalidArgument on a mismatch),
/// computes the result dims, and picks the variant with SelectContraction.
Result<ContractionCall> ResolveContraction(const Node& node, DType lhs_dtype,
                                           const std::vector<int64_t>& lhs,
                                           DType rhs_dtype,
                                           const std::vector<int64_t>& rhs);

/// \brief Runs a resolved call on dense row-major buffers of the resolved
/// dtypes and dims, with call.pack_bytes of 8-byte-aligned pack space at
/// `pack`. Writes every output; allocates nothing.
void RunContraction(const ContractionCall& call, const void* lhs,
                    const void* rhs, void* out, std::byte* pack);

/// \brief Scalar semantics of a unary elementwise op (dtype-aware via
/// double carrier; exact for the integral range used in shapes). Always
/// inlined, so a loop that passes a constant `kind` compiles to the bare
/// expression.
[[gnu::always_inline]] inline double ApplyUnaryScalar(OpKind kind,
                                                      double x) {
  switch (kind) {
    case OpKind::kAbs:
      return std::abs(x);
    case OpKind::kNeg:
      return -x;
    case OpKind::kExp:
      return std::exp(x);
    case OpKind::kLog:
      return std::log(x);
    case OpKind::kSqrt:
      return std::sqrt(x);
    case OpKind::kRsqrt:
      return 1.0 / std::sqrt(x);
    case OpKind::kTanh:
      return std::tanh(x);
    case OpKind::kErf:
      return std::erf(x);
    case OpKind::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
    case OpKind::kRelu:
      return x > 0.0 ? x : 0.0;
    case OpKind::kFloor:
      return std::floor(x);
    case OpKind::kCeil:
      return std::ceil(x);
    case OpKind::kSign:
      return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0);
    case OpKind::kReciprocal:
      return 1.0 / x;
    case OpKind::kLogicalNot:
      return x == 0.0 ? 1.0 : 0.0;
    case OpKind::kCast:
      return x;  // the dtype conversion happens on store
    default:
      DISC_UNREACHABLE(OpName(kind));
      return 0.0;
  }
}

/// \brief True when the integral div/mod of `a` by `b` has no value: the
/// divisor is zero, or the quotient of INT64_MIN / -1 overflows. Callers
/// report InvalidArgument for such operands; the division would trap.
inline bool IntegralDivisionUndefined(double a, double b) {
  const int64_t divisor = static_cast<int64_t>(b);
  return divisor == 0 ||
         (divisor == -1 &&
          static_cast<int64_t>(a) == std::numeric_limits<int64_t>::min());
}

/// \brief `b`, or `a` where `a` is NaN: the second operand of +, -, * and /.
/// When both operands are NaN, IEEE 754 leaves open whose payload the result
/// carries; x86 returns the first source operand's, and the compiler orders
/// the operands of + and * as it likes. With a NaN `a` in both places the
/// result is `a`'s NaN, quieted, however they are ordered.
[[gnu::always_inline]] inline double NanFromFirst(double a, double b) {
  return std::isnan(a) ? a : b;
}

/// \brief Scalar semantics of a binary elementwise op. Integral ops
/// (div/mod on i64) truncate like C++; their operands must pass
/// IntegralDivisionUndefined first. Arithmetic on two NaNs returns the first
/// operand's, quieted (NanFromFirst). Always inlined for the same reason as
/// ApplyUnaryScalar.
[[gnu::always_inline]] inline double ApplyBinaryScalar(OpKind kind, double a,
                                                       double b, DType dtype) {
  bool integral = IsIntegral(dtype);
  switch (kind) {
    case OpKind::kAdd:
      return a + NanFromFirst(a, b);
    case OpKind::kSub:
      return a - NanFromFirst(a, b);
    case OpKind::kMul:
      return a * NanFromFirst(a, b);
    case OpKind::kDiv:
      if (integral) {
        return static_cast<double>(static_cast<int64_t>(a) /
                                   static_cast<int64_t>(b));
      }
      return a / NanFromFirst(a, b);
    case OpKind::kPow:
      return std::pow(a, b);
    case OpKind::kMaximum:
      return std::max(a, b);
    case OpKind::kMinimum:
      return std::min(a, b);
    case OpKind::kMod:
      if (integral) {
        return static_cast<double>(static_cast<int64_t>(a) %
                                   static_cast<int64_t>(b));
      }
      return std::fmod(a, b);
    case OpKind::kLess:
      return a < b ? 1.0 : 0.0;
    case OpKind::kLessEqual:
      return a <= b ? 1.0 : 0.0;
    case OpKind::kGreater:
      return a > b ? 1.0 : 0.0;
    case OpKind::kGreaterEqual:
      return a >= b ? 1.0 : 0.0;
    case OpKind::kEqual:
      return a == b ? 1.0 : 0.0;
    case OpKind::kNotEqual:
      return a != b ? 1.0 : 0.0;
    case OpKind::kAnd:
      return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case OpKind::kOr:
      return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
    default:
      DISC_UNREACHABLE(OpName(kind));
      return 0.0;
  }
}

}  // namespace disc

#endif  // DISC_IR_EVAL_H_
