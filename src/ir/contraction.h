// Contraction kernels: the register-tiled loops behind MatMul and Conv2D
// (as an implicit GEMM over the filter viewed as [kh*kw*c, oc]), in one
// variant per x86-64 ISA level.
//
// Numeric contract, the same for every variant: each output is a sum in
// double, starting from +0.0, of its products in increasing contraction
// order (k for MatMul; the in-bounds (ky, kx, ci) for Conv2D, whose taps that
// fall in the padding are skipped, never multiplied by zero), rounded once to
// the output dtype. Every variant is therefore bit for bit a per-output
// dot-product loop, which eval_test keeps as the oracle.
//
// Variants (ContractionIsa):
//   generic  4 x 4 tiles of SSE2 double pairs, compiled for the x86-64
//            baseline, so each product rounds before it is added. Runs every
//            dtype, and is the only variant built for other targets.
//   avx2     6 x 8 tiles of AVX2 double quads with FMA (needs avx2 and fma).
//   avx512   8 x 16 tiles of AVX-512 double octets with FMA (needs avx512f,
//            and avx512vl for the masked 256-bit edge loads and stores).
// The FMA variants take f32 operands only. An f32 x f32 product is exact in
// double, so a fused multiply-add rounds exactly as a multiply followed by
// an add. An i64 product is not exact in double, so integer operands never
// reach a function compiled with FMA enabled: GCC contracts a * b + c into
// one FMA there, even under ISO -std=c++20.
//
// Every variant is one instantiation of the same tile template and of one
// driver per op; only the load-and-widen, broadcast, multiply-add,
// narrow-and-store and edge-mask primitives differ. Tiles fill the register
// file (8 of 16 xmm, 12 of 16 ymm, 16 of 32 zmm hold accumulators). Column
// remainders use masked loads and stores (the generic variant clamps its
// lanes to the last column), so no read or write leaves an operand; row
// remainders use tiles of fewer rows. Each AVX entry point ends with an
// explicit vzeroupper: GCC does not emit one on every exit, and a dirty
// upper register state makes all later legacy-SSE code (the fused kernels'
// scalar loops) several times slower without changing any output. The
// elementwise row kernels (kernel/elementwise.cc) use the same ISA
// detection and end the same way.
#ifndef DISC_IR_CONTRACTION_H_
#define DISC_IR_CONTRACTION_H_

#include <cstdint>
#include <vector>

#include "ir/dtype.h"
#include "support/status.h"

namespace disc {

enum class ContractionIsa : uint8_t { kGeneric, kAvx2, kAvx512 };

inline constexpr ContractionIsa kContractionIsas[] = {
    ContractionIsa::kGeneric, ContractionIsa::kAvx2, ContractionIsa::kAvx512};

/// \brief "generic", "avx2" or "avx512".
const char* ContractionIsaName(ContractionIsa isa);

/// \brief Whether this CPU runs `isa`; detected once per process.
bool HostSupports(ContractionIsa isa);

/// \brief The widest variant this CPU runs.
ContractionIsa HostIsa();

/// \brief The variant a contraction with `m` output rows runs: generic for
/// i64 and i1 operands, and for transpose_b with m < 4, where the generic
/// variant reads B^T in place and packing it would cost as much as the
/// product; HostIsa() otherwise.
ContractionIsa SelectContraction(DType dtype, int64_t m, bool transpose_b);

/// \brief A (batched) MatMul over dense row-major operands: output slice s
/// is the dense [m, n] product op(A_s) x op(B_s), where A_s is [m, k]
/// (stored [k, m] with transpose_a) and B_s is [k, n] (stored [n, k] with
/// transpose_b).
struct MatMulDims {
  int64_t m = 0, n = 0, k = 0;
  bool transpose_a = false, transpose_b = false;
  /// Output batch dims, and along each the element stride between slices
  /// of A and of B (0 where that operand broadcasts). Empty for one slice.
  std::vector<int64_t> batch, a_batch_strides, b_batch_strides;
};

/// \brief The MatMul of operands with dims `a` and `b` (rank >= 2; batch
/// dims broadcast numpy-style); fails when the dims do not contract.
Result<MatMulDims> MatMulDimsOf(const std::vector<int64_t>& a,
                                const std::vector<int64_t>& b, bool ta,
                                bool tb);

/// \brief f32 MatMul on variant `isa`, which the host must support.
/// Writes every output.
void MatMulF32(ContractionIsa isa, const MatMulDims& dims, const float* a,
               const float* b, float* out);

/// \brief i64 or i1 (`dtype`) MatMul, on the generic variant. i1 outputs
/// are 1 where the sum is nonzero.
void MatMulI64(const MatMulDims& dims, DType dtype, const int64_t* a,
               const int64_t* b, int64_t* out);

/// \brief An NHWC Conv2D with an HWIO filter [kh, kw, c, oc] and symmetric
/// padding: output [n, oh, ow, oc] with oh = (h + 2 ph - kh) / sh + 1 and
/// ow likewise.
struct Conv2DDims {
  int64_t n = 0, h = 0, w = 0, c = 0;
  int64_t kh = 0, kw = 0, oc = 0;
  int64_t sh = 1, sw = 1, ph = 0, pw = 0;
};

/// \brief Conv2D on variant `isa`, which the host must support. Writes every
/// output.
void Conv2DF32(ContractionIsa isa, const Conv2DDims& dims, const float* in,
               const float* filter, float* out);

}  // namespace disc

#endif  // DISC_IR_CONTRACTION_H_
