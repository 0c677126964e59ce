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
//   generic  SSE2 double pairs, compiled for the x86-64 baseline, so each
//            product rounds before it is added. Runs every dtype, and is the
//            only variant built for other targets.
//   avx2     AVX2 double quads with FMA (needs avx2 and fma).
//   avx512   AVX-512 double octets with FMA (needs avx512f, and avx512vl for
//            the masked 256-bit edge loads and stores).
// The FMA variants take f32 operands only. An f32 x f32 product is exact in
// double, so a fused multiply-add rounds exactly as a multiply followed by
// an add. An i64 product is not exact in double, so integer operands never
// reach a function compiled with FMA enabled: GCC contracts a * b + c into
// one FMA there, even under ISO -std=c++20.
//
// Every variant is one instantiation of the same tile template and of one
// driver per op; only the load-and-widen, broadcast, multiply-add,
// narrow-and-store and edge-mask primitives and the tile table differ.
//
// Tiles. A tile is R output rows x V Vecs of columns, one accumulator per
// (row, Vec), so its R x V sums advance as independent FMA chains; one
// output's sum never spans two accumulators, which would change its order.
// Rows go in blocks of the variant's full height, then one block of the rows
// left; the tile table gives V for each R (R x V accumulators in brackets):
//   R        1       2       3       4       5       6       7       8
//   generic  2 (2)   2 (4)   2 (6)   2 (8)
//   avx2     4 (4)   4 (8)   3 (9)   2 (8)   2 (10)  2 (12)
//   avx512   8 (8)   8 (16)  5 (15)  4 (16)  3 (15)  3 (18)  3 (21)  3 (24)
// Columns go in tiles of V Vecs, then one edge tile of as many Vecs as the
// columns left need, whose last Vec is masked. Short tiles are wide so that
// a 1- to 4-row product still keeps several FMAs in flight; every R x V keeps
// the accumulators, the V B vectors and one broadcast inside the register
// file (16 xmm, 16 ymm, 32 zmm). The widths were picked by timing every
// suite contraction shape (EXPERIMENTS.md).
//
// Packing. Each block's A rows are widened to double once, as R rows of k
// doubles, and every column tile of the block reuses them. Non-transposed A
// rows, and Conv2D's taps (a pixel's taps at one ky are contiguous in NHWC),
// are contiguous, so the pack is whole-Vec loads, one conversion and one
// store per Vec, then the last k mod kLanes elements one by one (a wide tail
// store would overlap the next row's, and loads from overlapping stores
// stall), with no per-element branch. Transposed A, and B^T for the FMA
// variants, are packed by one
// transpose loop that reads eight source rows at a time. B stays f32 and is
// widened in registers on every load, one instruction per Vec
// (vcvtps2pd from memory; for AVX-512 through _mm512_maskz_cvtps_pd with
// every lane set, which GCC 12 emits as one instruction where
// __builtin_convertvector emits four, and which avoids the
// -Wmaybe-uninitialized warning of _mm512_cvtps_pd). A double B panel would
// double the bytes each tile streams, and an m = 1 product never repays its
// conversions. The packs live in space the caller supplies, sized by
// MatMulPackBytes / Conv2DPackBytes, so a call allocates nothing: the
// runtime hands every library step the same scratch region of its Run's
// arena, and EvaluateNode a vector of the reported size.
//
// Edges. Column remainders use masked loads and stores (the generic variant
// clamps its lanes to the last column), and packs read only the operand's
// own elements, so no read or write leaves an operand. Each AVX entry point
// ends with an explicit vzeroupper: GCC does not emit one on every exit, and
// a dirty upper register state makes all later legacy-SSE code (the fused
// kernels' scalar loops) several times slower without changing any output.
// The elementwise row kernels (kernel/elementwise.cc) use the same ISA
// detection and end the same way.
#ifndef DISC_IR_CONTRACTION_H_
#define DISC_IR_CONTRACTION_H_

#include <cstddef>
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
/// i64 and i1 operands, and for transpose_b with m < 2, where the generic
/// variant reads B^T in place and packing it costs about as much as the
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

/// \brief The pack space, in bytes, a MatMul of `dtype` operands with
/// `dims` needs on variant `isa`: the caller supplies it (8-byte aligned),
/// and the kernel keeps nothing in it between calls. i64 and i1 run the
/// generic variant whatever `isa` says.
int64_t MatMulPackBytes(ContractionIsa isa, DType dtype,
                        const MatMulDims& dims);

/// \brief f32 MatMul on variant `isa`, which the host must support, with
/// MatMulPackBytes(isa, f32, dims) bytes of pack space at `pack`. Writes
/// every output.
void MatMulF32(ContractionIsa isa, const MatMulDims& dims, const float* a,
               const float* b, float* out, std::byte* pack);

/// \brief i64 or i1 (`dtype`) MatMul, on the generic variant, with
/// MatMulPackBytes(generic, dtype, dims) bytes of pack space. i1 outputs
/// are 1 where the sum is nonzero.
void MatMulI64(const MatMulDims& dims, DType dtype, const int64_t* a,
               const int64_t* b, int64_t* out, std::byte* pack);

/// \brief An NHWC Conv2D with an HWIO filter [kh, kw, c, oc] and symmetric
/// padding: output [n, oh, ow, oc] with oh = (h + 2 ph - kh) / sh + 1 and
/// ow likewise.
struct Conv2DDims {
  int64_t n = 0, h = 0, w = 0, c = 0;
  int64_t kh = 0, kw = 0, oc = 0;
  int64_t sh = 1, sw = 1, ph = 0, pw = 0;
};

/// \brief The pack space, in bytes, a Conv2D with `dims` needs on variant
/// `isa` (8-byte aligned, caller-supplied, as for MatMul).
int64_t Conv2DPackBytes(ContractionIsa isa, const Conv2DDims& dims);

/// \brief Conv2D on variant `isa`, which the host must support, with
/// Conv2DPackBytes(isa, dims) bytes of pack space. Writes every output.
void Conv2DF32(ContractionIsa isa, const Conv2DDims& dims, const float* in,
               const float* filter, float* out, std::byte* pack);

}  // namespace disc

#endif  // DISC_IR_CONTRACTION_H_
