#include "ir/eval.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <unordered_map>

#include "ir/type_inference.h"
#include "support/logging.h"
#include "support/string_util.h"

namespace disc {

namespace {

// Multi-dimensional index iteration over `dims`; returns false when done.
bool NextIndex(const std::vector<int64_t>& dims, std::vector<int64_t>* idx) {
  for (int64_t i = static_cast<int64_t>(dims.size()) - 1; i >= 0; --i) {
    if (++(*idx)[i] < dims[i]) return true;
    (*idx)[i] = 0;
  }
  return false;
}

int64_t LinearIndex(const std::vector<int64_t>& idx,
                    const std::vector<int64_t>& strides) {
  int64_t linear = 0;
  for (size_t i = 0; i < idx.size(); ++i) linear += idx[i] * strides[i];
  return linear;
}

// Maps an output index to an operand's linear index under numpy broadcast
// (right-aligned; operand dims of size 1 have stride 0).
int64_t BroadcastOperandIndex(const std::vector<int64_t>& out_idx,
                              const Tensor& operand) {
  const auto& dims = operand.dims();
  auto strides = operand.Strides();
  int64_t offset = static_cast<int64_t>(out_idx.size()) - operand.rank();
  int64_t linear = 0;
  for (int64_t i = 0; i < operand.rank(); ++i) {
    int64_t id = dims[i] == 1 ? 0 : out_idx[offset + i];
    linear += id * strides[i];
  }
  return linear;
}

Status InvalidOp(const Node& node, const std::string& msg) {
  return Status::InvalidArgument(std::string(OpName(node.kind())) + ": " +
                                 msg);
}

Result<Tensor> EvalElementwise(const Node& node,
                               const std::vector<Tensor>& inputs) {
  // Output dims from concrete broadcast.
  std::vector<int64_t> out_dims =
      inputs.empty() ? std::vector<int64_t>{} : inputs[0].dims();
  for (size_t i = 1; i < inputs.size(); ++i) {
    DISC_ASSIGN_OR_RETURN(out_dims, BroadcastDims(out_dims, inputs[i].dims()));
  }
  DType out_dtype;
  if (node.kind() == OpKind::kCast) {
    out_dtype = node.GetDTypeAttr("to");
  } else if (IsPredicateOp(node.kind())) {
    out_dtype = DType::kI1;
  } else if (node.kind() == OpKind::kSelect) {
    out_dtype = inputs[1].dtype();
  } else {
    out_dtype = inputs[0].dtype();
  }
  Tensor out(out_dtype, out_dims);
  if (out.num_elements() == 0) return out;
  const bool checked_division =
      (node.kind() == OpKind::kDiv || node.kind() == OpKind::kMod) &&
      IsIntegral(inputs[0].dtype());

  std::vector<int64_t> idx(out_dims.size(), 0);
  auto out_strides = out.Strides();
  do {
    int64_t out_linear = LinearIndex(idx, out_strides);
    if (node.kind() == OpKind::kSelect) {
      double pred = inputs[0].ElementAsDouble(
          BroadcastOperandIndex(idx, inputs[0]));
      const Tensor& chosen = pred != 0.0 ? inputs[1] : inputs[2];
      out.SetElementFromDouble(out_linear, chosen.ElementAsDouble(
                                               BroadcastOperandIndex(idx, chosen)));
    } else if (inputs.size() == 1) {
      double x =
          inputs[0].ElementAsDouble(BroadcastOperandIndex(idx, inputs[0]));
      out.SetElementFromDouble(out_linear, ApplyUnaryScalar(node.kind(), x));
    } else {
      double a =
          inputs[0].ElementAsDouble(BroadcastOperandIndex(idx, inputs[0]));
      double b =
          inputs[1].ElementAsDouble(BroadcastOperandIndex(idx, inputs[1]));
      if (checked_division && IntegralDivisionUndefined(a, b)) {
        return InvalidOp(node, "integer divisor is zero or the quotient "
                               "overflows");
      }
      out.SetElementFromDouble(
          out_linear, ApplyBinaryScalar(node.kind(), a, b, inputs[0].dtype()));
    }
  } while (NextIndex(out_dims, &idx));
  return out;
}

Result<Tensor> EvalReduce(const Node& node, const Tensor& in) {
  const auto& reduce_dims = node.GetIntListAttr("dims");
  bool keep = node.GetIntAttr("keep_dims", 0) != 0;
  std::vector<bool> reduced(in.rank(), false);
  for (int64_t d : reduce_dims) reduced[d] = true;

  std::vector<int64_t> out_dims;
  for (int64_t i = 0; i < in.rank(); ++i) {
    if (reduced[i]) {
      if (keep) out_dims.push_back(1);
    } else {
      out_dims.push_back(in.dims()[i]);
    }
  }
  Tensor out(in.dtype(), out_dims);
  auto out_strides = out.Strides();

  double init;
  switch (node.kind()) {
    case OpKind::kReduceSum:
    case OpKind::kReduceMean:
      init = 0.0;
      break;
    case OpKind::kReduceMax:
      init = -std::numeric_limits<double>::infinity();
      break;
    case OpKind::kReduceMin:
      init = std::numeric_limits<double>::infinity();
      break;
    default:
      return Status::Internal("not a reduction");
  }
  std::vector<double> acc(std::max<int64_t>(out.num_elements(), 1), init);

  int64_t reduce_count = 1;
  for (int64_t i = 0; i < in.rank(); ++i) {
    if (reduced[i]) reduce_count *= in.dims()[i];
  }

  if (in.num_elements() > 0) {
    std::vector<int64_t> idx(in.rank(), 0);
    do {
      // Output index: drop (or zero) reduced dims.
      std::vector<int64_t> out_idx;
      for (int64_t i = 0; i < in.rank(); ++i) {
        if (reduced[i]) {
          if (keep) out_idx.push_back(0);
        } else {
          out_idx.push_back(idx[i]);
        }
      }
      int64_t out_linear = LinearIndex(out_idx, out_strides);
      double v = in.ElementAsDouble(LinearIndex(idx, in.Strides()));
      switch (node.kind()) {
        case OpKind::kReduceSum:
        case OpKind::kReduceMean:
          acc[out_linear] += v;
          break;
        case OpKind::kReduceMax:
          acc[out_linear] = std::max(acc[out_linear], v);
          break;
        case OpKind::kReduceMin:
          acc[out_linear] = std::min(acc[out_linear], v);
          break;
        default:
          break;
      }
    } while (NextIndex(in.dims(), &idx));
  }
  for (int64_t i = 0; i < out.num_elements(); ++i) {
    double v = acc[i];
    if (node.kind() == OpKind::kReduceMean && reduce_count > 0) {
      v /= static_cast<double>(reduce_count);
    }
    out.SetElementFromDouble(i, v);
  }
  return out;
}

// Register-tiled contraction shared by MatMul and Conv2D (as an implicit
// GEMM over the filter viewed as [kh*kw*c, oc]).
//
// Numeric contract: every output is the sum, in double, of its products in
// increasing contraction order (k for MatMul; in-bounds (ky, kx, ci) for
// Conv2D), starting from +0.0, each product rounded before it is added (no
// fused multiply-add on the x86-64 baseline). Conv taps that fall in the
// padding are skipped, never multiplied by zero. Results are therefore bit
// for bit those of a per-output dot-product loop, which eval_test keeps as
// the oracle.
//
// AccumulateTile<Mr> keeps an Mr x 4 block of accumulators in SSE2-sized
// double vectors for the whole contraction, so any run-time extent is
// covered by 4 x 4 tiles plus Mr = 1 rows and clamped edge columns. `a` is
// packed [k][Mr] doubles; `load_b(kk, &lo, &hi)` yields the tile's four B
// values at step kk. The unroll pragmas are load-bearing: without them GCC
// -O2 keeps the tile on the stack and reloads it for every multiply.
using Double2 = double __attribute__((vector_size(16)));
constexpr int kTileRows = 4;
constexpr int64_t kTileCols = 4;

template <int Mr, typename LoadB>
inline void AccumulateTile(const double* a, int64_t k, const LoadB& load_b,
                           Double2 (&acc)[Mr][2]) {
  for (int64_t kk = 0; kk < k; ++kk, a += Mr) {
    Double2 b01, b23;
    load_b(kk, &b01, &b23);
#pragma GCC unroll kTileRows
    for (int r = 0; r < Mr; ++r) {
      const Double2 ar = {a[r], a[r]};
      acc[r][0] += ar * b01;
      acc[r][1] += ar * b23;
    }
  }
}

// Four adjacent columns of a row-major operand whose rows are `ld` apart.
template <typename T>
struct AdjacentColumns {
  const T* p;
  int64_t ld;
  void operator()(int64_t kk, Double2* lo, Double2* hi) const {
    const T* row = p + kk * ld;
    *lo = Double2{static_cast<double>(row[0]), static_cast<double>(row[1])};
    *hi = Double2{static_cast<double>(row[2]), static_cast<double>(row[3])};
  }
};

// Columns [j0, j0 + 4) of an operand whose column j starts at
// p + j * col_stride and advances by `step` per contraction step, read one
// lane at a time. Lanes past the last column (`cols - 1`) read that column
// instead, so no read leaves the operand; those lanes are computed and
// dropped.
template <typename T>
struct LaneColumns {
  LaneColumns(const T* p, int64_t col_stride, int64_t step, int64_t j0,
              int64_t cols)
      : step(step) {
    for (int64_t r = 0; r < kTileCols; ++r) {
      lane[r] = p + std::min(j0 + r, cols - 1) * col_stride;
    }
  }
  void operator()(int64_t kk, Double2* lo, Double2* hi) const {
    const int64_t at = kk * step;
    *lo = Double2{static_cast<double>(lane[0][at]),
                  static_cast<double>(lane[1][at])};
    *hi = Double2{static_cast<double>(lane[2][at]),
                  static_cast<double>(lane[3][at])};
  }
  const T* lane[kTileCols];
  int64_t step;
};

// Writes the first `cols` columns of a tile to rows `ldo` apart.
template <int Mr, typename T, typename Store>
inline void StoreTile(const Double2 (&acc)[Mr][2], T* out, int64_t ldo,
                      int64_t cols, Store store) {
#pragma GCC unroll kTileRows
  for (int r = 0; r < Mr; ++r) {
    const double lanes[kTileCols] = {acc[r][0][0], acc[r][0][1],
                                     acc[r][1][0], acc[r][1][1]};
    for (int64_t j = 0; j < cols; ++j) out[r * ldo + j] = store(lanes[j]);
  }
}

// Batched GEMM: rows in blocks of 4 (leftovers one at a time), columns in
// blocks of 4, A packed per row block as doubles and B read in place at its
// own dtype (with transpose_b, four B rows at a time). `store` rounds to the
// out dtype.
template <typename T, typename Store>
void MatMulBatches(const Tensor& a, const Tensor& b, const T* a_data,
                   const T* b_data, T* out, bool ta, bool tb, int64_t m,
                   int64_t n, int64_t k, const std::vector<int64_t>& batch,
                   Store store) {
  const int64_t lda = a.dims()[a.rank() - 1];
  const int64_t ldb = b.dims()[b.rank() - 1];
  const std::vector<int64_t> a_strides = a.Strides();
  const std::vector<int64_t> b_strides = b.Strides();
  // Base offset of one batch slice, broadcasting size-1 batch dims.
  auto batch_offset = [](const Tensor& t, const std::vector<int64_t>& strides,
                         const std::vector<int64_t>& batch_idx) {
    int64_t batch_rank = t.rank() - 2;
    int64_t align = static_cast<int64_t>(batch_idx.size()) - batch_rank;
    int64_t offset = 0;
    for (int64_t i = 0; i < batch_rank; ++i) {
      int64_t id = t.dims()[i] == 1 ? 0 : batch_idx[align + i];
      offset += id * strides[i];
    }
    return offset;
  };

  std::vector<double> packed_a(k * (m >= kTileRows ? kTileRows : 1));
  std::vector<int64_t> batch_idx(batch.size(), 0);
  const int64_t batch_count = Product(batch);
  for (int64_t bi = 0; bi < batch_count; ++bi) {
    const T* pa = a_data + batch_offset(a, a_strides, batch_idx);
    const T* pb = b_data + batch_offset(b, b_strides, batch_idx);
    T* po = out + bi * m * n;
    auto row_block = [&](auto rows, int64_t i0) {
      constexpr int Mr = decltype(rows)::value;
      for (int64_t kk = 0; kk < k; ++kk) {
        for (int r = 0; r < Mr; ++r) {
          packed_a[kk * Mr + r] = static_cast<double>(
              ta ? pa[kk * lda + i0 + r] : pa[(i0 + r) * lda + kk]);
        }
      }
      for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
        Double2 acc[Mr][2] = {};
        if (tb) {
          // Column j of B^T is row j of B.
          AccumulateTile(packed_a.data(), k,
                         LaneColumns<T>(pb, ldb, 1, j0, n), acc);
        } else if (j0 + kTileCols <= n) {
          AccumulateTile(packed_a.data(), k,
                         AdjacentColumns<T>{pb + j0, ldb}, acc);
        } else {
          AccumulateTile(packed_a.data(), k,
                         LaneColumns<T>(pb, 1, ldb, j0, n), acc);
        }
        StoreTile(acc, po + i0 * n + j0, n, std::min(kTileCols, n - j0),
                  store);
      }
    };
    int64_t i = 0;
    for (; i + kTileRows <= m; i += kTileRows) {
      row_block(std::integral_constant<int, kTileRows>(), i);
    }
    for (; i < m; ++i) row_block(std::integral_constant<int, 1>(), i);
    NextIndex(batch, &batch_idx);
  }
}

Result<Tensor> EvalMatMul(const Node& node, const Tensor& a, const Tensor& b) {
  bool ta = node.GetIntAttr("transpose_a", 0) != 0;
  bool tb = node.GetIntAttr("transpose_b", 0) != 0;
  int64_t ra = a.rank();
  int64_t rb = b.rank();
  if (ra < 2 || rb < 2) return InvalidOp(node, "rank < 2");
  if (a.dtype() != b.dtype()) return InvalidOp(node, "dtype mismatch");
  int64_t m = a.dims()[ra - (ta ? 1 : 2)];
  int64_t k = a.dims()[ra - (ta ? 2 : 1)];
  int64_t kb = b.dims()[rb - (tb ? 1 : 2)];
  int64_t n = b.dims()[rb - (tb ? 2 : 1)];
  if (k != kb) return InvalidOp(node, "contraction mismatch");

  std::vector<int64_t> batch_a(a.dims().begin(), a.dims().end() - 2);
  std::vector<int64_t> batch_b(b.dims().begin(), b.dims().end() - 2);
  DISC_ASSIGN_OR_RETURN(std::vector<int64_t> batch,
                        BroadcastDims(batch_a, batch_b));
  std::vector<int64_t> out_dims = batch;
  out_dims.push_back(m);
  out_dims.push_back(n);
  Tensor out(a.dtype(), out_dims);
  // With k == 0 every output is the empty sum, +0, as allocated.
  if (out.num_elements() == 0 || k == 0) return out;

  switch (out.dtype()) {
    case DType::kF32:
      MatMulBatches(a, b, a.f32_data(), b.f32_data(), out.f32_data(), ta, tb,
                    m, n, k, batch,
                    [](double v) { return static_cast<float>(v); });
      break;
    case DType::kI64:
      MatMulBatches(a, b, a.i64_data(), b.i64_data(), out.i64_data(), ta, tb,
                    m, n, k, batch,
                    [](double v) { return static_cast<int64_t>(v); });
      break;
    case DType::kI1:
      MatMulBatches(a, b, a.i64_data(), b.i64_data(), out.i64_data(), ta, tb,
                    m, n, k, batch,
                    [](double v) -> int64_t { return v != 0.0 ? 1 : 0; });
      break;
  }
  return out;
}

// NHWC convolution through AccumulateTile, with the filter as the B
// operand. Four adjacent output pixels whose kx taps are all in bounds share
// one call per 4 output channels over the in-bounds ky range, whose filter
// rows are contiguous. Other pixels go one at a time, with one call per
// in-bounds ky over the in-bounds kx range.
Result<Tensor> EvalConv2D(const Node& node, const Tensor& in,
                          const Tensor& filter) {
  // The type rule rejects what this loop cannot run (strides < 1, negative
  // padding, non-f32 operands, a channel mismatch, a window larger than the
  // padded input); the graph's dims may be dynamic, so check the operands.
  DISC_ASSIGN_OR_RETURN(
      std::vector<TensorType> types,
      InferOutputTypes(OpKind::kConv2D,
                       {TensorType(in.dtype(), in.dims()),
                        TensorType(filter.dtype(), filter.dims())},
                       node.attrs(), {}));
  Tensor out(DType::kF32, types[0].dims);
  const auto& strides = node.GetIntListAttr("strides");
  const auto& padding = node.GetIntListAttr("padding");
  const int64_t n = in.dims()[0], h = in.dims()[1], w = in.dims()[2],
                c = in.dims()[3];
  const int64_t kh = filter.dims()[0], kw = filter.dims()[1],
                oc = filter.dims()[3];
  const int64_t oh = out.dims()[1], ow = out.dims()[2];
  const int64_t sh = strides[0], sw = strides[1], ph = padding[0],
                pw = padding[1];
  const int64_t taps = kw * c;  // filter rows per ky
  // Empty sums are +0, as allocated.
  if (out.num_elements() == 0 || kh * taps == 0) return out;

  const float* src = in.f32_data();
  const float* flt = filter.f32_data();
  float* dst = out.f32_data();
  // Filter rows from `row` on, output channels [j0, j0 + 4).
  auto accumulate = [&](auto& acc, const double* a, int64_t row, int64_t j0,
                        int64_t rows) {
    const float* p = flt + row * oc;
    if (j0 + kTileCols <= oc) {
      AccumulateTile(a, rows, AdjacentColumns<float>{p + j0, oc}, acc);
    } else {
      AccumulateTile(a, rows, LaneColumns<float>(p, 1, oc, j0, oc), acc);
    }
  };
  auto store = [](double v) { return static_cast<float>(v); };
  // Output columns [x_lo, x_hi) have every kx tap in bounds.
  const int64_t x_lo = (pw + sw - 1) / sw;
  const int64_t x_hi =
      w + pw >= kw ? std::min(ow, (w + pw - kw) / sw + 1) : 0;
  std::vector<double> packed(kh * taps * kTileRows);
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t yo = 0; yo < oh; ++yo) {
      const int64_t y0 = yo * sh - ph;  // input row of ky = 0
      const int64_t ky0 = std::max<int64_t>(0, -y0);
      const int64_t ky1 = std::min(kh, h - y0);
      if (ky0 >= ky1) continue;
      const int64_t src_rows = (ni * h + y0) * w * c;  // may be < 0
      float* dst_row = dst + (ni * oh + yo) * ow * oc;
      for (int64_t xo = 0; xo < ow;) {
        if (xo >= x_lo && xo + kTileRows <= x_hi) {
          const int64_t x0 = xo * sw - pw;
          for (int64_t ky = ky0; ky < ky1; ++ky) {
            const float* taps_at = src + (src_rows + (ky * w + x0) * c);
            double* pk = &packed[(ky - ky0) * taps * kTileRows];
            for (int64_t t = 0; t < taps; ++t) {
              for (int r = 0; r < kTileRows; ++r) {
                pk[t * kTileRows + r] =
                    static_cast<double>(taps_at[r * sw * c + t]);
              }
            }
          }
          for (int64_t j0 = 0; j0 < oc; j0 += kTileCols) {
            Double2 acc[kTileRows][2] = {};
            accumulate(acc, packed.data(), ky0 * taps, j0,
                       (ky1 - ky0) * taps);
            StoreTile(acc, dst_row + xo * oc + j0, oc,
                      std::min(kTileCols, oc - j0), store);
          }
          xo += kTileRows;
          continue;
        }
        const int64_t x0 = xo * sw - pw;
        const int64_t kx0 = std::max<int64_t>(0, -x0);
        const int64_t kx1 = std::min(kw, w - x0);
        if (kx0 < kx1) {
          const int64_t len = (kx1 - kx0) * c;
          for (int64_t ky = ky0; ky < ky1; ++ky) {
            const float* taps_at =
                src + (src_rows + (ky * w + x0 + kx0) * c);
            std::copy(taps_at, taps_at + len, &packed[(ky - ky0) * len]);
          }
          for (int64_t j0 = 0; j0 < oc; j0 += kTileCols) {
            Double2 acc[1][2] = {};
            for (int64_t ky = ky0; ky < ky1; ++ky) {
              accumulate(acc, &packed[(ky - ky0) * len], ky * taps + kx0 * c,
                         j0, len);
            }
            StoreTile(acc, dst_row + xo * oc + j0, oc,
                      std::min(kTileCols, oc - j0), store);
          }
        }
        ++xo;
      }
    }
  }
  return out;
}

}  // namespace

Result<std::vector<Tensor>> EvaluateNode(const Node& node,
                                         const std::vector<Tensor>& inputs) {
  auto single = [](Tensor t) { return std::vector<Tensor>{std::move(t)}; };
  switch (node.kind()) {
    case OpKind::kConstant:
      return single(node.GetTensorAttr("value"));

    case OpKind::kIota: {
      std::vector<int64_t> dims;
      if (node.HasAttr("dims")) {
        dims = node.GetIntListAttr("dims");
      } else if (!inputs.empty()) {
        const Tensor& shape = inputs[0];
        dims.assign(shape.i64_data(), shape.i64_data() + shape.num_elements());
      }
      DType dt = node.HasAttr("dtype") ? node.GetDTypeAttr("dtype")
                                       : DType::kI64;
      int64_t axis = node.GetIntAttr("axis", 0);
      Tensor out(dt, dims);
      if (out.num_elements() > 0) {
        std::vector<int64_t> idx(dims.size(), 0);
        auto strides = out.Strides();
        do {
          out.SetElementFromDouble(LinearIndex(idx, strides),
                                   static_cast<double>(idx[axis]));
        } while (NextIndex(dims, &idx));
      }
      return single(std::move(out));
    }

    case OpKind::kReduceSum:
    case OpKind::kReduceMax:
    case OpKind::kReduceMin:
    case OpKind::kReduceMean: {
      DISC_ASSIGN_OR_RETURN(Tensor out, EvalReduce(node, inputs[0]));
      return single(std::move(out));
    }

    case OpKind::kMatMul: {
      DISC_ASSIGN_OR_RETURN(Tensor out,
                            EvalMatMul(node, inputs[0], inputs[1]));
      return single(std::move(out));
    }
    case OpKind::kConv2D: {
      DISC_ASSIGN_OR_RETURN(Tensor out,
                            EvalConv2D(node, inputs[0], inputs[1]));
      return single(std::move(out));
    }

    case OpKind::kTranspose: {
      const Tensor& in = inputs[0];
      const auto& perm = node.GetIntListAttr("perm");
      std::vector<int64_t> out_dims(in.rank());
      for (int64_t i = 0; i < in.rank(); ++i) out_dims[i] = in.dims()[perm[i]];
      Tensor out(in.dtype(), out_dims);
      if (out.num_elements() > 0) {
        std::vector<int64_t> idx(out_dims.size(), 0);
        auto out_strides = out.Strides();
        auto in_strides = in.Strides();
        do {
          int64_t in_linear = 0;
          for (int64_t i = 0; i < in.rank(); ++i) {
            in_linear += idx[i] * in_strides[perm[i]];
          }
          out.SetElementFromDouble(LinearIndex(idx, out_strides),
                                   in.ElementAsDouble(in_linear));
        } while (NextIndex(out_dims, &idx));
      }
      return single(std::move(out));
    }

    case OpKind::kReshape: {
      const Tensor& in = inputs[0];
      std::vector<int64_t> target;
      if (node.HasAttr("new_shape")) {
        target = node.GetIntListAttr("new_shape");
      } else {
        const Tensor& shape = inputs[1];
        target.assign(shape.i64_data(),
                      shape.i64_data() + shape.num_elements());
      }
      int64_t known = 1;
      int wildcard = -1;
      for (size_t i = 0; i < target.size(); ++i) {
        if (target[i] == -1) {
          wildcard = static_cast<int>(i);
        } else {
          known *= target[i];
        }
      }
      if (wildcard >= 0) {
        if (known == 0 || in.num_elements() % known != 0) {
          return InvalidOp(node, "cannot infer wildcard");
        }
        target[wildcard] = in.num_elements() / known;
      }
      if (Product(target) != in.num_elements()) {
        return InvalidOp(node,
                         StrFormat("element count mismatch: %lld -> %lld",
                                   static_cast<long long>(in.num_elements()),
                                   static_cast<long long>(Product(target))));
      }
      // Rebuild with new dims (same row-major data order).
      Tensor reshaped(in.dtype(), target);
      for (int64_t i = 0; i < in.num_elements(); ++i) {
        reshaped.SetElementFromDouble(i, in.ElementAsDouble(i));
      }
      return single(std::move(reshaped));
    }

    case OpKind::kBroadcastTo: {
      const Tensor& in = inputs[0];
      std::vector<int64_t> target;
      if (node.HasAttr("new_shape")) {
        target = node.GetIntListAttr("new_shape");
        // -1 entries inherit the aligned input dim.
        int64_t offset = static_cast<int64_t>(target.size()) - in.rank();
        for (size_t i = 0; i < target.size(); ++i) {
          if (target[i] == -1) {
            int64_t in_idx = static_cast<int64_t>(i) - offset;
            if (in_idx < 0) return InvalidOp(node, "unresolvable -1");
            target[i] = in.dims()[in_idx];
          }
        }
      } else {
        const Tensor& shape = inputs[1];
        target.assign(shape.i64_data(),
                      shape.i64_data() + shape.num_elements());
      }
      Tensor out(in.dtype(), target);
      if (out.num_elements() > 0) {
        std::vector<int64_t> idx(target.size(), 0);
        auto strides = out.Strides();
        do {
          out.SetElementFromDouble(
              LinearIndex(idx, strides),
              in.ElementAsDouble(BroadcastOperandIndex(idx, in)));
        } while (NextIndex(target, &idx));
      }
      return single(std::move(out));
    }

    case OpKind::kConcat: {
      int64_t axis = node.GetIntAttr("axis", 0);
      std::vector<int64_t> out_dims = inputs[0].dims();
      for (size_t i = 1; i < inputs.size(); ++i) {
        out_dims[axis] += inputs[i].dims()[axis];
      }
      Tensor out(inputs[0].dtype(), out_dims);
      int64_t axis_offset = 0;
      for (const Tensor& in : inputs) {
        if (in.num_elements() == 0) {
          axis_offset += in.dims()[axis];
          continue;
        }
        std::vector<int64_t> idx(in.rank(), 0);
        auto in_strides = in.Strides();
        auto out_strides = out.Strides();
        do {
          std::vector<int64_t> out_idx = idx;
          out_idx[axis] += axis_offset;
          out.SetElementFromDouble(LinearIndex(out_idx, out_strides),
                                   in.ElementAsDouble(LinearIndex(idx, in_strides)));
        } while (NextIndex(in.dims(), &idx));
        axis_offset += in.dims()[axis];
      }
      return single(std::move(out));
    }

    case OpKind::kSlice: {
      const Tensor& in = inputs[0];
      const auto& starts = node.GetIntListAttr("starts");
      auto ends = node.GetIntListAttr("ends");
      const auto& steps = node.GetIntListAttr("steps");
      std::vector<int64_t> out_dims(in.rank());
      for (int64_t i = 0; i < in.rank(); ++i) {
        if (ends[i] == -1) ends[i] = in.dims()[i];
        out_dims[i] = (ends[i] - starts[i] + steps[i] - 1) / steps[i];
        if (out_dims[i] < 0 || starts[i] < 0 || ends[i] > in.dims()[i]) {
          return InvalidOp(node, "slice out of bounds");
        }
      }
      Tensor out(in.dtype(), out_dims);
      if (out.num_elements() > 0) {
        std::vector<int64_t> idx(out_dims.size(), 0);
        auto out_strides = out.Strides();
        auto in_strides = in.Strides();
        do {
          int64_t in_linear = 0;
          for (int64_t i = 0; i < in.rank(); ++i) {
            in_linear += (starts[i] + idx[i] * steps[i]) * in_strides[i];
          }
          out.SetElementFromDouble(LinearIndex(idx, out_strides),
                                   in.ElementAsDouble(in_linear));
        } while (NextIndex(out_dims, &idx));
      }
      return single(std::move(out));
    }

    case OpKind::kGather: {
      const Tensor& data = inputs[0];
      const Tensor& indices = inputs[1];
      int64_t axis = node.GetIntAttr("axis", 0);
      std::vector<int64_t> out_dims;
      for (int64_t i = 0; i < axis; ++i) out_dims.push_back(data.dims()[i]);
      for (int64_t d : indices.dims()) out_dims.push_back(d);
      for (int64_t i = axis + 1; i < data.rank(); ++i) {
        out_dims.push_back(data.dims()[i]);
      }
      Tensor out(data.dtype(), out_dims);
      if (out.num_elements() > 0) {
        std::vector<int64_t> idx(out_dims.size(), 0);
        auto out_strides = out.Strides();
        auto data_strides = data.Strides();
        auto index_strides = indices.Strides();
        do {
          // Split out index into (prefix, index-part, suffix).
          int64_t index_linear = 0;
          for (int64_t i = 0; i < indices.rank(); ++i) {
            index_linear += idx[axis + i] * index_strides[i];
          }
          int64_t gathered = indices.i64_data()[index_linear];
          if (gathered < 0 || gathered >= data.dims()[axis]) {
            return InvalidOp(node, "index out of bounds");
          }
          int64_t data_linear = 0;
          for (int64_t i = 0; i < axis; ++i) {
            data_linear += idx[i] * data_strides[i];
          }
          data_linear += gathered * data_strides[axis];
          for (int64_t i = axis + 1; i < data.rank(); ++i) {
            data_linear += idx[indices.rank() + i - 1] * data_strides[i];
          }
          out.SetElementFromDouble(LinearIndex(idx, out_strides),
                                   data.ElementAsDouble(data_linear));
        } while (NextIndex(out_dims, &idx));
      }
      return single(std::move(out));
    }

    case OpKind::kPad: {
      const Tensor& in = inputs[0];
      const auto& low = node.GetIntListAttr("pads_low");
      const auto& high = node.GetIntListAttr("pads_high");
      double pad_value = node.GetFloatAttr("pad_value", 0.0);
      std::vector<int64_t> out_dims(in.rank());
      for (int64_t i = 0; i < in.rank(); ++i) {
        out_dims[i] = in.dims()[i] + low[i] + high[i];
      }
      Tensor out(in.dtype(), out_dims);
      for (int64_t i = 0; i < out.num_elements(); ++i) {
        out.SetElementFromDouble(i, pad_value);
      }
      if (in.num_elements() > 0) {
        std::vector<int64_t> idx(in.rank(), 0);
        auto in_strides = in.Strides();
        auto out_strides = out.Strides();
        do {
          std::vector<int64_t> out_idx(idx.size());
          for (size_t i = 0; i < idx.size(); ++i) out_idx[i] = idx[i] + low[i];
          out.SetElementFromDouble(
              LinearIndex(out_idx, out_strides),
              in.ElementAsDouble(LinearIndex(idx, in_strides)));
        } while (NextIndex(in.dims(), &idx));
      }
      return single(std::move(out));
    }

    case OpKind::kShapeOf: {
      const Tensor& in = inputs[0];
      std::vector<int64_t> dims = in.dims();
      return single(Tensor::I64({in.rank()}, std::move(dims)));
    }
    case OpKind::kDim: {
      int64_t index = node.GetIntAttr("index", 0);
      return single(Tensor::ScalarI64(inputs[0].dims()[index]));
    }

    default:
      break;
  }
  if (GetOpInfo(node.kind()).op_class == OpClass::kElementwise) {
    DISC_ASSIGN_OR_RETURN(Tensor out, EvalElementwise(node, inputs));
    return single(std::move(out));
  }
  return Status::Unimplemented(std::string("eval for ") +
                               OpName(node.kind()));
}

Result<std::vector<Tensor>> EvaluateGraph(const Graph& graph,
                                          const std::vector<Tensor>& inputs) {
  if (inputs.size() != graph.inputs().size()) {
    return Status::InvalidArgument(
        StrFormat("expected %zu inputs, got %zu", graph.inputs().size(),
                  inputs.size()));
  }
  std::unordered_map<const Value*, Tensor> env;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Value* input = graph.inputs()[i];
    if (input->rank() != inputs[i].rank()) {
      return Status::InvalidArgument(
          StrFormat("input %zu: rank mismatch", i));
    }
    for (int64_t d = 0; d < input->rank(); ++d) {
      int64_t declared = input->type().dims[d];
      if (declared != kDynamicDim && declared != inputs[i].dims()[d]) {
        return Status::InvalidArgument(
            StrFormat("input %zu dim %lld: expected %lld, got %lld", i,
                      static_cast<long long>(d),
                      static_cast<long long>(declared),
                      static_cast<long long>(inputs[i].dims()[d])));
      }
    }
    env.emplace(input, inputs[i]);
  }
  for (const Node* node : graph.TopologicalOrder()) {
    std::vector<Tensor> operand_values;
    operand_values.reserve(node->operands().size());
    for (const Value* operand : node->operands()) {
      auto it = env.find(operand);
      DISC_CHECK(it != env.end());
      operand_values.push_back(it->second);
    }
    DISC_ASSIGN_OR_RETURN(std::vector<Tensor> results,
                          EvaluateNode(*node, operand_values));
    for (size_t i = 0; i < results.size(); ++i) {
      env.emplace(node->output(static_cast<int>(i)), std::move(results[i]));
    }
  }
  std::vector<Tensor> outputs;
  outputs.reserve(graph.outputs().size());
  for (const Value* out : graph.outputs()) {
    auto it = env.find(out);
    DISC_CHECK(it != env.end());
    outputs.push_back(it->second);
  }
  return outputs;
}

}  // namespace disc
