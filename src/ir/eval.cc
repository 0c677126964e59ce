#include "ir/eval.h"

#include <algorithm>
#include <cmath>
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

// Batched GEMM in i-k-j order. Per batch and output row i, a double row
// accumulates A[i, kk] * B[kk, :] for kk = 0..K-1, reading B and writing C
// with unit stride; with transpose_b, B^T is packed once per distinct batch
// slice so that read stays contiguous. Every output still sums its K
// products in increasing kk starting from 0.0, so the result is exactly
// that of a per-element dot-product loop. `store` rounds to the out dtype.
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

  std::vector<double> acc(n);
  std::vector<T> packed;  // B^T of one batch slice, as [k, n]
  int64_t packed_offset = -1;
  std::vector<int64_t> batch_idx(batch.size(), 0);
  const int64_t batch_count = Product(batch);
  for (int64_t bi = 0; bi < batch_count; ++bi) {
    const T* pa = a_data + batch_offset(a, a_strides, batch_idx);
    const int64_t ob = batch_offset(b, b_strides, batch_idx);
    const T* pb = b_data + ob;
    int64_t b_row_stride = ldb;
    if (tb) {
      if (ob != packed_offset) {
        packed.resize(k * n);
        for (int64_t j = 0; j < n; ++j) {
          for (int64_t kk = 0; kk < k; ++kk) {
            packed[kk * n + j] = pb[j * ldb + kk];
          }
        }
        packed_offset = ob;
      }
      pb = packed.data();
      b_row_stride = n;
    }
    T* po = out + bi * m * n;
    for (int64_t i = 0; i < m; ++i) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (int64_t kk = 0; kk < k; ++kk) {
        const double aik =
            static_cast<double>(ta ? pa[kk * lda + i] : pa[i * lda + kk]);
        const T* brow = pb + kk * b_row_stride;
        for (int64_t j = 0; j < n; ++j) {
          acc[j] += aik * static_cast<double>(brow[j]);
        }
      }
      for (int64_t j = 0; j < n; ++j) po[i * n + j] = store(acc[j]);
    }
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
  if (out.num_elements() == 0) return out;

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

// NHWC convolution. Per output pixel, a double row over the output
// channels accumulates input(ky, kx, ci) * filter[ky, kx, ci, :], reading
// the filter with unit stride. Each output channel still sums its in-bounds
// taps in (ky, kx, ci) order starting from 0.0, exactly as a per-channel
// loop would.
Result<Tensor> EvalConv2D(const Node& node, const Tensor& in,
                          const Tensor& filter) {
  const auto& strides = node.GetIntListAttr("strides");
  const auto& padding = node.GetIntListAttr("padding");
  if (in.rank() != 4 || filter.rank() != 4) return InvalidOp(node, "rank");
  int64_t n = in.dims()[0], h = in.dims()[1], w = in.dims()[2],
          c = in.dims()[3];
  int64_t kh = filter.dims()[0], kw = filter.dims()[1],
          fc = filter.dims()[2], oc = filter.dims()[3];
  if (c != fc) return InvalidOp(node, "channel mismatch");
  int64_t sh = strides[0], sw = strides[1], ph = padding[0], pw = padding[1];
  int64_t oh = (h + 2 * ph - kh) / sh + 1;
  int64_t ow = (w + 2 * pw - kw) / sw + 1;
  Tensor out(in.dtype(), {n, oh, ow, oc});
  const float* src = in.f32_data();
  const float* flt = filter.f32_data();
  float* dst = out.f32_data();
  std::vector<double> acc(oc);
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t yo = 0; yo < oh; ++yo) {
      for (int64_t xo = 0; xo < ow; ++xo) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (int64_t ky = 0; ky < kh; ++ky) {
          int64_t yi = yo * sh - ph + ky;
          if (yi < 0 || yi >= h) continue;
          for (int64_t kx = 0; kx < kw; ++kx) {
            int64_t xi = xo * sw - pw + kx;
            if (xi < 0 || xi >= w) continue;
            const float* pixel = src + ((ni * h + yi) * w + xi) * c;
            const float* taps = flt + (ky * kw + kx) * c * oc;
            for (int64_t ci = 0; ci < c; ++ci) {
              const double v = static_cast<double>(pixel[ci]);
              const float* row = taps + ci * oc;
              for (int64_t co = 0; co < oc; ++co) {
                acc[co] += v * static_cast<double>(row[co]);
              }
            }
          }
        }
        float* px = dst + ((ni * oh + yo) * ow + xo) * oc;
        for (int64_t co = 0; co < oc; ++co) {
          px[co] = static_cast<float>(acc[co]);
        }
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
