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

// A MatMul or Conv2D: the resolved call on the operands' buffers, with a
// pack of the size it reports.
Result<Tensor> EvalContraction(const Node& node, const Tensor& lhs,
                               const Tensor& rhs) {
  DISC_ASSIGN_OR_RETURN(ContractionCall call,
                        ResolveContraction(node, lhs.dtype(), lhs.dims(),
                                           rhs.dtype(), rhs.dims()));
  Tensor out(call.dtype, call.out_dims);
  std::vector<double> pack((call.pack_bytes + 7) / 8);
  RunContraction(call, lhs.raw_data(), rhs.raw_data(), out.raw_data(),
                 reinterpret_cast<std::byte*>(pack.data()));
  return out;
}

}  // namespace

Result<ContractionCall> ResolveContraction(const Node& node, DType lhs_dtype,
                                           const std::vector<int64_t>& lhs,
                                           DType rhs_dtype,
                                           const std::vector<int64_t>& rhs) {
  ContractionCall call;
  call.kind = node.kind();
  call.dtype = lhs_dtype;
  if (node.kind() == OpKind::kMatMul) {
    if (lhs_dtype != rhs_dtype) return InvalidOp(node, "dtype mismatch");
    const bool ta = node.GetIntAttr("transpose_a", 0) != 0;
    const bool tb = node.GetIntAttr("transpose_b", 0) != 0;
    Result<MatMulDims> dims = MatMulDimsOf(lhs, rhs, ta, tb);
    if (!dims.ok()) return InvalidOp(node, dims.status().message());
    call.matmul = std::move(*dims);
    call.out_dims = call.matmul.batch;
    call.out_dims.push_back(call.matmul.m);
    call.out_dims.push_back(call.matmul.n);
    call.isa = SelectContraction(lhs_dtype, call.matmul.m, tb);
    call.pack_bytes = MatMulPackBytes(call.isa, lhs_dtype, call.matmul);
    return call;
  }
  if (node.kind() != OpKind::kConv2D) {
    return InvalidOp(node, "not a contraction");
  }
  // The type rule rejects what the kernels cannot run (strides < 1,
  // negative padding, non-f32 operands, a channel mismatch, a window larger
  // than the padded input); the graph's dims may be dynamic, so check the
  // operands.
  DISC_ASSIGN_OR_RETURN(
      std::vector<TensorType> types,
      InferOutputTypes(OpKind::kConv2D,
                       {TensorType(lhs_dtype, lhs), TensorType(rhs_dtype, rhs)},
                       node.attrs(), {}));
  const auto& strides = node.GetIntListAttr("strides");
  const auto& padding = node.GetIntListAttr("padding");
  Conv2DDims& dims = call.conv;
  dims.n = lhs[0];
  dims.h = lhs[1];
  dims.w = lhs[2];
  dims.c = lhs[3];
  dims.kh = rhs[0];
  dims.kw = rhs[1];
  dims.oc = rhs[3];
  dims.sh = strides[0];
  dims.sw = strides[1];
  dims.ph = padding[0];
  dims.pw = padding[1];
  call.out_dims = types[0].dims;
  // Conv2D's implicit GEMM reads its B operand, the filter, in place, so
  // its row count does not enter the choice.
  call.isa = SelectContraction(DType::kF32, /*m=*/0, /*transpose_b=*/false);
  call.pack_bytes = Conv2DPackBytes(call.isa, dims);
  return call;
}

void RunContraction(const ContractionCall& call, const void* lhs,
                    const void* rhs, void* out, std::byte* pack) {
  if (Product(call.out_dims) == 0) return;
  if (call.kind == OpKind::kConv2D) {
    Conv2DF32(call.isa, call.conv, static_cast<const float*>(lhs),
              static_cast<const float*>(rhs), static_cast<float*>(out), pack);
  } else if (call.dtype == DType::kF32) {
    MatMulF32(call.isa, call.matmul, static_cast<const float*>(lhs),
              static_cast<const float*>(rhs), static_cast<float*>(out), pack);
  } else {
    MatMulI64(call.matmul, call.dtype, static_cast<const int64_t*>(lhs),
              static_cast<const int64_t*>(rhs), static_cast<int64_t*>(out),
              pack);
  }
}

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

    case OpKind::kMatMul:
    case OpKind::kConv2D: {
      DISC_ASSIGN_OR_RETURN(Tensor out,
                            EvalContraction(node, inputs[0], inputs[1]));
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
