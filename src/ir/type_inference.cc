#include "ir/type_inference.h"

#include <algorithm>

#include "support/string_util.h"

namespace disc {

namespace {

Status Invalid(OpKind kind, const std::string& msg) {
  return Status::InvalidArgument(std::string(OpName(kind)) + ": " + msg);
}

// Resolves the target shape of reshape/broadcast_to: either the "new_shape"
// attribute or a 1-D i64 shape operand (whose value may be a constant).
Result<std::vector<int64_t>> ResolveTargetShape(
    OpKind kind, const std::vector<TensorType>& operand_types,
    const AttrMap& attrs, const std::vector<const Tensor*>& operand_constants) {
  if (auto it = attrs.find("new_shape"); it != attrs.end()) {
    return it->second.AsIntList();
  }
  if (operand_types.size() < 2) {
    return Invalid(kind, "needs 'new_shape' attr or a shape operand");
  }
  const TensorType& shape_type = operand_types[1];
  if (shape_type.dtype != DType::kI64 || shape_type.rank() != 1) {
    return Invalid(kind, "shape operand must be 1-D i64");
  }
  if (operand_constants.size() > 1 && operand_constants[1] != nullptr) {
    const Tensor& t = *operand_constants[1];
    std::vector<int64_t> dims(t.i64_data(), t.i64_data() + t.num_elements());
    return dims;
  }
  if (shape_type.dims[0] == kDynamicDim) {
    return Invalid(kind, "shape operand length (output rank) must be static");
  }
  // Rank known, dims unknown.
  return std::vector<int64_t>(shape_type.dims[0], kDynamicDim);
}

}  // namespace

Result<std::vector<int64_t>> BroadcastDims(const std::vector<int64_t>& a,
                                           const std::vector<int64_t>& b) {
  size_t rank = std::max(a.size(), b.size());
  std::vector<int64_t> out(rank);
  for (size_t i = 0; i < rank; ++i) {
    // Right-aligned; missing dims act as 1.
    int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    if (da == 1) {
      out[i] = db;
    } else if (db == 1) {
      out[i] = da;
    } else if (da == kDynamicDim) {
      out[i] = db == kDynamicDim ? kDynamicDim : db;
    } else if (db == kDynamicDim) {
      out[i] = da;
    } else if (da == db) {
      out[i] = da;
    } else {
      return Status::InvalidArgument(
          StrFormat("broadcast mismatch: %lld vs %lld at dim %zu",
                    static_cast<long long>(da), static_cast<long long>(db), i));
    }
  }
  return out;
}

Result<std::vector<TensorType>> InferOutputTypes(
    OpKind kind, const std::vector<TensorType>& operand_types,
    const AttrMap& attrs,
    const std::vector<const Tensor*>& operand_constants) {
  auto types = [](TensorType t) {
    return std::vector<TensorType>{std::move(t)};
  };
  const OpInfo& info = GetOpInfo(kind);

  switch (kind) {
    case OpKind::kConstant: {
      auto it = attrs.find("value");
      if (it == attrs.end()) return Invalid(kind, "missing 'value' attr");
      const Tensor& t = it->second.AsTensor();
      return types(TensorType(t.dtype(), t.dims()));
    }
    case OpKind::kIota: {
      auto dt = attrs.count("dtype") ? attrs.at("dtype").AsDType() : DType::kI64;
      if (auto it = attrs.find("dims"); it != attrs.end()) {
        return types(TensorType(dt, it->second.AsIntList()));
      }
      // Dynamic variant: shape operand.
      DISC_ASSIGN_OR_RETURN(
          std::vector<int64_t> dims,
          ResolveTargetShape(kind, operand_types, attrs, operand_constants));
      return types(TensorType(dt, std::move(dims)));
    }

    case OpKind::kCast: {
      auto it = attrs.find("to");
      if (it == attrs.end()) return Invalid(kind, "missing 'to' attr");
      return types(TensorType(it->second.AsDType(), operand_types[0].dims));
    }

    case OpKind::kSelect: {
      if (operand_types[0].dtype != DType::kI1) {
        return Invalid(kind, "predicate must be i1");
      }
      DISC_ASSIGN_OR_RETURN(
          std::vector<int64_t> dims01,
          BroadcastDims(operand_types[0].dims, operand_types[1].dims));
      DISC_ASSIGN_OR_RETURN(std::vector<int64_t> dims,
                            BroadcastDims(dims01, operand_types[2].dims));
      if (operand_types[1].dtype != operand_types[2].dtype) {
        return Invalid(kind, "branch dtypes differ");
      }
      return types(TensorType(operand_types[1].dtype, std::move(dims)));
    }

    case OpKind::kReduceSum:
    case OpKind::kReduceMax:
    case OpKind::kReduceMin:
    case OpKind::kReduceMean: {
      const TensorType& in = operand_types[0];
      auto it = attrs.find("dims");
      if (it == attrs.end()) return Invalid(kind, "missing 'dims' attr");
      std::vector<int64_t> reduce_dims = it->second.AsIntList();
      bool keep = false;
      if (auto kit = attrs.find("keep_dims"); kit != attrs.end()) {
        keep = kit->second.AsInt() != 0;
      }
      std::vector<bool> reduced(in.rank(), false);
      for (int64_t d : reduce_dims) {
        if (d < 0 || d >= in.rank()) return Invalid(kind, "reduce dim oob");
        reduced[d] = true;
      }
      std::vector<int64_t> out_dims;
      for (int64_t i = 0; i < in.rank(); ++i) {
        if (reduced[i]) {
          if (keep) out_dims.push_back(1);
        } else {
          out_dims.push_back(in.dims[i]);
        }
      }
      return types(TensorType(in.dtype, std::move(out_dims)));
    }

    case OpKind::kMatMul: {
      const TensorType& a = operand_types[0];
      const TensorType& b = operand_types[1];
      if (a.rank() < 2 || b.rank() < 2) {
        return Invalid(kind, "operands must have rank >= 2");
      }
      if (a.dtype != b.dtype) return Invalid(kind, "dtype mismatch");
      bool ta = attrs.count("transpose_a") && attrs.at("transpose_a").AsInt();
      bool tb = attrs.count("transpose_b") && attrs.at("transpose_b").AsInt();
      int64_t m = a.dims[a.rank() - (ta ? 1 : 2)];
      int64_t ka = a.dims[a.rank() - (ta ? 2 : 1)];
      int64_t kb = b.dims[b.rank() - (tb ? 1 : 2)];
      int64_t n = b.dims[b.rank() - (tb ? 2 : 1)];
      if (ka != kDynamicDim && kb != kDynamicDim && ka != kb) {
        return Invalid(kind, StrFormat("contraction dims differ: %lld vs %lld",
                                       static_cast<long long>(ka),
                                       static_cast<long long>(kb)));
      }
      std::vector<int64_t> batch_a(a.dims.begin(), a.dims.end() - 2);
      std::vector<int64_t> batch_b(b.dims.begin(), b.dims.end() - 2);
      DISC_ASSIGN_OR_RETURN(std::vector<int64_t> batch,
                            BroadcastDims(batch_a, batch_b));
      batch.push_back(m);
      batch.push_back(n);
      return types(TensorType(a.dtype, std::move(batch)));
    }

    case OpKind::kConv2D: {
      const TensorType& in = operand_types[0];   // NHWC
      const TensorType& filter = operand_types[1];  // KhKwC0C1
      if (in.rank() != 4 || filter.rank() != 4) {
        return Invalid(kind, "conv2d expects rank-4 input and filter");
      }
      if (in.dtype != DType::kF32 || filter.dtype != DType::kF32) {
        return Invalid(kind, "input and filter must be f32");
      }
      auto strides_it = attrs.find("strides");
      auto padding_it = attrs.find("padding");
      if (strides_it == attrs.end() || padding_it == attrs.end()) {
        return Invalid(kind, "missing 'strides' or 'padding' attr");
      }
      const std::vector<int64_t>& strides = strides_it->second.AsIntList();
      const std::vector<int64_t>& padding = padding_it->second.AsIntList();
      if (strides.size() != 2 || padding.size() != 2) {
        return Invalid(kind, "strides/padding must have 2 entries");
      }
      if (in.dims[3] != kDynamicDim && filter.dims[2] != kDynamicDim &&
          in.dims[3] != filter.dims[2]) {
        return Invalid(kind, StrFormat("channel mismatch: %lld vs %lld",
                                       static_cast<long long>(in.dims[3]),
                                       static_cast<long long>(filter.dims[2])));
      }
      std::vector<int64_t> dims = {in.dims[0], 0, 0, filter.dims[3]};
      for (int i = 0; i < 2; ++i) {
        const int64_t in_d = in.dims[1 + i], k = filter.dims[i];
        const int64_t s = strides[i], p = padding[i];
        if (s < 1 || p < 0) {
          return Invalid(kind, "strides must be >= 1 and padding >= 0");
        }
        if (in_d == kDynamicDim || k == kDynamicDim) {
          dims[1 + i] = kDynamicDim;
        } else if (in_d + 2 * p < k) {
          return Invalid(kind, "window larger than the padded input");
        } else {
          dims[1 + i] = (in_d + 2 * p - k) / s + 1;
        }
      }
      return types(TensorType(in.dtype, std::move(dims)));
    }

    case OpKind::kTranspose: {
      const TensorType& in = operand_types[0];
      auto it = attrs.find("perm");
      if (it == attrs.end()) return Invalid(kind, "missing 'perm' attr");
      const std::vector<int64_t>& perm = it->second.AsIntList();
      if (static_cast<int64_t>(perm.size()) != in.rank()) {
        return Invalid(kind, "perm size != rank");
      }
      std::vector<int64_t> dims(in.rank());
      std::vector<bool> used(in.rank(), false);
      for (int64_t i = 0; i < in.rank(); ++i) {
        if (perm[i] < 0 || perm[i] >= in.rank() || used[perm[i]]) {
          return Invalid(kind, "perm is not a permutation");
        }
        used[perm[i]] = true;
        dims[i] = in.dims[perm[i]];
      }
      return types(TensorType(in.dtype, std::move(dims)));
    }

    case OpKind::kReshape: {
      const TensorType& in = operand_types[0];
      DISC_ASSIGN_OR_RETURN(
          std::vector<int64_t> target,
          ResolveTargetShape(kind, operand_types, attrs, operand_constants));
      // Resolve a single -1 wildcard when input size is known.
      int wildcard = -1;
      int64_t known_product = 1;
      int n_wild = 0;
      for (size_t i = 0; i < target.size(); ++i) {
        if (target[i] == kDynamicDim) {
          wildcard = static_cast<int>(i);
          ++n_wild;
        } else {
          known_product *= target[i];
        }
      }
      if (n_wild == 1 && in.IsFullyStatic()) {
        int64_t total = in.NumElements();
        if (known_product == 0 || total % known_product != 0) {
          return Invalid(kind, "element count mismatch");
        }
        target[wildcard] = total / known_product;
      }
      if (n_wild == 0 && in.IsFullyStatic()) {
        int64_t total = in.NumElements();
        if (total != Product(target)) {
          return Invalid(kind, "element count mismatch");
        }
      }
      return types(TensorType(in.dtype, std::move(target)));
    }

    case OpKind::kBroadcastTo: {
      const TensorType& in = operand_types[0];
      DISC_ASSIGN_OR_RETURN(
          std::vector<int64_t> target,
          ResolveTargetShape(kind, operand_types, attrs, operand_constants));
      if (static_cast<int64_t>(target.size()) < in.rank()) {
        return Invalid(kind, "broadcast rank smaller than input rank");
      }
      // Validate right-aligned compatibility where both are known.
      int64_t offset = static_cast<int64_t>(target.size()) - in.rank();
      for (int64_t i = 0; i < in.rank(); ++i) {
        int64_t from = in.dims[i];
        int64_t to = target[offset + i];
        if (from != kDynamicDim && to != kDynamicDim && from != 1 &&
            from != to) {
          return Invalid(kind, "incompatible broadcast dims");
        }
      }
      return types(TensorType(in.dtype, std::move(target)));
    }

    case OpKind::kConcat: {
      auto it = attrs.find("axis");
      if (it == attrs.end()) return Invalid(kind, "missing 'axis' attr");
      int64_t axis = it->second.AsInt();
      const TensorType& first = operand_types[0];
      if (axis < 0 || axis >= first.rank()) return Invalid(kind, "axis oob");
      std::vector<int64_t> dims = first.dims;
      for (size_t i = 1; i < operand_types.size(); ++i) {
        const TensorType& t = operand_types[i];
        if (t.dtype != first.dtype) return Invalid(kind, "dtype mismatch");
        if (t.rank() != first.rank()) return Invalid(kind, "rank mismatch");
        for (int64_t d = 0; d < first.rank(); ++d) {
          if (d == axis) {
            if (dims[d] == kDynamicDim || t.dims[d] == kDynamicDim) {
              dims[d] = kDynamicDim;
            } else {
              dims[d] += t.dims[d];
            }
          } else {
            if (dims[d] != kDynamicDim && t.dims[d] != kDynamicDim &&
                dims[d] != t.dims[d]) {
              return Invalid(kind, "non-axis dims differ");
            }
            if (dims[d] == kDynamicDim && t.dims[d] != kDynamicDim) {
              dims[d] = t.dims[d];
            }
          }
        }
      }
      return types(TensorType(first.dtype, std::move(dims)));
    }

    case OpKind::kSlice: {
      const TensorType& in = operand_types[0];
      for (const char* key : {"starts", "ends", "steps"}) {
        if (!attrs.count(key)) {
          return Invalid(kind, std::string("missing '") + key + "' attr");
        }
      }
      const auto& starts = attrs.at("starts").AsIntList();
      const auto& ends = attrs.at("ends").AsIntList();
      const auto& steps = attrs.at("steps").AsIntList();
      if (static_cast<int64_t>(starts.size()) != in.rank() ||
          ends.size() != starts.size() || steps.size() != starts.size()) {
        return Invalid(kind, "starts/ends/steps must match rank");
      }
      std::vector<int64_t> dims(in.rank());
      for (int64_t i = 0; i < in.rank(); ++i) {
        if (steps[i] <= 0) return Invalid(kind, "steps must be positive");
        int64_t end = ends[i];
        if (end == -1) {
          // "to the end" — stays symbolic when the dim is dynamic.
          if (in.dims[i] == kDynamicDim) {
            dims[i] = kDynamicDim;
            continue;
          }
          end = in.dims[i];
        }
        dims[i] = (end - starts[i] + steps[i] - 1) / steps[i];
        if (dims[i] < 0) return Invalid(kind, "negative slice extent");
      }
      return types(TensorType(in.dtype, std::move(dims)));
    }

    case OpKind::kGather: {
      const TensorType& data = operand_types[0];
      const TensorType& indices = operand_types[1];
      if (!IsIntegral(indices.dtype)) {
        return Invalid(kind, "indices must be integral");
      }
      auto it = attrs.find("axis");
      int64_t axis = it == attrs.end() ? 0 : it->second.AsInt();
      if (axis < 0 || axis >= data.rank()) return Invalid(kind, "axis oob");
      std::vector<int64_t> dims;
      for (int64_t i = 0; i < axis; ++i) dims.push_back(data.dims[i]);
      for (int64_t d : indices.dims) dims.push_back(d);
      for (int64_t i = axis + 1; i < data.rank(); ++i) {
        dims.push_back(data.dims[i]);
      }
      return types(TensorType(data.dtype, std::move(dims)));
    }

    case OpKind::kPad: {
      const TensorType& in = operand_types[0];
      if (!attrs.count("pads_low") || !attrs.count("pads_high")) {
        return Invalid(kind, "missing pads attrs");
      }
      const auto& low = attrs.at("pads_low").AsIntList();
      const auto& high = attrs.at("pads_high").AsIntList();
      if (static_cast<int64_t>(low.size()) != in.rank() ||
          low.size() != high.size()) {
        return Invalid(kind, "pads must match rank");
      }
      std::vector<int64_t> dims(in.rank());
      for (int64_t i = 0; i < in.rank(); ++i) {
        dims[i] = in.dims[i] == kDynamicDim ? kDynamicDim
                                            : in.dims[i] + low[i] + high[i];
      }
      return types(TensorType(in.dtype, std::move(dims)));
    }

    case OpKind::kShapeOf: {
      return types(TensorType(DType::kI64, {operand_types[0].rank()}));
    }
    case OpKind::kDim: {
      auto it = attrs.find("index");
      if (it == attrs.end()) return Invalid(kind, "missing 'index' attr");
      int64_t index = it->second.AsInt();
      if (index < 0 || index >= operand_types[0].rank()) {
        return Invalid(kind, "index oob");
      }
      return types(TensorType(DType::kI64, {}));
    }

    default:
      break;
  }

  // Generic elementwise handling (unary same-type; binary broadcast).
  if (info.op_class == OpClass::kElementwise) {
    if (operand_types.size() == 1) {
      return types(operand_types[0]);
    }
    if (operand_types.size() == 2) {
      if (operand_types[0].dtype != operand_types[1].dtype) {
        return Invalid(kind, "dtype mismatch: " +
                                 operand_types[0].ToString() + " vs " +
                                 operand_types[1].ToString());
      }
      DISC_ASSIGN_OR_RETURN(
          std::vector<int64_t> dims,
          BroadcastDims(operand_types[0].dims, operand_types[1].dims));
      DType out_dtype =
          IsPredicateOp(kind) ? DType::kI1 : operand_types[0].dtype;
      return types(TensorType(out_dtype, std::move(dims)));
    }
  }
  return Invalid(kind, "no inference rule");
}

}  // namespace disc
