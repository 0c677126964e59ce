// CPU execution of fused kernels: a typed, shape-generic executor.
//
// Numeric contract. Every member node is materialized once, in the group's
// topological order and at its IR dtype, computing exactly what
// EvaluateNode computes for that node:
//   * elementwise ops apply the reference's scalar functions
//     (ApplyUnaryScalar / ApplyBinaryScalar) on a double carrier and round
//     to the node's dtype on store, as Tensor::SetElementFromDouble does, so
//     an in-group cast really converts;
//   * reductions accumulate in double, visiting each output cell's inputs
//     in row-major input order;
//   * data movement (transpose, reshape, broadcast_to, slice, pad, concat,
//     gather) and iota store through the same conversion.
// Each group output is therefore bit-identical to the reference evaluator's
// value for its node, whichever variant the runtime selected: variants
// shape the modeled GPU schedule, not these loops.
//
// Loops. Extents are bound per call: member dims come from the shape
// analysis under the call's bindings, and each operand is read through an
// affine view (an offset plus one stride per loop dim; broadcast dims get
// stride 0, transposes permute strides, strided slices scale them) built
// once per member. A Walk merges dims that are contiguous in every view and
// runs the innermost one as a tight loop, so a same-shape elementwise
// member is one flat loop. Before reading, each member checks its operands'
// dims against the analysis and its index maps against the operand extents;
// a disagreement is an error Status, never an out-of-bounds read.
#include <algorithm>
#include <array>
#include <limits>
#include <type_traits>

#include "ir/eval.h"
#include "kernel/kernel.h"
#include "support/math_util.h"
#include "support/string_util.h"

namespace disc {
namespace {

using Dims = std::vector<int64_t>;

// ---------------------------------------------------------------------------
// Typed element access. Storage follows Tensor: float for f32, int64_t for
// i64 and i1.

template <DType D>
using Storage = std::conditional_t<D == DType::kF32, float, int64_t>;

template <DType D>
using DTypeTag = std::integral_constant<DType, D>;

template <OpKind K>
using OpTag = std::integral_constant<OpKind, K>;

/// The store conversion of Tensor::SetElementFromDouble.
template <DType D>
Storage<D> FromDouble(double v) {
  if constexpr (D == DType::kF32) {
    return static_cast<float>(v);
  } else if constexpr (D == DType::kI1) {
    return v != 0.0 ? 1 : 0;
  } else {
    return static_cast<int64_t>(v);
  }
}

template <DType D>
const Storage<D>* DataOf(const Tensor& t) {
  if constexpr (D == DType::kF32) {
    return t.f32_data();
  } else {
    return t.i64_data();
  }
}

template <DType D>
Storage<D>* MutableDataOf(Tensor* t) {
  if constexpr (D == DType::kF32) {
    return t->f32_data();
  } else {
    return t->i64_data();
  }
}

/// Calls fn(DTypeTag<dtype>{}).
template <typename Fn>
Status WithDType(DType dtype, Fn&& fn) {
  switch (dtype) {
    case DType::kF32:
      return fn(DTypeTag<DType::kF32>{});
    case DType::kI64:
      return fn(DTypeTag<DType::kI64>{});
    case DType::kI1:
      return fn(DTypeTag<DType::kI1>{});
  }
  return Status::Internal("unknown dtype");
}

/// Calls fn(OpTag<kind>{}) for a unary elementwise kind.
template <typename Fn>
Status WithUnaryOp(OpKind kind, Fn&& fn) {
  switch (kind) {
    case OpKind::kAbs:
      return fn(OpTag<OpKind::kAbs>{});
    case OpKind::kNeg:
      return fn(OpTag<OpKind::kNeg>{});
    case OpKind::kExp:
      return fn(OpTag<OpKind::kExp>{});
    case OpKind::kLog:
      return fn(OpTag<OpKind::kLog>{});
    case OpKind::kSqrt:
      return fn(OpTag<OpKind::kSqrt>{});
    case OpKind::kRsqrt:
      return fn(OpTag<OpKind::kRsqrt>{});
    case OpKind::kTanh:
      return fn(OpTag<OpKind::kTanh>{});
    case OpKind::kErf:
      return fn(OpTag<OpKind::kErf>{});
    case OpKind::kSigmoid:
      return fn(OpTag<OpKind::kSigmoid>{});
    case OpKind::kRelu:
      return fn(OpTag<OpKind::kRelu>{});
    case OpKind::kFloor:
      return fn(OpTag<OpKind::kFloor>{});
    case OpKind::kCeil:
      return fn(OpTag<OpKind::kCeil>{});
    case OpKind::kSign:
      return fn(OpTag<OpKind::kSign>{});
    case OpKind::kReciprocal:
      return fn(OpTag<OpKind::kReciprocal>{});
    case OpKind::kLogicalNot:
      return fn(OpTag<OpKind::kLogicalNot>{});
    case OpKind::kCast:
      return fn(OpTag<OpKind::kCast>{});
    default:
      break;
  }
  return Status::Unimplemented(std::string("fused unary op ") + OpName(kind));
}

/// Calls fn(OpTag<kind>{}) for a binary elementwise kind.
template <typename Fn>
Status WithBinaryOp(OpKind kind, Fn&& fn) {
  switch (kind) {
    case OpKind::kAdd:
      return fn(OpTag<OpKind::kAdd>{});
    case OpKind::kSub:
      return fn(OpTag<OpKind::kSub>{});
    case OpKind::kMul:
      return fn(OpTag<OpKind::kMul>{});
    case OpKind::kDiv:
      return fn(OpTag<OpKind::kDiv>{});
    case OpKind::kPow:
      return fn(OpTag<OpKind::kPow>{});
    case OpKind::kMaximum:
      return fn(OpTag<OpKind::kMaximum>{});
    case OpKind::kMinimum:
      return fn(OpTag<OpKind::kMinimum>{});
    case OpKind::kMod:
      return fn(OpTag<OpKind::kMod>{});
    case OpKind::kLess:
      return fn(OpTag<OpKind::kLess>{});
    case OpKind::kLessEqual:
      return fn(OpTag<OpKind::kLessEqual>{});
    case OpKind::kGreater:
      return fn(OpTag<OpKind::kGreater>{});
    case OpKind::kGreaterEqual:
      return fn(OpTag<OpKind::kGreaterEqual>{});
    case OpKind::kEqual:
      return fn(OpTag<OpKind::kEqual>{});
    case OpKind::kNotEqual:
      return fn(OpTag<OpKind::kNotEqual>{});
    case OpKind::kAnd:
      return fn(OpTag<OpKind::kAnd>{});
    case OpKind::kOr:
      return fn(OpTag<OpKind::kOr>{});
    default:
      break;
  }
  return Status::Unimplemented(std::string("fused binary op ") +
                               OpName(kind));
}

// ---------------------------------------------------------------------------
// Index maps and the strided loop.

Dims RowMajorStrides(const Dims& dims) {
  Dims strides(dims.size(), 1);
  for (int64_t i = static_cast<int64_t>(dims.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * dims[i + 1];
  }
  return strides;
}

int64_t ProductOf(const Dims& dims, size_t begin, size_t end) {
  int64_t product = 1;
  for (size_t i = begin; i < end; ++i) product *= dims[i];
  return product;
}

/// An affine map from a loop's index space into a buffer: element
/// `offset + sum_d idx[d] * strides[d]`.
struct View {
  int64_t offset = 0;
  Dims strides;
};

View DenseView(const Dims& dims) { return View{0, RowMajorStrides(dims)}; }

/// A row-major walk over `dims` through K views. Size-1 dims are dropped,
/// and a dim is merged into its outer neighbour when the two are contiguous
/// in every view. Neither changes the order in which indices are visited;
/// both make the innermost row as long as possible. A dense view keeps a
/// unit stride on the innermost row.
template <int K>
class Walk {
 public:
  Walk(const Dims& dims, const std::array<const View*, K>& views) {
    for (int k = 0; k < K; ++k) base_[k] = views[k]->offset;
    for (size_t d = 0; d < dims.size(); ++d) {
      if (dims[d] == 0) empty_ = true;
      if (dims[d] == 1) continue;
      bool merge = !extents_.empty();
      for (int k = 0; merge && k < K; ++k) {
        merge = strides_[strides_.size() - K + k] ==
                views[k]->strides[d] * dims[d];
      }
      if (merge) {
        extents_.back() *= dims[d];
        for (int k = 0; k < K; ++k) {
          strides_[strides_.size() - K + k] = views[k]->strides[d];
        }
      } else {
        extents_.push_back(dims[d]);
        for (int k = 0; k < K; ++k) strides_.push_back(views[k]->strides[d]);
      }
    }
  }

  /// Calls fn(offsets, n, steps) once per innermost row: the row has n
  /// elements, the i-th at offsets[k] + i * steps[k] in view k.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    if (empty_) return;
    std::array<int64_t, K> offsets = base_;
    if (extents_.empty()) {
      const std::array<int64_t, K> steps{};
      fn(offsets.data(), int64_t{1}, steps.data());
      return;
    }
    const size_t outer = extents_.size() - 1;
    const int64_t n = extents_[outer];
    const int64_t* steps = &strides_[outer * K];
    Dims idx(outer, 0);
    while (true) {
      fn(offsets.data(), n, steps);
      size_t d = outer;
      for (; d > 0; --d) {
        const int64_t* s = &strides_[(d - 1) * K];
        for (int k = 0; k < K; ++k) offsets[k] += s[k];
        if (++idx[d - 1] < extents_[d - 1]) break;
        for (int k = 0; k < K; ++k) offsets[k] -= s[k] * extents_[d - 1];
        idx[d - 1] = 0;
      }
      if (d == 0) return;
    }
  }

 private:
  std::array<int64_t, K> base_{};
  Dims extents_;
  Dims strides_;  // [dim][view]
  bool empty_ = false;
};

/// out[i] = fn(x[xv(i)]) over the dense output `out` of dims `dims`.
template <typename O, typename X, typename Fn>
void Map1(const Dims& dims, O* out, const X* x, const View& xv, Fn fn) {
  const View ov = DenseView(dims);
  Walk<2>(dims, {&ov, &xv})
      .ForEachRow([&](const int64_t* off, int64_t n, const int64_t* step) {
        O* o = out + off[0];
        const X* a = x + off[1];
        if (step[1] == 1) {
          for (int64_t i = 0; i < n; ++i) o[i] = fn(a[i]);
        } else if (step[1] == 0) {
          std::fill(o, o + n, fn(*a));
        } else {
          for (int64_t i = 0; i < n; ++i) o[i] = fn(a[i * step[1]]);
        }
      });
}

/// out[i] = fn(a[av(i)], b[bv(i)]) over the dense output `out`.
template <typename O, typename A, typename B, typename Fn>
void Map2(const Dims& dims, O* out, const A* a, const View& av, const B* b,
          const View& bv, Fn fn) {
  const View ov = DenseView(dims);
  Walk<3>(dims, {&ov, &av, &bv})
      .ForEachRow([&](const int64_t* off, int64_t n, const int64_t* step) {
        O* o = out + off[0];
        const A* x = a + off[1];
        const B* y = b + off[2];
        if (step[1] == 1 && step[2] == 1) {
          for (int64_t i = 0; i < n; ++i) o[i] = fn(x[i], y[i]);
        } else if (step[1] == 1 && step[2] == 0) {
          const B yv = *y;
          for (int64_t i = 0; i < n; ++i) o[i] = fn(x[i], yv);
        } else if (step[1] == 0 && step[2] == 1) {
          const A xv = *x;
          for (int64_t i = 0; i < n; ++i) o[i] = fn(xv, y[i]);
        } else {
          for (int64_t i = 0; i < n; ++i) {
            o[i] = fn(x[i * step[1]], y[i * step[2]]);
          }
        }
      });
}

/// out[i] = fn(p[pv(i)], a[av(i)], b[bv(i)]) over the dense output `out`.
template <typename O, typename P, typename A, typename Fn>
void Map3(const Dims& dims, O* out, const P* p, const View& pv, const A* a,
          const View& av, const A* b, const View& bv, Fn fn) {
  const View ov = DenseView(dims);
  Walk<4>(dims, {&ov, &pv, &av, &bv})
      .ForEachRow([&](const int64_t* off, int64_t n, const int64_t* step) {
        O* o = out + off[0];
        const P* c = p + off[1];
        const A* x = a + off[2];
        const A* y = b + off[3];
        for (int64_t i = 0; i < n; ++i) {
          o[i] = fn(c[i * step[1]], x[i * step[2]], y[i * step[3]]);
        }
      });
}

/// dst[dv(i)] = src[sv(i)] over `dims`, through the store conversion.
template <DType D>
void Copy(const Dims& dims, Storage<D>* dst, const View& dv,
          const Storage<D>* src, const View& sv) {
  Walk<2>(dims, {&dv, &sv})
      .ForEachRow([&](const int64_t* off, int64_t n, const int64_t* step) {
        Storage<D>* o = dst + off[0];
        const Storage<D>* x = src + off[1];
        if (step[0] == 1 && step[1] == 1) {
          for (int64_t i = 0; i < n; ++i) {
            o[i] = FromDouble<D>(static_cast<double>(x[i]));
          }
        } else {
          for (int64_t i = 0; i < n; ++i) {
            o[i * step[0]] =
                FromDouble<D>(static_cast<double>(x[i * step[1]]));
          }
        }
      });
}

/// acc[av(i)] = fn(acc[av(i)], in[i]) over the dense input `in` of dims
/// `dims`, in row-major input order.
template <typename X, typename Fn>
void Accumulate(const Dims& dims, const X* in, double* acc, const View& av,
                Fn fn) {
  const View iv = DenseView(dims);
  Walk<2>(dims, {&av, &iv})
      .ForEachRow([&](const int64_t* off, int64_t n, const int64_t* step) {
        double* o = acc + off[0];
        const X* x = in + off[1];
        if (step[0] == 0) {
          double s = *o;
          for (int64_t i = 0; i < n; ++i) {
            s = fn(s, static_cast<double>(x[i]));
          }
          *o = s;
        } else {
          for (int64_t i = 0; i < n; ++i) {
            o[i * step[0]] = fn(o[i * step[0]], static_cast<double>(x[i]));
          }
        }
      });
}

Status Mismatch(const Node& node, const std::string& what) {
  return Status::Internal(StrFormat("%s %%%d in a fused kernel: %s",
                                    OpName(node.kind()), node.output(0)->id(),
                                    what.c_str()));
}

std::string DimsString(const Dims& dims) {
  return "[" + Join(dims, "x") + "]";
}

/// Reads an operand of dims `in` at the positions of an output of dims
/// `out` under numpy broadcasting: right-aligned, size-1 dims repeat.
Result<View> BroadcastView(const Node& node, const Dims& in,
                           const Dims& out) {
  if (in.size() > out.size()) {
    return Mismatch(node, "operand " + DimsString(in) +
                              " outranks the result " + DimsString(out));
  }
  const Dims in_strides = RowMajorStrides(in);
  const size_t lead = out.size() - in.size();
  View view;
  view.strides.assign(out.size(), 0);
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == 1) continue;
    if (in[i] != out[lead + i]) {
      return Mismatch(node, "operand " + DimsString(in) +
                                " does not broadcast to " + DimsString(out));
    }
    view.strides[lead + i] = in_strides[i];
  }
  return view;
}

/// dst[dv(i)] = src[sv(i)] over `dims`; both tensors share a dtype.
Status CopyInto(const Node& node, Tensor* dst, const View& dv,
                const Tensor& src, const View& sv, const Dims& dims) {
  if (src.dtype() != dst->dtype()) {
    return Mismatch(node, "operand dtype differs from the result's");
  }
  return WithDType(dst->dtype(), [&](auto tag) {
    constexpr DType kD = decltype(tag)::value;
    Copy<kD>(dims, MutableDataOf<kD>(dst), dv, DataOf<kD>(src), sv);
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// One Execute call.

class GroupExecutor {
 public:
  GroupExecutor(const FusionGroup& group, const ShapeAnalysis& analysis,
                const SymbolBindings& bindings)
      : group_(group), analysis_(analysis), bindings_(bindings) {}

  /// Materializes every member, reading the group inputs from `env`, and
  /// inserts the group outputs into `env`.
  Status Run(std::unordered_map<const Value*, Tensor>* env) {
    DISC_RETURN_IF_ERROR(BindInputs(*env));
    values_.reserve(group_.nodes.size());
    for (const Node* node : group_.nodes) {
      const Value* v = node->output(0);
      DISC_ASSIGN_OR_RETURN(Dims dims, analysis_.EvaluateShape(v, bindings_));
      for (int64_t d : dims) {
        if (d < 0) return Mismatch(*node, "negative dim " + DimsString(dims));
      }
      Tensor out(v->dtype(), std::move(dims));
      DISC_RETURN_IF_ERROR(Materialize(*node, &out));
      values_.push_back(std::move(out));
    }
    for (const Value* output : group_.outputs) {
      const int member = MemberIndex(output);
      if (member < 0) {
        return Status::Internal(StrFormat(
            "fused group output %%%d is not produced inside the group",
            output->id()));
      }
      env->emplace(output, std::move(values_[member]));
    }
    return Status::OK();
  }

 private:
  /// Looks up every group input and checks it against the analysis.
  Status BindInputs(const std::unordered_map<const Value*, Tensor>& env) {
    inputs_.reserve(group_.inputs.size());
    for (const Value* input : group_.inputs) {
      auto it = env.find(input);
      if (it == env.end()) {
        return Status::Internal(StrFormat(
            "fused kernel input %%%d was not computed", input->id()));
      }
      DISC_ASSIGN_OR_RETURN(Dims dims,
                            analysis_.EvaluateShape(input, bindings_));
      const Tensor& t = it->second;
      if (t.dtype() != input->dtype() || t.dims() != dims) {
        return Status::Internal(StrFormat(
            "fused kernel input %%%d is %s; the shape analysis predicts %s%s",
            input->id(), t.TypeString().c_str(), DTypeName(input->dtype()),
            DimsString(dims).c_str()));
      }
      inputs_.push_back(&t);
    }
    return Status::OK();
  }

  /// Index of the already materialized member producing `v`, or -1.
  int MemberIndex(const Value* v) const {
    for (size_t i = 0; i < values_.size(); ++i) {
      if (group_.nodes[i]->output(0) == v) return static_cast<int>(i);
    }
    return -1;
  }

  /// An operand: a member materialized earlier in this call, or a checked
  /// group input.
  Result<const Tensor*> Lookup(const Value* v) const {
    const int member = MemberIndex(v);
    if (member >= 0) return &values_[member];
    for (size_t i = 0; i < inputs_.size(); ++i) {
      if (group_.inputs[i] == v) return inputs_[i];
    }
    return Status::Internal(StrFormat(
        "value %%%d is neither a group input nor an earlier member",
        v->id()));
  }

  Status Materialize(const Node& node, Tensor* out) {
    switch (node.kind()) {
      case OpKind::kIota:
        return Iota(node, out);
      case OpKind::kTranspose:
        return Transpose(node, out);
      case OpKind::kReshape:
        return Reshape(node, out);
      case OpKind::kBroadcastTo:
        return BroadcastTo(node, out);
      case OpKind::kSlice:
        return Slice(node, out);
      case OpKind::kPad:
        return Pad(node, out);
      case OpKind::kConcat:
        return Concat(node, out);
      case OpKind::kGather:
        return Gather(node, out);
      case OpKind::kSelect:
        return Select(node, out);
      case OpKind::kReduceSum:
      case OpKind::kReduceMax:
      case OpKind::kReduceMin:
      case OpKind::kReduceMean:
        return Reduce(node, out);
      default:
        break;
    }
    if (IsUnaryElementwise(node.kind())) return Unary(node, out);
    if (IsBinaryElementwise(node.kind())) return Binary(node, out);
    return Status::Unimplemented(std::string("op inside a fused kernel: ") +
                                 OpName(node.kind()));
  }

  // Elementwise results keep the operand dtype or become i1; only a cast
  // converts to anything else. The other (in, out) dtype pairs are rejected
  // without instantiating a loop for them.

  Status Unary(const Node& node, Tensor* out) {
    DISC_ASSIGN_OR_RETURN(const Tensor* x, Lookup(node.operand(0)));
    DISC_ASSIGN_OR_RETURN(View xv,
                          BroadcastView(node, x->dims(), out->dims()));
    return WithDType(x->dtype(), [&](auto in) {
      return WithDType(out->dtype(), [&](auto res) {
        return WithUnaryOp(node.kind(), [&](auto op) {
          constexpr DType kIn = decltype(in)::value;
          constexpr DType kOut = decltype(res)::value;
          constexpr OpKind kOp = decltype(op)::value;
          if constexpr (kOp != OpKind::kCast && kOut != kIn &&
                        kOut != DType::kI1) {
            return Mismatch(node, "result dtype");
          } else {
            Map1(out->dims(), MutableDataOf<kOut>(out), DataOf<kIn>(*x), xv,
                 [](Storage<kIn> v) {
                   return FromDouble<kOut>(
                       ApplyUnaryScalar(kOp, static_cast<double>(v)));
                 });
            return Status::OK();
          }
        });
      });
    });
  }

  Status Binary(const Node& node, Tensor* out) {
    DISC_ASSIGN_OR_RETURN(const Tensor* a, Lookup(node.operand(0)));
    DISC_ASSIGN_OR_RETURN(const Tensor* b, Lookup(node.operand(1)));
    if (a->dtype() != b->dtype()) {
      return Mismatch(node, "operand dtypes differ");
    }
    DISC_ASSIGN_OR_RETURN(View av,
                          BroadcastView(node, a->dims(), out->dims()));
    DISC_ASSIGN_OR_RETURN(View bv,
                          BroadcastView(node, b->dims(), out->dims()));
    return WithDType(a->dtype(), [&](auto in) {
      return WithDType(out->dtype(), [&](auto res) {
        return WithBinaryOp(node.kind(), [&](auto op) {
          constexpr DType kIn = decltype(in)::value;
          constexpr DType kOut = decltype(res)::value;
          if constexpr (kOut != kIn && kOut != DType::kI1) {
            return Mismatch(node, "result dtype");
          } else {
            constexpr OpKind kOp = decltype(op)::value;
            Map2(out->dims(), MutableDataOf<kOut>(out), DataOf<kIn>(*a), av,
                 DataOf<kIn>(*b), bv, [](Storage<kIn> x, Storage<kIn> y) {
                   return FromDouble<kOut>(
                       ApplyBinaryScalar(kOp, static_cast<double>(x),
                                         static_cast<double>(y), kIn));
                 });
            return Status::OK();
          }
        });
      });
    });
  }

  Status Select(const Node& node, Tensor* out) {
    DISC_ASSIGN_OR_RETURN(const Tensor* pred, Lookup(node.operand(0)));
    DISC_ASSIGN_OR_RETURN(const Tensor* a, Lookup(node.operand(1)));
    DISC_ASSIGN_OR_RETURN(const Tensor* b, Lookup(node.operand(2)));
    if (pred->dtype() != DType::kI1 || a->dtype() != b->dtype() ||
        out->dtype() != a->dtype()) {
      return Mismatch(node, "operand dtypes");
    }
    DISC_ASSIGN_OR_RETURN(View pv,
                          BroadcastView(node, pred->dims(), out->dims()));
    DISC_ASSIGN_OR_RETURN(View av,
                          BroadcastView(node, a->dims(), out->dims()));
    DISC_ASSIGN_OR_RETURN(View bv,
                          BroadcastView(node, b->dims(), out->dims()));
    return WithDType(out->dtype(), [&](auto tag) {
      constexpr DType kD = decltype(tag)::value;
      Map3(out->dims(), MutableDataOf<kD>(out), DataOf<DType::kI1>(*pred), pv,
           DataOf<kD>(*a), av, DataOf<kD>(*b), bv,
           [](int64_t p, Storage<kD> x, Storage<kD> y) {
             return FromDouble<kD>(static_cast<double>(p != 0 ? x : y));
           });
      return Status::OK();
    });
  }

  Status Reduce(const Node& node, Tensor* out) {
    DISC_ASSIGN_OR_RETURN(const Tensor* x, Lookup(node.operand(0)));
    const Dims& in = x->dims();
    const Dims& dims = out->dims();
    if (out->dtype() != x->dtype()) return Mismatch(node, "result dtype");
    std::vector<bool> reduced(in.size(), false);
    for (int64_t d : node.GetIntListAttr("dims")) {
      if (d < 0 || d >= static_cast<int64_t>(in.size())) {
        return Mismatch(node, "reduce dim out of range");
      }
      reduced[d] = true;
    }
    const bool keep = node.GetIntAttr("keep_dims", 0) != 0;
    // The accumulator of input index i is output cell av(i): reduced dims
    // get stride 0.
    const Dims out_strides = RowMajorStrides(dims);
    View av;
    av.strides.assign(in.size(), 0);
    int64_t count = 1;
    size_t o = 0;
    bool matches = true;
    for (size_t d = 0; matches && d < in.size(); ++d) {
      if (reduced[d]) count *= in[d];
      if (reduced[d] && !keep) continue;
      matches = o < dims.size() && dims[o] == (reduced[d] ? 1 : in[d]);
      if (!reduced[d] && matches) av.strides[d] = out_strides[o];
      ++o;
    }
    if (!matches || o != dims.size()) {
      return Mismatch(node, "result " + DimsString(dims) +
                                " does not match input " + DimsString(in));
    }

    double init = 0.0;
    if (node.kind() == OpKind::kReduceMax) {
      init = -std::numeric_limits<double>::infinity();
    } else if (node.kind() == OpKind::kReduceMin) {
      init = std::numeric_limits<double>::infinity();
    }
    std::vector<double> acc(out->num_elements(), init);
    const bool mean = node.kind() == OpKind::kReduceMean && count > 0;
    return WithDType(x->dtype(), [&](auto tag) {
      constexpr DType kD = decltype(tag)::value;
      const Storage<kD>* data = DataOf<kD>(*x);
      switch (node.kind()) {
        case OpKind::kReduceMax:
          Accumulate(in, data, acc.data(), av,
                     [](double a, double v) { return std::max(a, v); });
          break;
        case OpKind::kReduceMin:
          Accumulate(in, data, acc.data(), av,
                     [](double a, double v) { return std::min(a, v); });
          break;
        default:
          Accumulate(in, data, acc.data(), av,
                     [](double a, double v) { return a + v; });
          break;
      }
      Storage<kD>* dst = MutableDataOf<kD>(out);
      for (size_t i = 0; i < acc.size(); ++i) {
        dst[i] = FromDouble<kD>(mean ? acc[i] / static_cast<double>(count)
                                     : acc[i]);
      }
      return Status::OK();
    });
  }

  Status Iota(const Node& node, Tensor* out) {
    if (out->num_elements() == 0) return Status::OK();
    const Dims& dims = out->dims();
    const int64_t axis = node.GetIntAttr("axis", 0);
    if (axis < 0 || axis >= static_cast<int64_t>(dims.size())) {
      return Mismatch(node, "axis out of range");
    }
    const int64_t outer = ProductOf(dims, 0, axis);
    const int64_t inner = ProductOf(dims, axis + 1, dims.size());
    return WithDType(out->dtype(), [&](auto tag) {
      constexpr DType kD = decltype(tag)::value;
      Storage<kD>* dst = MutableDataOf<kD>(out);
      for (int64_t o = 0; o < outer; ++o) {
        for (int64_t i = 0; i < dims[axis]; ++i) {
          dst = std::fill_n(dst, inner,
                            FromDouble<kD>(static_cast<double>(i)));
        }
      }
      return Status::OK();
    });
  }

  Status Transpose(const Node& node, Tensor* out) {
    DISC_ASSIGN_OR_RETURN(const Tensor* x, Lookup(node.operand(0)));
    const Dims& in = x->dims();
    const Dims& dims = out->dims();
    const auto& perm = node.GetIntListAttr("perm");
    if (perm.size() != in.size() || dims.size() != in.size()) {
      return Mismatch(node, "perm rank");
    }
    const Dims in_strides = RowMajorStrides(in);
    View xv;
    xv.strides.resize(in.size());
    for (size_t i = 0; i < perm.size(); ++i) {
      const int64_t p = perm[i];
      if (p < 0 || p >= static_cast<int64_t>(in.size()) || dims[i] != in[p]) {
        return Mismatch(node, "result " + DimsString(dims) +
                                  " is not a permutation of " +
                                  DimsString(in));
      }
      xv.strides[i] = in_strides[p];
    }
    return CopyInto(node, out, DenseView(dims), *x, xv, dims);
  }

  Status Reshape(const Node& node, Tensor* out) {
    DISC_ASSIGN_OR_RETURN(const Tensor* x, Lookup(node.operand(0)));
    if (x->num_elements() != out->num_elements()) {
      return Mismatch(node, "element count changes from " +
                                DimsString(x->dims()) + " to " +
                                DimsString(out->dims()));
    }
    const Dims flat = {out->num_elements()};
    return CopyInto(node, out, DenseView(flat), *x, DenseView(flat), flat);
  }

  Status BroadcastTo(const Node& node, Tensor* out) {
    DISC_ASSIGN_OR_RETURN(const Tensor* x, Lookup(node.operand(0)));
    DISC_ASSIGN_OR_RETURN(View xv,
                          BroadcastView(node, x->dims(), out->dims()));
    return CopyInto(node, out, DenseView(out->dims()), *x, xv, out->dims());
  }

  Status Slice(const Node& node, Tensor* out) {
    DISC_ASSIGN_OR_RETURN(const Tensor* x, Lookup(node.operand(0)));
    const Dims& in = x->dims();
    const Dims& dims = out->dims();
    const auto& starts = node.GetIntListAttr("starts");
    const auto& ends = node.GetIntListAttr("ends");
    const auto& steps = node.GetIntListAttr("steps");
    const size_t rank = in.size();
    if (starts.size() != rank || ends.size() != rank ||
        steps.size() != rank || dims.size() != rank) {
      return Mismatch(node, "attribute rank");
    }
    const Dims in_strides = RowMajorStrides(in);
    View xv;
    xv.strides.resize(rank);
    for (size_t d = 0; d < rank; ++d) {
      const int64_t end = ends[d] == -1 ? in[d] : ends[d];
      const int64_t step = steps[d];
      if (step <= 0 || starts[d] < 0 || end > in[d] ||
          dims[d] != (end - starts[d] + step - 1) / step) {
        return Mismatch(node, "window does not fit " + DimsString(in) +
                                  " with result " + DimsString(dims));
      }
      xv.offset += starts[d] * in_strides[d];
      xv.strides[d] = step * in_strides[d];
    }
    return CopyInto(node, out, DenseView(dims), *x, xv, dims);
  }

  Status Pad(const Node& node, Tensor* out) {
    DISC_ASSIGN_OR_RETURN(const Tensor* x, Lookup(node.operand(0)));
    const Dims& in = x->dims();
    const Dims& dims = out->dims();
    const auto& low = node.GetIntListAttr("pads_low");
    const auto& high = node.GetIntListAttr("pads_high");
    if (low.size() != in.size() || high.size() != in.size() ||
        dims.size() != in.size()) {
      return Mismatch(node, "attribute rank");
    }
    // The input lands at offset `low` inside the result.
    View interior = DenseView(dims);
    for (size_t d = 0; d < in.size(); ++d) {
      if (low[d] < 0 || high[d] < 0 || dims[d] != in[d] + low[d] + high[d]) {
        return Mismatch(node, "padding " + DimsString(in) +
                                  " does not give " + DimsString(dims));
      }
      interior.offset += low[d] * interior.strides[d];
    }
    const double pad_value = node.GetFloatAttr("pad_value", 0.0);
    DISC_RETURN_IF_ERROR(WithDType(out->dtype(), [&](auto tag) {
      constexpr DType kD = decltype(tag)::value;
      std::fill_n(MutableDataOf<kD>(out), out->num_elements(),
                  FromDouble<kD>(pad_value));
      return Status::OK();
    }));
    return CopyInto(node, out, interior, *x, DenseView(in), in);
  }

  Status Concat(const Node& node, Tensor* out) {
    const Dims& dims = out->dims();
    const int64_t axis = node.GetIntAttr("axis", 0);
    if (axis < 0 || axis >= static_cast<int64_t>(dims.size())) {
      return Mismatch(node, "axis out of range");
    }
    const Dims out_strides = RowMajorStrides(dims);
    int64_t pos = 0;  // where the next part starts along `axis`
    for (const Value* operand : node.operands()) {
      DISC_ASSIGN_OR_RETURN(const Tensor* part, Lookup(operand));
      const Dims& pd = part->dims();
      bool fits = pd.size() == dims.size() && pos + pd[axis] <= dims[axis];
      for (size_t d = 0; fits && d < dims.size(); ++d) {
        fits = static_cast<int64_t>(d) == axis || pd[d] == dims[d];
      }
      if (!fits) {
        return Mismatch(node, "part " + DimsString(pd) + " does not fit " +
                                  DimsString(dims));
      }
      const View at{pos * out_strides[axis], out_strides};
      DISC_RETURN_IF_ERROR(CopyInto(node, out, at, *part, DenseView(pd), pd));
      pos += pd[axis];
    }
    if (pos != dims[axis]) {
      return Mismatch(node, "parts do not fill " + DimsString(dims));
    }
    return Status::OK();
  }

  Status Gather(const Node& node, Tensor* out) {
    DISC_ASSIGN_OR_RETURN(const Tensor* data, Lookup(node.operand(0)));
    DISC_ASSIGN_OR_RETURN(const Tensor* indices, Lookup(node.operand(1)));
    const Dims& dd = data->dims();
    const int64_t axis = node.GetIntAttr("axis", 0);
    if (!IsIntegral(indices->dtype()) || data->dtype() != out->dtype() ||
        axis < 0 || axis >= static_cast<int64_t>(dd.size())) {
      return Mismatch(node, "operands");
    }
    Dims expected(dd.begin(), dd.begin() + axis);
    expected.insert(expected.end(), indices->dims().begin(),
                    indices->dims().end());
    expected.insert(expected.end(), dd.begin() + axis + 1, dd.end());
    if (expected != out->dims()) {
      return Mismatch(node, "result " + DimsString(out->dims()) +
                                " should be " + DimsString(expected));
    }
    if (out->num_elements() == 0) return Status::OK();
    const int64_t prefix = ProductOf(dd, 0, axis);
    const int64_t rows = dd[axis];
    const int64_t suffix = ProductOf(dd, axis + 1, dd.size());
    const int64_t count = indices->num_elements();
    const int64_t* ids = indices->i64_data();
    return WithDType(out->dtype(), [&](auto tag) -> Status {
      constexpr DType kD = decltype(tag)::value;
      const Storage<kD>* src = DataOf<kD>(*data);
      Storage<kD>* dst = MutableDataOf<kD>(out);
      for (int64_t p = 0; p < prefix; ++p) {
        for (int64_t j = 0; j < count; ++j) {
          const int64_t row = ids[j];
          if (row < 0 || row >= rows) {
            return Status::InvalidArgument("gather: index out of bounds");
          }
          const Storage<kD>* from = src + (p * rows + row) * suffix;
          for (int64_t s = 0; s < suffix; ++s) {
            *dst++ = FromDouble<kD>(static_cast<double>(from[s]));
          }
        }
      }
      return Status::OK();
    });
  }

  const FusionGroup& group_;
  const ShapeAnalysis& analysis_;
  const SymbolBindings& bindings_;
  std::vector<const Tensor*> inputs_;  // parallel to group_.inputs
  std::vector<Tensor> values_;         // parallel to group_.nodes
};

}  // namespace

Status FusedKernel::Execute(
    const SymbolBindings& bindings,
    std::unordered_map<const Value*, Tensor>* env) const {
  GroupExecutor executor(group_, *analysis_, bindings);
  DISC_RETURN_IF_ERROR(executor.Run(env));
  if (miscompiled_) {
    // Injected miscompile: perturb one element of the first group output.
    // Deterministic (same wrong answer every run) so differential
    // validation can prove exactly which artifact is bad.
    for (const Value* output : group_.outputs) {
      auto it = env->find(output);
      if (it == env->end() || it->second.num_elements() == 0) continue;
      it->second.SetElementFromDouble(0,
                                      it->second.ElementAsDouble(0) + 1.0);
      break;
    }
  }
  return Status::OK();
}

}  // namespace disc
