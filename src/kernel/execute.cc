// CPU execution of fused kernels: a typed, shape-generic executor, bound
// once per shape signature.
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
// f32 members whose rows are contiguous and hold at least RowLanes(isa)
// elements run the vector rows of the host's ISA instead
// (kernel/elementwise.h), with the same outputs:
//   * add, sub, mul, div, reciprocal and sqrt run natively on f32 lanes:
//     for these, rounding to binary64 and then to binary32 equals rounding
//     once to binary32, since 53 >= 2 * 24 + 2 (Figueroa, "When is double
//     rounding innocuous?", ACM SIGNUM Newsletter, 1995). maximum, minimum,
//     neg, abs, relu, floor and ceil are exact in f32 too. rsqrt keeps a
//     double row, since the reference rounds it twice (sqrt, then divide);
//   * checked rows (tanh, exp, sigmoid) keep a vector double approximation
//     y only where (float)(y * (1 - 2^-44)) and (float)(y * (1 + 2^-44))
//     agree, which proves that libm's value, within 2^-44 |y| of y, narrows
//     to the same f32 (rounding is monotone), and recompute every other
//     lane, NaNs included, through ApplyUnaryScalar;
//   * data movement copies contiguous rows through the quieting copy row,
//     which stores x + -0.0, that is (float)(double)x;
//   * a reduction over the trailing dims of its input reduces RowLanes(isa)
//     rows per block, one double lane per row, adding (or taking the max or
//     min of) each row's elements in increasing order, from the reference's
//     initial value: the same operations in the same order as the scalar
//     loop. Blocks run in row order; the last may be partial, or, below 3
//     (AVX2) or 4 (AVX-512) rows, one scalar accumulator per row.
//
// Quiet on read. Widening an f32 quiets a signalling NaN, so the reference
// never sees one past a node's operand read. Every member here quiets what
// it reads the same way: scalar loops widen, the native rows quiet in the
// op or add -0.0, the copy row adds -0.0, and reductions widen. A member's
// output is therefore the same whether an operand holds a signalling NaN or
// the quiet NaN the reference would have stored in its place. That is why
// a reshape that is not a group output aliases its operand's buffer: it
// runs no loop and takes no scratch, and its consumers read the operand
// (which may be a group input holding a signalling NaN) directly. A
// reshape that is a group output still copies, so every stored output is
// quieted. A new member kind must keep this invariant, or reshapes that
// feed it must copy.
//
// Each group output is therefore bit-identical to the reference evaluator's
// value for its node, whichever variant the runtime selected and whichever
// row ISA Bind picked: variants shape the modeled GPU schedule, not these
// loops. The scalar functions are force-inlined (ir/eval.h), and every loop
// below is instantiated for one op kind and dtype pair, so a loop body is
// the bare scalar expression.
//
// Bind. FusedKernel::Bind does all the work that depends only on the
// symbol bindings. It solves each input's and member's dims through the
// shape analysis and checks every member's operands and attributes against
// them. It reads each operand through an affine view (an offset plus one
// stride per loop dim; broadcast dims get stride 0, transposes permute
// strides, strided slices scale them) and merges the views of a member into
// a Walk, which drops size-1 dims and merges dims that are contiguous in
// every view, so a same-shape elementwise member is one flat loop. It lays
// out one scratch block for the members that are not group outputs (nor
// aliased reshapes) and for the accumulators of scalar reductions. Each
// member becomes a MemberLoop whose op kind and dtypes were fixed at bind
// time; for an f32 member it also captures the row kernel, picked from
// HostIsa() once per binding (strided rows, rows shorter than RowLanes,
// other dtypes and reductions over leading dims keep the scalar loops).
// The resulting BoundKernel is immutable: the runtime keeps it in the
// launch plan, and concurrent Executes share it.
//
// Execute. The core takes raw buffers: a table of value buffers, the table
// index of each group input and output, and ScratchBytes(binding) of
// scratch, where it lays out the Frame's slot table followed by the scratch
// members and accumulators. It runs the member loops in order and checks
// nothing the binding fixed, so the caller answers for every buffer's dtype
// and dims: the runtime's launch plan sizes them from the same bindings.
// The env-map Execute is an adapter over the same core: it checks each
// group input's dtype and dims against the bound ones (a disagreement is an
// error Status, never an out-of-bounds read), allocates the group outputs
// and the scratch, runs the core, and only then inserts the outputs into
// env. Execute(bindings, env) is Bind followed by that adapter.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>

#include "ir/eval.h"
#include "kernel/elementwise.h"
#include "kernel/kernel.h"
#include "support/math_util.h"
#include "support/string_util.h"

namespace disc {

using Dims = std::vector<int64_t>;

/// A fused kernel bound to one shape signature (see the header comment).
struct BoundKernel {
  /// The buffers of one Execute call. `slots` holds the data of each group
  /// input, then of each member (parallel to the group's nodes); `scratch`
  /// is the call's scratch block.
  struct Frame {
    void* const* slots;
    std::byte* scratch;
  };
  /// One member's loops over the buffers of a Frame.
  using MemberLoop = std::function<Status(const Frame&)>;

  struct Member {
    /// Null for a reshape that aliases its operand's buffer.
    MemberLoop loop;
    Dims dims;
    /// Byte offset of the member's buffer in the scratch block; -1 for a
    /// group output, whose buffer the caller supplies, and for an alias.
    int64_t scratch_offset = -1;
  };

  const FusedKernel* kernel = nullptr;
  /// The ISA of the vector rows some member runs; generic when none does.
  ContractionIsa row_isa = ContractionIsa::kGeneric;
  std::vector<Dims> input_dims;  // parallel to group.inputs
  std::vector<Member> members;   // parallel to group.nodes
  std::vector<int> outputs;      // member index of each group output
  /// The scratch an Execute gets: the Frame's slot table (table_bytes),
  /// then the scratch members and accumulators (scratch_bytes).
  int64_t table_bytes = 0;
  int64_t scratch_bytes = 0;
};

namespace {

using Frame = BoundKernel::Frame;
using MemberLoop = BoundKernel::MemberLoop;

// ---------------------------------------------------------------------------
// Typed element access. Storage follows Tensor: float for f32, int64_t for
// i64 and i1.

template <DType D>
using Storage = std::conditional_t<D == DType::kF32, float, int64_t>;

template <DType D>
using DTypeTag = std::integral_constant<DType, D>;

template <OpKind K>
using OpTag = std::integral_constant<OpKind, K>;

/// The element widened to double, as Tensor::ElementAsDouble widens it
/// (which quiets a signalling NaN). For f32 floor, ceil, maximum and minimum
/// the widened value is opaque to GCC, which would otherwise narrow
/// (float)std::floor((double)x) to an inlined floorf(x), and std::max of two
/// widened floats to a float compare: both return a signalling NaN as it
/// came. The other ops quiet it either way, and keep their float forms.
template <OpKind kOp, typename S>
[[gnu::always_inline]] inline double Widened(S v) {
  double d = static_cast<double>(v);
  if constexpr (std::is_same_v<S, float> &&
                (kOp == OpKind::kFloor || kOp == OpKind::kCeil ||
                 kOp == OpKind::kMaximum || kOp == OpKind::kMinimum)) {
#if defined(__x86_64__)
    __asm__("" : "+x"(d));
#else
    __asm__("" : "+g"(d));
#endif
  }
  return d;
}

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

int64_t StorageSize(DType dtype) {
  return dtype == DType::kF32 ? sizeof(float) : sizeof(int64_t);
}

/// The typed buffer of slot `slot` in `frame`.
template <DType D>
Storage<D>* Slot(const Frame& frame, int slot) {
  return static_cast<Storage<D>*>(frame.slots[slot]);
}

/// Calls fn(DTypeTag<dtype>{}) and returns its result.
template <typename Fn>
auto WithDType(DType dtype, Fn&& fn) -> decltype(fn(DTypeTag<DType::kF32>{})) {
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
auto WithUnaryOp(OpKind kind, Fn&& fn)
    -> decltype(fn(OpTag<OpKind::kAbs>{})) {
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
auto WithBinaryOp(OpKind kind, Fn&& fn)
    -> decltype(fn(OpTag<OpKind::kAdd>{})) {
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

  /// The element count of every innermost row (0 for an empty walk).
  int64_t row_length() const {
    if (empty_) return 0;
    return extents_.empty() ? 1 : extents_.back();
  }

  /// The step of view k along every innermost row.
  int64_t row_step(int k) const {
    return extents_.empty() ? 0 : strides_[strides_.size() - K + k];
  }

  /// Calls fn(offsets, n, steps) once per innermost row: the row has n
  /// elements, the i-th at offsets[k] + i * steps[k] in view k.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    if (empty_) return;
    if (extents_.size() <= 1) {
      static constexpr std::array<int64_t, K> kNoSteps{};
      fn(base_.data(), extents_.empty() ? int64_t{1} : extents_[0],
         extents_.empty() ? kNoSteps.data() : strides_.data());
      return;
    }
    Rows(0, base_, fn);
  }

 private:
  /// Visits every row under outer dim `d`, starting at `offsets`.
  template <typename Fn>
  void Rows(size_t d, std::array<int64_t, K> offsets, Fn& fn) const {
    const size_t inner = extents_.size() - 1;
    const int64_t* step = &strides_[d * K];
    for (int64_t i = 0; i < extents_[d]; ++i) {
      if (d + 1 == inner) {
        fn(static_cast<const int64_t*>(offsets.data()), extents_[inner],
           &strides_[inner * K]);
      } else {
        Rows(d + 1, offsets, fn);
      }
      for (int k = 0; k < K; ++k) offsets[k] += step[k];
    }
  }

  std::array<int64_t, K> base_{};
  Dims extents_;
  Dims strides_;  // [dim][view]
  bool empty_ = false;
};

/// out[i] = fn(x[i]) over a walk of (dense out, x).
template <typename O, typename X, typename Fn>
void Map1(const Walk<2>& walk, O* out, const X* x, Fn fn) {
  walk.ForEachRow([&](const int64_t* off, int64_t n, const int64_t* step) {
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

/// out[i] = fn(a[i], b[i]) over a walk of (dense out, a, b).
template <typename O, typename A, typename B, typename Fn>
void Map2(const Walk<3>& walk, O* out, const A* a, const B* b, Fn fn) {
  walk.ForEachRow([&](const int64_t* off, int64_t n, const int64_t* step) {
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

/// out = row(x) over a walk of (dense out, x) whose rows have unit steps.
void MapRows(const Walk<2>& walk, float* out, const float* x, UnaryRowFn row) {
  walk.ForEachRow([&](const int64_t* off, int64_t n, const int64_t*) {
    row(out + off[0], x + off[1], n);
  });
}

/// out = row(a, b) over a walk of (dense out, a, b) whose rows have the
/// steps `row` was selected for.
void MapRows(const Walk<3>& walk, float* out, const float* a, const float* b,
             BinaryRowFn row) {
  walk.ForEachRow([&](const int64_t* off, int64_t n, const int64_t*) {
    row(out + off[0], a + off[1], b + off[2], n);
  });
}

/// out[i] = fn(p[i], a[i], b[i]) over a walk of (dense out, p, a, b).
template <typename O, typename P, typename A, typename Fn>
void Map3(const Walk<4>& walk, O* out, const P* p, const A* a, const A* b,
          Fn fn) {
  walk.ForEachRow([&](const int64_t* off, int64_t n, const int64_t* step) {
    O* o = out + off[0];
    const P* c = p + off[1];
    const A* x = a + off[2];
    const A* y = b + off[3];
    for (int64_t i = 0; i < n; ++i) {
      o[i] = fn(c[i * step[1]], x[i * step[2]], y[i * step[3]]);
    }
  });
}

/// dst[i] = src[i] over a walk of (dst, src), through the store conversion.
template <DType D>
void Copy(const Walk<2>& walk, Storage<D>* dst, const Storage<D>* src) {
  walk.ForEachRow([&](const int64_t* off, int64_t n, const int64_t* step) {
    Storage<D>* o = dst + off[0];
    const Storage<D>* x = src + off[1];
    if (step[0] == 1 && step[1] == 1) {
      for (int64_t i = 0; i < n; ++i) {
        o[i] = FromDouble<D>(static_cast<double>(x[i]));
      }
    } else {
      for (int64_t i = 0; i < n; ++i) {
        o[i * step[0]] = FromDouble<D>(static_cast<double>(x[i * step[1]]));
      }
    }
  });
}

/// acc[i] = fn(acc[i], in[i]) over a walk of (acc, dense in), in row-major
/// input order.
template <typename X, typename Fn>
void Accumulate(const Walk<2>& walk, const X* in, double* acc, Fn fn) {
  walk.ForEachRow([&](const int64_t* off, int64_t n, const int64_t* step) {
    double* o = acc + off[0];
    const X* x = in + off[1];
    if (step[0] == 0) {
      double s = *o;
      for (int64_t i = 0; i < n; ++i) s = fn(s, static_cast<double>(x[i]));
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
  return StrFormat("[%s]", Join(dims, "x").c_str());
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

/// Moves the first element of a `dtype` buffer beyond any tolerance and bit
/// comparison: a finite f32 v becomes v + 1 + |v|, 1 + |v| away (an
/// overflow to inf still differs), a NaN or infinity becomes 0, an i1 flips,
/// and an i64 v becomes ~v = -v - 1, |2v + 1| away and never overflowing.
/// (v + 1 would stay within the default relative tolerance for |v| >= 10^4,
/// and round back to v in double above 2^53.)
void Perturb(DType dtype, void* data) {
  if (dtype == DType::kF32) {
    float& v = *static_cast<float*>(data);
    v = std::isfinite(v)
            ? static_cast<float>(static_cast<double>(v) + 1.0 +
                                 std::abs(static_cast<double>(v)))
            : 0.0f;
  } else {
    int64_t& v = *static_cast<int64_t*>(data);
    v = dtype == DType::kI1 ? 1 - v : ~v;
  }
}

/// A member loop that does nothing (zero-sized results).
MemberLoop NoOp() {
  return [](const Frame&) { return Status::OK(); };
}

// ---------------------------------------------------------------------------
// Binding.

/// Fills a BoundKernel from one signature's shape table.
class Binder {
 public:
  Binder(const FusionGroup& group, const ShapeTable& shapes,
         BoundKernel* bound)
      : group_(group), shapes_(shapes), bound_(*bound), isa_(HostIsa()) {}

  Status Run() {
    bound_.input_dims.reserve(group_.inputs.size());
    for (const Value* input : group_.inputs) {
      const std::span<const int64_t> dims = shapes_.dims(input);
      bound_.input_dims.emplace_back(dims.begin(), dims.end());
    }
    // Reserved up front: Operands point at earlier members' dims.
    bound_.members.reserve(group_.nodes.size());
    for (const Node* node : group_.nodes) {
      const Value* v = node->output(0);
      BoundKernel::Member member;
      const std::span<const int64_t> dims = shapes_.dims(v);
      member.dims.assign(dims.begin(), dims.end());
      const bool is_output = std::find(group_.outputs.begin(),
                                       group_.outputs.end(),
                                       v) != group_.outputs.end();
      bound_.members.push_back(std::move(member));
      BoundKernel::Member& bound = bound_.members.back();
      slots_.push_back(MemberSlot(bound_.members.size() - 1));
      const Operand out{slots_.back(), v->dtype(), &bound.dims};
      if (!is_output && node->kind() == OpKind::kReshape) {
        DISC_ASSIGN_OR_RETURN(slots_.back(), Alias(*node, out));
        continue;
      }
      if (!is_output) {
        bound.scratch_offset =
            Reserve(Product(bound.dims) * StorageSize(v->dtype()));
      }
      DISC_ASSIGN_OR_RETURN(bound.loop, Bind(*node, out));
    }
    bound_.outputs.reserve(group_.outputs.size());
    for (const Value* output : group_.outputs) {
      const int member = MemberIndex(output);
      if (member < 0) {
        return Status::Internal(StrFormat(
            "fused group output %%%d is not produced inside the group",
            output->id()));
      }
      bound_.outputs.push_back(member);
    }
    bound_.table_bytes = RoundUp(
        static_cast<int64_t>((group_.inputs.size() + bound_.members.size()) *
                             sizeof(void*)),
        16);
    return Status::OK();
  }

 private:
  /// A bound value: its slot in the Frame, dtype and dims.
  struct Operand {
    int slot;
    DType dtype;
    const Dims* dims;
  };

  /// The Frame slot of member `member`.
  int MemberSlot(size_t member) const {
    return static_cast<int>(group_.inputs.size() + member);
  }

  /// Reserves `bytes` of the scratch block; returns their offset.
  int64_t Reserve(int64_t bytes) {
    const int64_t offset = bound_.scratch_bytes;
    bound_.scratch_bytes += RoundUp(bytes, 16);
    return offset;
  }

  /// Index of the already bound member producing `v`, or -1.
  int MemberIndex(const Value* v) const {
    for (size_t i = 0; i < bound_.members.size(); ++i) {
      if (group_.nodes[i]->output(0) == v) return static_cast<int>(i);
    }
    return -1;
  }

  /// Whether an f32 member over `walk` may run a vector row: its rows hold
  /// at least RowLanes elements, and the output steps through them densely.
  template <int K>
  bool VectorRows(const Walk<K>& walk) const {
    return isa_ != ContractionIsa::kGeneric &&
           walk.row_length() >= RowLanes(isa_) && walk.row_step(0) == 1;
  }

  /// The copy row for contiguous rows of `length` elements of `dtype`, or
  /// null where they keep the scalar copy.
  UnaryRowFn CopyRow(DType dtype, int64_t length) {
    if (dtype != DType::kF32 || isa_ == ContractionIsa::kGeneric ||
        length < RowLanes(isa_)) {
      return nullptr;
    }
    bound_.row_isa = isa_;
    return SelectCopyRow(isa_);
  }

  /// An operand: a member bound earlier, or a group input.
  Result<Operand> Lookup(const Value* v) const {
    const int member = MemberIndex(v);
    if (member >= 0) {
      return Operand{slots_[member], v->dtype(), &bound_.members[member].dims};
    }
    for (size_t i = 0; i < group_.inputs.size(); ++i) {
      if (group_.inputs[i] == v) {
        return Operand{static_cast<int>(i), v->dtype(),
                       &bound_.input_dims[i]};
      }
    }
    return Status::Internal(StrFormat(
        "value %%%d is neither a group input nor an earlier member",
        v->id()));
  }

  Result<MemberLoop> Bind(const Node& node, const Operand& out) {
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

  Result<MemberLoop> Unary(const Node& node, const Operand& out) {
    DISC_ASSIGN_OR_RETURN(Operand x, Lookup(node.operand(0)));
    DISC_ASSIGN_OR_RETURN(View xv, BroadcastView(node, *x.dims, *out.dims));
    const View ov = DenseView(*out.dims);
    const Walk<2> walk(*out.dims, {&ov, &xv});
    return WithDType(x.dtype, [&](auto in) {
      return WithDType(out.dtype, [&](auto res) {
        return WithUnaryOp(node.kind(), [&](auto op) -> Result<MemberLoop> {
          constexpr DType kIn = decltype(in)::value;
          constexpr DType kOut = decltype(res)::value;
          constexpr OpKind kOp = decltype(op)::value;
          if constexpr (kOp != OpKind::kCast && kOut != kIn &&
                        kOut != DType::kI1) {
            return Mismatch(node, "result dtype");
          } else {
            if constexpr (kIn == DType::kF32 && kOut == DType::kF32) {
              if (VectorRows(walk) && walk.row_step(1) == 1) {
                if (UnaryRowFn row = SelectUnaryRow(isa_, kOp)) {
                  bound_.row_isa = isa_;
                  return MemberLoop([walk, row, src = x.slot,
                                     dst = out.slot](const Frame& f) {
                    MapRows(walk, Slot<kOut>(f, dst), Slot<kIn>(f, src), row);
                    return Status::OK();
                  });
                }
              }
            }
            return MemberLoop([walk, src = x.slot,
                               dst = out.slot](const Frame& f) {
              Map1(walk, Slot<kOut>(f, dst), Slot<kIn>(f, src),
                   [](Storage<kIn> v) {
                     return FromDouble<kOut>(
                         ApplyUnaryScalar(kOp, Widened<kOp>(v)));
                   });
              return Status::OK();
            });
          }
        });
      });
    });
  }

  Result<MemberLoop> Binary(const Node& node, const Operand& out) {
    DISC_ASSIGN_OR_RETURN(Operand a, Lookup(node.operand(0)));
    DISC_ASSIGN_OR_RETURN(Operand b, Lookup(node.operand(1)));
    if (a.dtype != b.dtype) return Mismatch(node, "operand dtypes differ");
    DISC_ASSIGN_OR_RETURN(View av, BroadcastView(node, *a.dims, *out.dims));
    DISC_ASSIGN_OR_RETURN(View bv, BroadcastView(node, *b.dims, *out.dims));
    const View ov = DenseView(*out.dims);
    const Walk<3> walk(*out.dims, {&ov, &av, &bv});
    const Node* n = &node;
    return WithDType(a.dtype, [&](auto in) {
      return WithDType(out.dtype, [&](auto res) {
        return WithBinaryOp(node.kind(), [&](auto op) -> Result<MemberLoop> {
          constexpr DType kIn = decltype(in)::value;
          constexpr DType kOut = decltype(res)::value;
          constexpr OpKind kOp = decltype(op)::value;
          // Integral div/mod checks each element: an undefined quotient is
          // an error, and the trapping division is never executed.
          constexpr bool kChecked =
              IsIntegral(kIn) && (kOp == OpKind::kDiv || kOp == OpKind::kMod);
          if constexpr (kOut != kIn && kOut != DType::kI1) {
            return Mismatch(node, "result dtype");
          } else {
            if constexpr (kIn == DType::kF32 && kOut == DType::kF32) {
              if (VectorRows(walk)) {
                if (BinaryRowFn row = SelectBinaryRow(
                        isa_, kOp, walk.row_step(1), walk.row_step(2))) {
                  bound_.row_isa = isa_;
                  return MemberLoop([walk, row, lhs = a.slot, rhs = b.slot,
                                     dst = out.slot](const Frame& f) {
                    MapRows(walk, Slot<kOut>(f, dst), Slot<kIn>(f, lhs),
                            Slot<kIn>(f, rhs), row);
                    return Status::OK();
                  });
                }
              }
            }
            return MemberLoop([walk, n, lhs = a.slot, rhs = b.slot,
                               dst = out.slot](const Frame& f) -> Status {
              bool undefined = false;
              Map2(walk, Slot<kOut>(f, dst), Slot<kIn>(f, lhs),
                   Slot<kIn>(f, rhs),
                   [&undefined](Storage<kIn> p, Storage<kIn> q) {
                     const double dp = Widened<kOp>(p);
                     const double dq = Widened<kOp>(q);
                     if constexpr (kChecked) {
                       if (IntegralDivisionUndefined(dp, dq)) {
                         undefined = true;
                         return Storage<kOut>{0};
                       }
                     }
                     return FromDouble<kOut>(
                         ApplyBinaryScalar(kOp, dp, dq, kIn));
                   });
              if (undefined) {
                return Status::InvalidArgument(StrFormat(
                    "%s %%%d: integer divisor is zero or the quotient "
                    "overflows",
                    OpName(kOp), n->output(0)->id()));
              }
              return Status::OK();
            });
          }
        });
      });
    });
  }

  Result<MemberLoop> Select(const Node& node, const Operand& out) {
    DISC_ASSIGN_OR_RETURN(Operand pred, Lookup(node.operand(0)));
    DISC_ASSIGN_OR_RETURN(Operand a, Lookup(node.operand(1)));
    DISC_ASSIGN_OR_RETURN(Operand b, Lookup(node.operand(2)));
    if (pred.dtype != DType::kI1 || a.dtype != b.dtype ||
        out.dtype != a.dtype) {
      return Mismatch(node, "operand dtypes");
    }
    DISC_ASSIGN_OR_RETURN(View pv, BroadcastView(node, *pred.dims, *out.dims));
    DISC_ASSIGN_OR_RETURN(View av, BroadcastView(node, *a.dims, *out.dims));
    DISC_ASSIGN_OR_RETURN(View bv, BroadcastView(node, *b.dims, *out.dims));
    const View ov = DenseView(*out.dims);
    const Walk<4> walk(*out.dims, {&ov, &pv, &av, &bv});
    return WithDType(out.dtype, [&](auto tag) -> Result<MemberLoop> {
      constexpr DType kD = decltype(tag)::value;
      return MemberLoop([walk, cond = pred.slot, lhs = a.slot, rhs = b.slot,
                         dst = out.slot](const Frame& f) {
        Map3(walk, Slot<kD>(f, dst), Slot<DType::kI1>(f, cond),
             Slot<kD>(f, lhs), Slot<kD>(f, rhs),
             [](int64_t c, Storage<kD> u, Storage<kD> v) {
               return FromDouble<kD>(static_cast<double>(c != 0 ? u : v));
             });
        return Status::OK();
      });
    });
  }

  Result<MemberLoop> Reduce(const Node& node, const Operand& out) {
    DISC_ASSIGN_OR_RETURN(Operand x, Lookup(node.operand(0)));
    const Dims& in = *x.dims;
    const Dims& dims = *out.dims;
    if (out.dtype != x.dtype) return Mismatch(node, "result dtype");
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
    const int64_t cells = Product(dims);

    // Over the trailing dims (size-1 dims aside), output cell r reduces row
    // r of the input seen as a dense [cells, count] matrix.
    bool trailing = true, reducing = false;
    for (size_t d = 0; d < in.size(); ++d) {
      if (in[d] == 1) continue;
      if (reduced[d]) {
        reducing = true;
      } else if (reducing) {
        trailing = false;
      }
    }
    if (x.dtype == DType::kF32 && isa_ != ContractionIsa::kGeneric &&
        trailing && count > 0) {
      if (RowReduceFn reduce = SelectRowReduce(isa_, node.kind())) {
        bound_.row_isa = isa_;
        return MemberLoop([reduce, cells, count, src = x.slot,
                           dst = out.slot](const Frame& f) {
          reduce(Slot<DType::kF32>(f, dst), Slot<DType::kF32>(f, src), cells,
                 count);
          return Status::OK();
        });
      }
    }

    double init = 0.0;
    if (node.kind() == OpKind::kReduceMax) {
      init = -std::numeric_limits<double>::infinity();
    } else if (node.kind() == OpKind::kReduceMin) {
      init = std::numeric_limits<double>::infinity();
    }
    const int64_t acc_offset = Reserve(cells * sizeof(double));
    const bool mean = node.kind() == OpKind::kReduceMean && count > 0;
    const View iv = DenseView(in);
    const Walk<2> walk(in, {&av, &iv});
    return WithDType(x.dtype, [&](auto tag) -> Result<MemberLoop> {
      constexpr DType kD = decltype(tag)::value;
      auto loop = [&, src = x.slot, dst = out.slot](auto combine) {
        return MemberLoop([walk, src, dst, acc_offset, cells, init, mean,
                           count, combine](const Frame& f) {
          double* acc = reinterpret_cast<double*>(f.scratch + acc_offset);
          std::fill_n(acc, cells, init);
          Accumulate(walk, Slot<kD>(f, src), acc, combine);
          Storage<kD>* out = Slot<kD>(f, dst);
          for (int64_t i = 0; i < cells; ++i) {
            out[i] = FromDouble<kD>(
                mean ? acc[i] / static_cast<double>(count) : acc[i]);
          }
          return Status::OK();
        });
      };
      switch (node.kind()) {
        case OpKind::kReduceMax:
          return loop([](double a, double v) { return std::max(a, v); });
        case OpKind::kReduceMin:
          return loop([](double a, double v) { return std::min(a, v); });
        default:
          return loop([](double a, double v) { return a + v; });
      }
    });
  }

  Result<MemberLoop> Iota(const Node& node, const Operand& out) {
    const Dims& dims = *out.dims;
    if (Product(dims) == 0) return NoOp();
    const int64_t axis = node.GetIntAttr("axis", 0);
    if (axis < 0 || axis >= static_cast<int64_t>(dims.size())) {
      return Mismatch(node, "axis out of range");
    }
    const int64_t outer = ProductOf(dims, 0, axis);
    const int64_t extent = dims[axis];
    const int64_t inner = ProductOf(dims, axis + 1, dims.size());
    return WithDType(out.dtype, [&](auto tag) -> Result<MemberLoop> {
      constexpr DType kD = decltype(tag)::value;
      return MemberLoop([outer, extent, inner,
                         dst_slot = out.slot](const Frame& f) {
        Storage<kD>* dst = Slot<kD>(f, dst_slot);
        for (int64_t r = 0; r < outer; ++r) {
          for (int64_t i = 0; i < extent; ++i) {
            dst = std::fill_n(dst, inner,
                              FromDouble<kD>(static_cast<double>(i)));
          }
        }
        return Status::OK();
      });
    });
  }

  /// A loop that copies src[sv(i)] to dst[dv(i)] over `dims`; both share a
  /// dtype.
  Result<MemberLoop> CopyLoop(const Node& node, const Operand& dst,
                              const View& dv, const Operand& src,
                              const View& sv, const Dims& dims) {
    if (src.dtype != dst.dtype) {
      return Mismatch(node, "operand dtype differs from the result's");
    }
    const Walk<2> walk(dims, {&dv, &sv});
    if (walk.row_step(0) == 1 && walk.row_step(1) == 1) {
      if (UnaryRowFn row = CopyRow(dst.dtype, walk.row_length())) {
        return MemberLoop([walk, row, d = dst.slot, s = src.slot](
                              const Frame& f) {
          MapRows(walk, Slot<DType::kF32>(f, d), Slot<DType::kF32>(f, s), row);
          return Status::OK();
        });
      }
    }
    return WithDType(dst.dtype, [&](auto tag) -> Result<MemberLoop> {
      constexpr DType kD = decltype(tag)::value;
      return MemberLoop([walk, d = dst.slot, s = src.slot](const Frame& f) {
        Copy<kD>(walk, Slot<kD>(f, d), Slot<kD>(f, s));
        return Status::OK();
      });
    });
  }

  Result<MemberLoop> Transpose(const Node& node, const Operand& out) {
    DISC_ASSIGN_OR_RETURN(Operand x, Lookup(node.operand(0)));
    const Dims& in = *x.dims;
    const Dims& dims = *out.dims;
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
    return CopyLoop(node, out, DenseView(dims), x, xv, dims);
  }

  /// The operand of reshape `node`, checked against its result `out`.
  Result<Operand> ReshapeOperand(const Node& node, const Operand& out) const {
    DISC_ASSIGN_OR_RETURN(Operand x, Lookup(node.operand(0)));
    if (Product(*x.dims) != Product(*out.dims)) {
      return Mismatch(node, "element count changes from " +
                                DimsString(*x.dims) + " to " +
                                DimsString(*out.dims));
    }
    if (x.dtype != out.dtype) {
      return Mismatch(node, "operand dtype differs from the result's");
    }
    return x;
  }

  /// A reshape that is not a group output: its consumers read the
  /// operand's buffer, whose slot this returns (see the file comment).
  Result<int> Alias(const Node& node, const Operand& out) const {
    DISC_ASSIGN_OR_RETURN(Operand x, ReshapeOperand(node, out));
    return x.slot;
  }

  Result<MemberLoop> Reshape(const Node& node, const Operand& out) {
    DISC_ASSIGN_OR_RETURN(Operand x, ReshapeOperand(node, out));
    const Dims flat = {Product(*out.dims)};
    return CopyLoop(node, out, DenseView(flat), x, DenseView(flat), flat);
  }

  Result<MemberLoop> BroadcastTo(const Node& node, const Operand& out) {
    DISC_ASSIGN_OR_RETURN(Operand x, Lookup(node.operand(0)));
    DISC_ASSIGN_OR_RETURN(View xv, BroadcastView(node, *x.dims, *out.dims));
    return CopyLoop(node, out, DenseView(*out.dims), x, xv, *out.dims);
  }

  Result<MemberLoop> Slice(const Node& node, const Operand& out) {
    DISC_ASSIGN_OR_RETURN(Operand x, Lookup(node.operand(0)));
    const Dims& in = *x.dims;
    const Dims& dims = *out.dims;
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
    return CopyLoop(node, out, DenseView(dims), x, xv, dims);
  }

  Result<MemberLoop> Pad(const Node& node, const Operand& out) {
    DISC_ASSIGN_OR_RETURN(Operand x, Lookup(node.operand(0)));
    const Dims& in = *x.dims;
    const Dims& dims = *out.dims;
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
    DISC_ASSIGN_OR_RETURN(MemberLoop copy,
                          CopyLoop(node, out, interior, x, DenseView(in), in));
    const double pad_value = node.GetFloatAttr("pad_value", 0.0);
    const int64_t cells = Product(dims);
    return WithDType(out.dtype, [&](auto tag) -> Result<MemberLoop> {
      constexpr DType kD = decltype(tag)::value;
      return MemberLoop([copy = std::move(copy), cells, dst = out.slot,
                         fill = FromDouble<kD>(pad_value)](const Frame& f) {
        std::fill_n(Slot<kD>(f, dst), cells, fill);
        return copy(f);
      });
    });
  }

  Result<MemberLoop> Concat(const Node& node, const Operand& out) {
    const Dims& dims = *out.dims;
    const int64_t axis = node.GetIntAttr("axis", 0);
    if (axis < 0 || axis >= static_cast<int64_t>(dims.size())) {
      return Mismatch(node, "axis out of range");
    }
    const Dims out_strides = RowMajorStrides(dims);
    std::vector<MemberLoop> parts;
    int64_t pos = 0;  // where the next part starts along `axis`
    for (const Value* operand : node.operands()) {
      DISC_ASSIGN_OR_RETURN(Operand part, Lookup(operand));
      const Dims& pd = *part.dims;
      bool fits = pd.size() == dims.size() && pos + pd[axis] <= dims[axis];
      for (size_t d = 0; fits && d < dims.size(); ++d) {
        fits = static_cast<int64_t>(d) == axis || pd[d] == dims[d];
      }
      if (!fits) {
        return Mismatch(node, "part " + DimsString(pd) + " does not fit " +
                                  DimsString(dims));
      }
      const View at{pos * out_strides[axis], out_strides};
      DISC_ASSIGN_OR_RETURN(MemberLoop copy,
                            CopyLoop(node, out, at, part, DenseView(pd), pd));
      parts.push_back(std::move(copy));
      pos += pd[axis];
    }
    if (pos != dims[axis]) {
      return Mismatch(node, "parts do not fill " + DimsString(dims));
    }
    return MemberLoop([parts = std::move(parts)](const Frame& f) {
      for (const MemberLoop& part : parts) DISC_RETURN_IF_ERROR(part(f));
      return Status::OK();
    });
  }

  Result<MemberLoop> Gather(const Node& node, const Operand& out) {
    DISC_ASSIGN_OR_RETURN(Operand data, Lookup(node.operand(0)));
    DISC_ASSIGN_OR_RETURN(Operand indices, Lookup(node.operand(1)));
    const Dims& dd = *data.dims;
    const int64_t axis = node.GetIntAttr("axis", 0);
    if (!IsIntegral(indices.dtype) || data.dtype != out.dtype || axis < 0 ||
        axis >= static_cast<int64_t>(dd.size())) {
      return Mismatch(node, "operands");
    }
    Dims expected(dd.begin(), dd.begin() + axis);
    expected.insert(expected.end(), indices.dims->begin(),
                    indices.dims->end());
    expected.insert(expected.end(), dd.begin() + axis + 1, dd.end());
    if (expected != *out.dims) {
      return Mismatch(node, "result " + DimsString(*out.dims) +
                                " should be " + DimsString(expected));
    }
    if (Product(*out.dims) == 0) return NoOp();
    const int64_t prefix = ProductOf(dd, 0, axis);
    const int64_t rows = dd[axis];
    const int64_t suffix = ProductOf(dd, axis + 1, dd.size());
    const int64_t count = Product(*indices.dims);
    const UnaryRowFn copy = CopyRow(out.dtype, suffix);
    return WithDType(out.dtype, [&](auto tag) -> Result<MemberLoop> {
      constexpr DType kD = decltype(tag)::value;
      return MemberLoop([prefix, rows, suffix, count, copy,
                         src_slot = data.slot, ids_slot = indices.slot,
                         dst_slot = out.slot](const Frame& f) -> Status {
        const Storage<kD>* src = Slot<kD>(f, src_slot);
        const int64_t* ids = Slot<DType::kI64>(f, ids_slot);
        Storage<kD>* dst = Slot<kD>(f, dst_slot);
        for (int64_t p = 0; p < prefix; ++p) {
          for (int64_t j = 0; j < count; ++j) {
            const int64_t row = ids[j];
            if (row < 0 || row >= rows) {
              return Status::InvalidArgument("gather: index out of bounds");
            }
            const Storage<kD>* from = src + (p * rows + row) * suffix;
            if constexpr (kD == DType::kF32) {
              if (copy != nullptr) {
                copy(dst, from, suffix);
                dst += suffix;
                continue;
              }
            }
            for (int64_t s = 0; s < suffix; ++s) {
              *dst++ = FromDouble<kD>(static_cast<double>(from[s]));
            }
          }
        }
        return Status::OK();
      });
    });
  }

  const FusionGroup& group_;
  const ShapeTable& shapes_;
  BoundKernel& bound_;
  const ContractionIsa isa_;  // the row ISA every member may choose
  std::vector<int> slots_;    // the Frame slot of each bound member's value
};

}  // namespace

Result<KernelBinding> FusedKernel::Bind(const ShapeTable& shapes) const {
  auto bound = std::make_shared<BoundKernel>();
  bound->kernel = this;
  DISC_RETURN_IF_ERROR(Binder(group_, shapes, bound.get()).Run());
  return KernelBinding(std::move(bound));
}

ContractionIsa FusedKernel::RowIsa(const KernelBinding& binding) const {
  return binding == nullptr ? ContractionIsa::kGeneric : binding->row_isa;
}

int64_t FusedKernel::ScratchBytes(const KernelBinding& binding) const {
  return binding == nullptr ? 0 : binding->table_bytes + binding->scratch_bytes;
}

Status FusedKernel::Execute(
    const SymbolBindings& bindings,
    std::unordered_map<const Value*, Tensor>* env) const {
  DISC_ASSIGN_OR_RETURN(ShapeTable shapes, analysis_->EvaluateShapes(bindings));
  DISC_ASSIGN_OR_RETURN(KernelBinding binding, Bind(shapes));
  return Execute(binding, env);
}

Status FusedKernel::Execute(
    const KernelBinding& binding,
    std::unordered_map<const Value*, Tensor>* env) const {
  if (binding == nullptr || binding->kernel != this) {
    return Status::Internal("kernel " + name_ +
                            " executed without its binding");
  }
  const BoundKernel& bound = *binding;
  const size_t num_inputs = group_.inputs.size();
  const size_t num_values = num_inputs + group_.outputs.size();
  // One block: the core's scratch, then the value table (the group inputs,
  // then the group outputs) and its indices.
  const int64_t scratch_bytes = ScratchBytes(binding);
  std::unique_ptr<std::byte[]> block(new std::byte[
      scratch_bytes + num_values * (sizeof(void*) + sizeof(int))]);
  void** values = reinterpret_cast<void**>(block.get() + scratch_bytes);
  int* indices = reinterpret_cast<int*>(values + num_values);
  for (size_t i = 0; i < num_values; ++i) indices[i] = static_cast<int>(i);
  for (size_t i = 0; i < num_inputs; ++i) {
    const Value* input = group_.inputs[i];
    auto it = env->find(input);
    if (it == env->end()) {
      return Status::Internal(StrFormat(
          "fused kernel input %%%d was not computed", input->id()));
    }
    Tensor& t = it->second;
    if (t.dtype() != input->dtype() || t.dims() != bound.input_dims[i]) {
      return Status::Internal(StrFormat(
          "fused kernel input %%%d is %s; the shape analysis predicts %s%s",
          input->id(), t.TypeString().c_str(), DTypeName(input->dtype()),
          DimsString(bound.input_dims[i]).c_str()));
    }
    values[i] = t.raw_data();  // only read
  }
  std::vector<Tensor> outputs;
  outputs.reserve(group_.outputs.size());
  for (size_t o = 0; o < group_.outputs.size(); ++o) {
    outputs.emplace_back(group_.outputs[o]->dtype(),
                         bound.members[bound.outputs[o]].dims);
    values[num_inputs + o] = outputs.back().raw_data();
  }
  DISC_RETURN_IF_ERROR(Execute(
      binding,
      KernelBuffers{values, indices, indices + num_inputs, block.get()}));
  for (size_t o = 0; o < outputs.size(); ++o) {
    env->emplace(group_.outputs[o], std::move(outputs[o]));
  }
  return Status::OK();
}

Status FusedKernel::Execute(const KernelBinding& binding,
                            const KernelBuffers& buffers) const {
  if (binding == nullptr || binding->kernel != this) {
    return Status::Internal("kernel " + name_ +
                            " executed without its binding");
  }
  const BoundKernel& bound = *binding;
  const size_t num_inputs = group_.inputs.size();
  void** slots = reinterpret_cast<void**>(buffers.scratch);
  std::byte* scratch = buffers.scratch + bound.table_bytes;
  for (size_t i = 0; i < num_inputs; ++i) {
    slots[i] = buffers.values[buffers.inputs[i]];
  }
  for (size_t o = 0; o < group_.outputs.size(); ++o) {
    slots[num_inputs + bound.outputs[o]] = buffers.values[buffers.outputs[o]];
  }
  for (size_t m = 0; m < bound.members.size(); ++m) {
    const int64_t offset = bound.members[m].scratch_offset;
    if (offset >= 0) slots[num_inputs + m] = scratch + offset;
  }

  const Frame frame{slots, scratch};
  for (const BoundKernel::Member& member : bound.members) {
    if (member.loop) DISC_RETURN_IF_ERROR(member.loop(frame));
  }
  if (miscompiled_) {
    // Injected miscompile: perturb one element of the first non-empty group
    // output, wherever the caller keeps it. Deterministic (same wrong answer
    // every run) so differential validation can prove exactly which
    // artifact is bad.
    for (size_t o = 0; o < group_.outputs.size(); ++o) {
      const int member = bound.outputs[o];
      if (Product(bound.members[member].dims) == 0) continue;
      Perturb(group_.outputs[o]->dtype(), slots[num_inputs + member]);
      break;
    }
  }
  return Status::OK();
}

}  // namespace disc
