#include "kernel/kernel.h"

#include <sstream>

#include "support/logging.h"
#include "support/math_util.h"
#include "support/string_util.h"

namespace disc {

const char* ReduceScheduleName(ReduceSchedule schedule) {
  switch (schedule) {
    case ReduceSchedule::kNone:
      return "none";
    case ReduceSchedule::kWarpPerRow:
      return "warp_per_row";
    case ReduceSchedule::kBlockPerRow:
      return "block_per_row";
  }
  return "?";
}

std::string KernelVariant::ToString() const {
  std::ostringstream out;
  out << name;
  out << " [vec=" << vector_width;
  if (broadcast_free) out << ", bcast-free";
  if (exact_shape) out << ", exact-shape";
  if (schedule != ReduceSchedule::kNone) {
    out << ", " << ReduceScheduleName(schedule);
  }
  out << "] guard: " << guard.ToString();
  return out.str();
}

int64_t OpFlopCost(OpKind kind) {
  switch (kind) {
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kSqrt:
    case OpKind::kRsqrt:
    case OpKind::kTanh:
    case OpKind::kErf:
    case OpKind::kSigmoid:
    case OpKind::kPow:
      return 8;  // SFU-heavy transcendental
    case OpKind::kDiv:
    case OpKind::kReciprocal:
      return 4;
    case OpKind::kTranspose:
    case OpKind::kReshape:
    case OpKind::kBroadcastTo:
    case OpKind::kConcat:
    case OpKind::kSlice:
    case OpKind::kPad:
    case OpKind::kGather:
    case OpKind::kShapeOf:
    case OpKind::kDim:
    case OpKind::kConstant:
      return 0;  // pure data movement / host
    default:
      return 1;
  }
}

// Declared in specialize.cc.
void BuildVariants(FusedKernel* kernel, const SpecializeOptions& options);

FusedKernel::FusedKernel(FusionGroup group, const ShapeAnalysis* analysis,
                         const SpecializeOptions& options)
    : group_(std::move(group)), analysis_(analysis) {
  name_ = StrFormat("%s_fusion_%d", FusionKindName(group_.kind), group_.id);
  DISC_CHECK(group_.root != nullptr);
  root_elements_ = analysis_->manager().Canonicalize(
      SymShapeNumElements(analysis_->GetShape(group_.root->output(0))));
  // Row extent from the first reduction member, if any.
  for (const Node* node : group_.nodes) {
    if (!IsReduction(node->kind())) continue;
    const SymShape& in = analysis_->GetShape(node->operand(0));
    const auto& dims = node->GetIntListAttr("dims");
    std::vector<DimExpr> factors;
    for (int64_t d : dims) factors.push_back(in[d]);
    row_extent_ =
        analysis_->manager().Canonicalize(DimExpr::Mul(std::move(factors)));
    row_count_ = analysis_->manager().Canonicalize(
        DimExpr::FloorDiv(SymShapeNumElements(in), row_extent_));
    break;
  }
  BuildVariants(this, options);
}

std::vector<KernelVariant> FusedKernel::VariantsUnder(
    const SpecializeOptions& options) const {
  // Re-run variant generation on a scratch kernel over the same group and
  // analysis. Cheap (no codegen, just guard construction) and guarantees
  // the counterfactual uses exactly the compile-time preference order.
  FusedKernel scratch(group_, analysis_, options);
  return std::move(scratch.variants_);
}

Result<const KernelVariant*> FusedKernel::SelectVariant(
    const SymbolBindings& bindings) const {
  DISC_ASSIGN_OR_RETURN(int index, SelectVariantIndex(bindings));
  return &variants_[index];
}

Result<int> FusedKernel::SelectVariantIndex(
    const SymbolBindings& bindings) const {
  if (guard_mispredict_ && variants_.size() > 1) {
    // Injected guard miscompile: dispatch the first (most specialized)
    // variant without consulting its guard. At bindings the guard would
    // reject, this is exactly the wrong-variant bug the admission gate's
    // per-probe guard re-evaluation must catch.
    return 0;
  }
  for (size_t i = 0; i < variants_.size(); ++i) {
    DISC_ASSIGN_OR_RETURN(bool admitted,
                          variants_[i].guard.Evaluate(bindings));
    if (admitted) return static_cast<int>(i);
  }
  return Status::Internal("no variant admitted (missing generic fallback?)");
}

KernelStats FusedKernel::ComputeStats(const ShapeTable& shapes,
                                      const KernelVariant& variant) const {
  KernelStats stats;
  for (const Value* input : group_.inputs) {
    stats.bytes_read += shapes.num_elements(input) * DTypeSize(input->dtype());
  }
  for (const Value* output : group_.outputs) {
    stats.bytes_written +=
        shapes.num_elements(output) * DTypeSize(output->dtype());
  }
  for (const Node* node : group_.nodes) {
    int64_t cost = OpFlopCost(node->kind());
    int64_t domain;
    if (IsReduction(node->kind())) {
      domain = shapes.num_elements(node->operand(0));
      cost = std::max<int64_t>(cost, 1);
    } else {
      domain = shapes.num_elements(node->output(0));
    }
    stats.flops += domain * cost;
    // Index arithmetic: eliminated by the broadcast-free specialization,
    // otherwise proportional to rank per element.
    if (!variant.broadcast_free) {
      stats.index_ops += domain * std::max<int64_t>(
                                      1, node->output(0)->rank());
    } else {
      stats.index_ops += domain;
    }
  }
  const int64_t root_elems = shapes.num_elements(group_.root->output(0));
  // Rows are counted over the first reduction's input space, and a row is
  // the product of its reduced dims (row_extent_).
  int64_t row = 0;
  int64_t rows = 0;
  if (row_extent_.valid()) {
    for (const Node* node : group_.nodes) {
      if (!IsReduction(node->kind())) continue;
      const std::span<const int64_t> in = shapes.dims(node->operand(0));
      row = 1;
      for (int64_t d : node->GetIntListAttr("dims")) row *= in[d];
      rows = row > 0 ? shapes.num_elements(node->operand(0)) / row : 0;
      break;
    }
  }

  switch (variant.schedule) {
    case ReduceSchedule::kNone: {
      int64_t elems = CeilDiv(root_elems, variant.vector_width);
      stats.threads_per_block = 256;
      stats.num_blocks = std::max<int64_t>(1, CeilDiv(elems, 256));
      break;
    }
    case ReduceSchedule::kWarpPerRow: {
      stats.threads_per_block = 256;  // 8 warps per block
      stats.num_blocks = std::max<int64_t>(1, CeilDiv(rows, 8));
      break;
    }
    case ReduceSchedule::kBlockPerRow: {
      stats.threads_per_block =
          std::min<int64_t>(1024, std::max<int64_t>(32, RoundUp(row, 32)));
      stats.num_blocks = std::max<int64_t>(1, rows);
      break;
    }
  }
  if (kind() == FusionKind::kStitch) {
    // Each stitched stage stages one f32 row in shared memory; charge two
    // staging buffers (ping-pong).
    stats.shared_mem_bytes = row * 4 * 2;
  }
  return stats;
}

std::string FusedKernel::ToString() const {
  std::ostringstream out;
  out << name_ << " (" << FusionKindName(kind()) << ", " << group_.size()
      << " ops, domain=" << root_elements_.ToString();
  if (row_extent_.valid()) out << ", row=" << row_extent_.ToString();
  out << ")\n";
  for (const KernelVariant& variant : variants_) {
    out << "  variant " << variant.ToString() << "\n";
  }
  return out.str();
}

}  // namespace disc
