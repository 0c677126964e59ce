#include "shape/shape_analysis.h"

#include <algorithm>
#include <string_view>

#include "support/json.h"
#include "support/logging.h"
#include "support/string_util.h"

namespace disc {

namespace {

DimExpr Sub(const DimExpr& a, const DimExpr& b) {
  return DimExpr::Add(a, DimExpr::Mul(DimExpr::Const(-1), b));
}

}  // namespace

std::string ConstraintRecord::ToString() const {
  std::string from = node_id >= 0
                         ? "%" + std::to_string(node_id) + " (" + source + ")"
                         : source;
  return kind + ": " + detail + "  <- " + from;
}

void ShapeAnalysis::Excavated(const char* kind, std::string detail) {
  ConstraintRecord record;
  record.kind = kind;
  record.detail = std::move(detail);
  if (current_node_ != nullptr) {
    record.node_id = current_node_->output(0)->id();
    record.source = OpName(current_node_->kind());
  } else {
    record.source = "input";
  }
  constraint_log_.push_back(std::move(record));
}

std::string ShapeAnalysis::ConstraintsJson() const {
  JsonValue::Array records;
  for (const ConstraintRecord& record : constraint_log_) {
    JsonValue::Object entry;
    entry.emplace("kind", JsonValue(record.kind));
    entry.emplace("constraint", JsonValue(record.detail));
    entry.emplace("node", JsonValue(static_cast<int64_t>(record.node_id)));
    entry.emplace("source", JsonValue(record.source));
    records.emplace_back(std::move(entry));
  }
  JsonValue::Object doc;
  doc.emplace("constraints", JsonValue(std::move(records)));
  SymbolicDimManager::Stats stats = manager_.GetStats();
  JsonValue::Object stats_obj;
  stats_obj.emplace("num_symbols", JsonValue(stats.num_symbols));
  stats_obj.emplace("num_classes", JsonValue(stats.num_classes));
  stats_obj.emplace("num_known_constants", JsonValue(stats.num_known_constants));
  stats_obj.emplace("num_product_facts", JsonValue(stats.num_product_facts));
  doc.emplace("stats", JsonValue(std::move(stats_obj)));
  return JsonValue(std::move(doc)).SerializePretty();
}

ShapeAnalysis::ShapeAnalysis(
    const Graph* graph, std::vector<std::vector<std::string>> input_dim_labels)
    : graph_(graph), input_dim_labels_(std::move(input_dim_labels)) {}

void ShapeAnalysis::SetShape(const Value* v, SymShape shape) {
  shapes_[v] = std::move(shape);
}

void ShapeAnalysis::SetContent(const Value* v, std::vector<DimExpr> content) {
  contents_[v] = std::move(content);
}

const SymShape& ShapeAnalysis::GetShape(const Value* v) const {
  auto it = shapes_.find(v);
  DISC_CHECK(it != shapes_.end())
      << "no symbolic shape for %" << v->id() << " (did Run() succeed?)";
  return it->second;
}

const std::vector<DimExpr>* ShapeAnalysis::GetContent(const Value* v) const {
  auto it = contents_.find(v);
  return it == contents_.end() ? nullptr : &it->second;
}

Status ShapeAnalysis::Run() {
  if (ran_) return Status::OK();

  // Seed graph inputs: static dims become constants; dynamic dims become
  // labelled (shared) or anonymous symbols.
  std::unordered_map<std::string, SymbolId> label_to_symbol;
  const auto& inputs = graph_->inputs();
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Value* input = inputs[i];
    SymShape shape;
    for (int64_t d = 0; d < input->rank(); ++d) {
      int64_t dim = input->type().dims[d];
      if (dim != kDynamicDim) {
        shape.push_back(DimExpr::Const(dim));
        continue;
      }
      std::string label;
      if (i < input_dim_labels_.size() &&
          d < static_cast<int64_t>(input_dim_labels_[i].size())) {
        label = input_dim_labels_[i][d];
      }
      if (!label.empty()) {
        auto [it, inserted] = label_to_symbol.try_emplace(label, -1);
        if (inserted) it->second = manager_.NewSymbol(label);
        shape.push_back(DimExpr::Symbol(it->second));
      } else {
        shape.push_back(DimExpr::Symbol(
            manager_.NewSymbol(input->name() + ".d" + std::to_string(d))));
      }
    }
    SetShape(input, std::move(shape));
  }

  const std::vector<Node*> order = graph_->TopologicalOrder();
  for (const Node* node : order) {
    current_node_ = node;
    Status status = ProcessNode(node);
    current_node_ = nullptr;
    DISC_RETURN_IF_ERROR(status);
  }

  // The runtime shape program. Later hints (likely values, divisibility)
  // leave every canonical form as it is: Canonicalize reads only the
  // union-find roots and the known values.
  // Keyed by views of the recorded expressions' own canonical text.
  std::unordered_map<std::string_view, uint32_t> expr_index;
  auto record = [&](const Value* v) {
    auto it = shapes_.find(v);
    if (it == shapes_.end()) return;
    if (dim_ranges_.size() <= static_cast<size_t>(v->id())) {
      dim_ranges_.resize(v->id() + 1);
    }
    dim_ranges_[v->id()] = {static_cast<int32_t>(dim_expr_of_.size()),
                            static_cast<int32_t>(it->second.size())};
    for (const DimExpr& dim : it->second) {
      DimExpr canonical = manager_.Canonicalize(dim);
      auto pos = expr_index.find(canonical.ToString());
      if (pos == expr_index.end()) {
        dim_exprs_.push_back(std::move(canonical));
        pos = expr_index
                  .emplace(dim_exprs_.back().ToString(),
                           static_cast<uint32_t>(dim_exprs_.size() - 1))
                  .first;
      }
      dim_expr_of_.push_back(pos->second);
    }
  };
  for (const Value* input : inputs) record(input);
  for (const Node* node : order) {
    for (const Value* out : node->outputs()) record(out);
  }
  ran_ = true;
  return Status::OK();
}

Result<DimExpr> ShapeAnalysis::CombineBroadcastDims(const DimExpr& a,
                                                    const DimExpr& b) {
  DimExpr ca = manager_.Canonicalize(a);
  DimExpr cb = manager_.Canonicalize(b);
  if (ca.Equals(cb)) return ca;
  if (ca.IsConstValue(1)) return cb;
  if (cb.IsConstValue(1)) return ca;
  if (ca.IsConst() && cb.IsConst()) {
    if (ca.const_value() != cb.const_value()) {
      return Status::InvalidArgument("broadcast mismatch: " + ca.ToString() +
                                     " vs " + cb.ToString());
    }
    return ca;
  }
  // Excavation: non-1 dims of an elementwise op must agree at runtime.
  if (ca.IsSymbol() && cb.IsSymbol()) {
    DISC_RETURN_IF_ERROR(manager_.MergeSymbols(ca.symbol(), cb.symbol()));
    Excavated("merge-symbols", ca.ToString() + " == " + cb.ToString());
    return manager_.Canonicalize(ca);
  }
  if (ca.IsSymbol() && cb.IsConst()) {
    DISC_RETURN_IF_ERROR(manager_.SetValue(ca.symbol(), cb.const_value()));
    Excavated("set-value", ca.ToString() + " == " + cb.ToString());
    return cb;
  }
  if (cb.IsSymbol() && ca.IsConst()) {
    DISC_RETURN_IF_ERROR(manager_.SetValue(cb.symbol(), ca.const_value()));
    Excavated("set-value", cb.ToString() + " == " + ca.ToString());
    return ca;
  }
  // Compound expressions we cannot unify; keep one side (they must be equal
  // at runtime for the op to be valid).
  return ca;
}

Status ShapeAnalysis::InferElementwise(const Node* node) {
  // numpy-style right alignment across all operands.
  int64_t rank = 0;
  for (const Value* operand : node->operands()) {
    rank = std::max(rank, operand->rank());
  }
  SymShape out(rank, DimExpr::Const(1));
  for (const Value* operand : node->operands()) {
    const SymShape& in = GetShape(operand);
    int64_t offset = rank - static_cast<int64_t>(in.size());
    for (size_t d = 0; d < in.size(); ++d) {
      DISC_ASSIGN_OR_RETURN(out[offset + d],
                            CombineBroadcastDims(out[offset + d], in[d]));
    }
  }
  SetShape(node->output(0), std::move(out));

  // Content propagation for shape arithmetic on tracked i64 tensors.
  if (node->output(0)->dtype() == DType::kI64 ||
      node->kind() == OpKind::kCast) {
    auto content_of = [this](const Value* v) { return GetContent(v); };
    switch (node->kind()) {
      case OpKind::kCast: {
        if (const auto* c = content_of(node->operand(0))) {
          SetContent(node->output(0), *c);
        }
        break;
      }
      case OpKind::kAdd:
      case OpKind::kMul:
      case OpKind::kDiv: {
        const auto* ca = content_of(node->operand(0));
        const auto* cb = content_of(node->operand(1));
        if (ca && cb &&
            (ca->size() == cb->size() || ca->size() == 1 || cb->size() == 1)) {
          size_t n = std::max(ca->size(), cb->size());
          std::vector<DimExpr> out_content;
          for (size_t i = 0; i < n; ++i) {
            const DimExpr& x = (*ca)[ca->size() == 1 ? 0 : i];
            const DimExpr& y = (*cb)[cb->size() == 1 ? 0 : i];
            if (node->kind() == OpKind::kAdd) {
              out_content.push_back(DimExpr::Add(x, y));
            } else if (node->kind() == OpKind::kMul) {
              out_content.push_back(DimExpr::Mul(x, y));
            } else {
              out_content.push_back(DimExpr::FloorDiv(x, y));
            }
          }
          SetContent(node->output(0), std::move(out_content));
        }
        break;
      }
      default:
        break;
    }
  }
  return Status::OK();
}

SymShape ShapeAnalysis::ResolveTarget(const Node* node,
                                      int64_t attr_rank_fallback) {
  // Priority 1: static attribute.
  if (node->HasAttr("new_shape")) {
    const auto& dims = node->GetIntListAttr("new_shape");
    SymShape target;
    for (int64_t d : dims) {
      target.push_back(d == kDynamicDim ? DimExpr() : DimExpr::Const(d));
    }
    return target;
  }
  // Priority 2: tracked contents of the shape operand.
  if (node->num_operands() >= 2) {
    if (const auto* content = GetContent(node->operand(1))) {
      return *content;
    }
    // Rank is the static length of the shape operand.
    int64_t rank = node->operand(1)->type().dims[0];
    DISC_CHECK_NE(rank, kDynamicDim);
    return SymShape(rank, DimExpr());
  }
  return SymShape(attr_rank_fallback, DimExpr());
}

Status ShapeAnalysis::ProcessNode(const Node* node) {
  const OpInfo& info = GetOpInfo(node->kind());
  const Value* out = node->output(0);

  switch (node->kind()) {
    case OpKind::kConstant: {
      const Tensor& t = node->GetTensorAttr("value");
      SymShape shape;
      for (int64_t d : t.dims()) shape.push_back(DimExpr::Const(d));
      SetShape(out, std::move(shape));
      if (t.dtype() == DType::kI64 && t.rank() <= 1) {
        std::vector<DimExpr> content;
        for (int64_t i = 0; i < t.num_elements(); ++i) {
          content.push_back(DimExpr::Const(t.i64_data()[i]));
        }
        SetContent(out, std::move(content));
      }
      return Status::OK();
    }

    case OpKind::kIota: {
      if (node->HasAttr("dims")) {
        SymShape shape;
        for (int64_t d : node->GetIntListAttr("dims")) {
          shape.push_back(DimExpr::Const(d));
        }
        SetShape(out, std::move(shape));
      } else {
        SymShape target = ResolveTarget(node, out->rank());
        for (size_t i = 0; i < target.size(); ++i) {
          if (!target[i].valid()) {
            target[i] = DimExpr::Symbol(
                manager_.NewSymbol("iota.d" + std::to_string(i)));
          }
        }
        SetShape(out, std::move(target));
      }
      return Status::OK();
    }

    case OpKind::kReduceSum:
    case OpKind::kReduceMax:
    case OpKind::kReduceMin:
    case OpKind::kReduceMean: {
      const SymShape& in = GetShape(node->operand(0));
      const auto& dims = node->GetIntListAttr("dims");
      bool keep = node->GetIntAttr("keep_dims", 0) != 0;
      std::vector<bool> reduced(in.size(), false);
      for (int64_t d : dims) reduced[d] = true;
      SymShape shape;
      for (size_t i = 0; i < in.size(); ++i) {
        if (reduced[i]) {
          if (keep) shape.push_back(DimExpr::Const(1));
        } else {
          shape.push_back(in[i]);
        }
      }
      SetShape(out, std::move(shape));
      return Status::OK();
    }

    case OpKind::kMatMul: {
      const SymShape& a = GetShape(node->operand(0));
      const SymShape& b = GetShape(node->operand(1));
      bool ta = node->GetIntAttr("transpose_a", 0) != 0;
      bool tb = node->GetIntAttr("transpose_b", 0) != 0;
      size_t ra = a.size();
      size_t rb = b.size();
      DimExpr m = a[ra - (ta ? 1 : 2)];
      DimExpr ka = a[ra - (ta ? 2 : 1)];
      DimExpr kb = b[rb - (tb ? 1 : 2)];
      DimExpr n = b[rb - (tb ? 2 : 1)];
      // Contraction dims must match — excavate.
      Result<DimExpr> contraction = CombineBroadcastDims(ka, kb);
      if (!contraction.ok()) return contraction.status();
      SymShape batch_a(a.begin(), a.end() - 2);
      SymShape batch_b(b.begin(), b.end() - 2);
      size_t rank = std::max(batch_a.size(), batch_b.size());
      SymShape shape(rank, DimExpr::Const(1));
      for (size_t i = 0; i < batch_a.size(); ++i) {
        size_t pos = rank - batch_a.size() + i;
        DISC_ASSIGN_OR_RETURN(shape[pos],
                              CombineBroadcastDims(shape[pos], batch_a[i]));
      }
      for (size_t i = 0; i < batch_b.size(); ++i) {
        size_t pos = rank - batch_b.size() + i;
        DISC_ASSIGN_OR_RETURN(shape[pos],
                              CombineBroadcastDims(shape[pos], batch_b[i]));
      }
      shape.push_back(m);
      shape.push_back(n);
      SetShape(out, std::move(shape));
      return Status::OK();
    }

    case OpKind::kConv2D: {
      const SymShape& in = GetShape(node->operand(0));
      const SymShape& filter = GetShape(node->operand(1));
      const auto& strides = node->GetIntListAttr("strides");
      const auto& padding = node->GetIntListAttr("padding");
      auto out_dim = [&](const DimExpr& in_d, const DimExpr& k, int64_t s,
                         int64_t p) {
        // floor((in + 2p - k) / s) + 1
        DimExpr numerator = DimExpr::Add(in_d, Sub(DimExpr::Const(2 * p), k));
        return DimExpr::Add(DimExpr::FloorDiv(numerator, DimExpr::Const(s)),
                            DimExpr::Const(1));
      };
      SymShape shape = {in[0], out_dim(in[1], filter[0], strides[0], padding[0]),
                        out_dim(in[2], filter[1], strides[1], padding[1]),
                        filter[3]};
      // Channel agreement: in[3] == filter[2].
      DISC_ASSIGN_OR_RETURN(DimExpr ignored,
                            CombineBroadcastDims(in[3], filter[2]));
      (void)ignored;
      SetShape(out, std::move(shape));
      return Status::OK();
    }

    case OpKind::kTranspose: {
      const SymShape& in = GetShape(node->operand(0));
      const auto& perm = node->GetIntListAttr("perm");
      SymShape shape(in.size());
      for (size_t i = 0; i < in.size(); ++i) shape[i] = in[perm[i]];
      SetShape(out, std::move(shape));
      return Status::OK();
    }

    case OpKind::kReshape: {
      const SymShape& in = GetShape(node->operand(0));
      SymShape target = ResolveTarget(node, out->rank());
      // Resolve a single unknown via symbolic division of the element count.
      int unknown = -1;
      int n_unknown = 0;
      std::vector<DimExpr> known;
      for (size_t i = 0; i < target.size(); ++i) {
        if (!target[i].valid()) {
          unknown = static_cast<int>(i);
          ++n_unknown;
        } else {
          known.push_back(target[i]);
        }
      }
      if (n_unknown == 1) {
        DimExpr numel = manager_.Canonicalize(SymShapeNumElements(in));
        DimExpr denom = manager_.Canonicalize(
            known.empty() ? DimExpr::Const(1)
                          : DimExpr::Mul(std::move(known)));
        target[unknown] = DimExpr::FloorDiv(numel, denom);
      } else if (n_unknown > 1) {
        for (size_t i = 0; i < target.size(); ++i) {
          if (!target[i].valid()) {
            target[i] = DimExpr::Symbol(
                manager_.NewSymbol("reshape.d" + std::to_string(i)));
          }
        }
      }
      // The defining reshape fact: element counts agree.
      manager_.AddProductEqual(in, target);
      Excavated("product-equal",
                SymShapeToString(in) + " ~ " + SymShapeToString(target));
      SetShape(out, target);
      // Reshaping a tracked 1-D shape tensor keeps its contents.
      if (const auto* c = GetContent(node->operand(0));
          c != nullptr && out->rank() == 1) {
        SetContent(out, *c);
      }
      return Status::OK();
    }

    case OpKind::kBroadcastTo: {
      const SymShape& in = GetShape(node->operand(0));
      SymShape target = ResolveTarget(node, out->rank());
      int64_t offset = static_cast<int64_t>(target.size()) -
                       static_cast<int64_t>(in.size());
      DISC_CHECK_GE(offset, 0);
      for (size_t i = 0; i < target.size(); ++i) {
        if (target[i].valid()) continue;
        // Unknown target entries inherit the aligned input dim when the
        // input cannot be a broadcast (non-1); otherwise a fresh symbol.
        int64_t in_idx = static_cast<int64_t>(i) - offset;
        if (in_idx >= 0 && !in[in_idx].IsConstValue(1)) {
          target[i] = in[in_idx];
        } else {
          target[i] = DimExpr::Symbol(
              manager_.NewSymbol("bcast.d" + std::to_string(i)));
        }
      }
      SetShape(out, std::move(target));
      return Status::OK();
    }

    case OpKind::kConcat: {
      int64_t axis = node->GetIntAttr("axis", 0);
      SymShape shape = GetShape(node->operand(0));
      std::vector<DimExpr> axis_terms = {shape[axis]};
      for (int i = 1; i < node->num_operands(); ++i) {
        const SymShape& in = GetShape(node->operand(i));
        for (size_t d = 0; d < shape.size(); ++d) {
          if (static_cast<int64_t>(d) == axis) {
            axis_terms.push_back(in[d]);
          } else {
            DISC_ASSIGN_OR_RETURN(shape[d],
                                  CombineBroadcastDims(shape[d], in[d]));
          }
        }
      }
      shape[axis] = DimExpr::Add(std::move(axis_terms));
      SetShape(out, shape);
      // Content: concatenating tracked 1-D i64 tensors (shape vectors).
      if (out->dtype() == DType::kI64 && out->rank() == 1 && axis == 0) {
        std::vector<DimExpr> content;
        bool all_known = true;
        for (const Value* operand : node->operands()) {
          const auto* c = GetContent(operand);
          if (c == nullptr) {
            all_known = false;
            break;
          }
          content.insert(content.end(), c->begin(), c->end());
        }
        if (all_known) SetContent(out, std::move(content));
      }
      return Status::OK();
    }

    case OpKind::kSlice: {
      const SymShape& in = GetShape(node->operand(0));
      const auto& starts = node->GetIntListAttr("starts");
      const auto& ends = node->GetIntListAttr("ends");
      const auto& steps = node->GetIntListAttr("steps");
      SymShape shape(in.size());
      for (size_t d = 0; d < in.size(); ++d) {
        DimExpr end = ends[d] == -1 ? in[d] : DimExpr::Const(ends[d]);
        if (ends[d] == -1 && starts[d] == 0 && steps[d] == 1) {
          shape[d] = in[d];  // full dim — preserves symbolic identity
          continue;
        }
        shape[d] = DimExpr::CeilDiv(Sub(end, DimExpr::Const(starts[d])),
                                    DimExpr::Const(steps[d]));
      }
      SetShape(out, std::move(shape));
      return Status::OK();
    }

    case OpKind::kGather: {
      const SymShape& data = GetShape(node->operand(0));
      const SymShape& indices = GetShape(node->operand(1));
      int64_t axis = node->GetIntAttr("axis", 0);
      SymShape shape;
      for (int64_t i = 0; i < axis; ++i) shape.push_back(data[i]);
      shape.insert(shape.end(), indices.begin(), indices.end());
      for (size_t i = static_cast<size_t>(axis) + 1; i < data.size(); ++i) {
        shape.push_back(data[i]);
      }
      SetShape(out, std::move(shape));
      return Status::OK();
    }

    case OpKind::kPad: {
      const SymShape& in = GetShape(node->operand(0));
      const auto& low = node->GetIntListAttr("pads_low");
      const auto& high = node->GetIntListAttr("pads_high");
      SymShape shape(in.size());
      for (size_t d = 0; d < in.size(); ++d) {
        shape[d] = DimExpr::Add(in[d], DimExpr::Const(low[d] + high[d]));
      }
      SetShape(out, std::move(shape));
      return Status::OK();
    }

    case OpKind::kShapeOf: {
      const SymShape& in = GetShape(node->operand(0));
      SetShape(out, {DimExpr::Const(static_cast<int64_t>(in.size()))});
      SetContent(out, in);  // the contents ARE the operand's dims
      return Status::OK();
    }

    case OpKind::kDim: {
      const SymShape& in = GetShape(node->operand(0));
      int64_t index = node->GetIntAttr("index", 0);
      SetShape(out, {});
      SetContent(out, {in[index]});
      return Status::OK();
    }

    default:
      break;
  }

  if (info.op_class == OpClass::kElementwise) {
    return InferElementwise(node);
  }
  return Status::Unimplemented(std::string("symbolic inference for ") +
                               info.name);
}

bool ShapeAnalysis::IsShapeEqual(const Value* a, const Value* b) const {
  return manager_.IsShapeEqual(GetShape(a), GetShape(b));
}

bool ShapeAnalysis::IsSameNumElements(const Value* a, const Value* b) const {
  return manager_.IsSameNumElements(GetShape(a), GetShape(b));
}

bool ShapeAnalysis::IsDimEqual(const Value* a, int64_t da, const Value* b,
                               int64_t db) const {
  return manager_.IsDimEqual(GetShape(a)[da], GetShape(b)[db]);
}

Result<SymbolBindings> ShapeAnalysis::BindInputs(
    const std::vector<std::vector<int64_t>>& input_dims) const {
  const auto& inputs = graph_->inputs();
  if (input_dims.size() != inputs.size()) {
    return Status::InvalidArgument(
        StrFormat("expected %zu input shapes, got %zu", inputs.size(),
                  input_dims.size()));
  }
  SymbolBindings bindings;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const SymShape& shape = GetShape(inputs[i]);
    if (shape.size() != input_dims[i].size()) {
      return Status::InvalidArgument(
          StrFormat("input %zu: rank mismatch (%zu vs %zu)", i, shape.size(),
                    input_dims[i].size()));
    }
    for (size_t d = 0; d < shape.size(); ++d) {
      DimExpr expr = manager_.Canonicalize(shape[d]);
      int64_t actual = input_dims[i][d];
      if (actual < 0) {
        return Status::InvalidArgument(StrFormat(
            "input %zu ('%s') dim %zu is %lld; a dim cannot be negative", i,
            inputs[i]->name().c_str(), d, static_cast<long long>(actual)));
      }
      if (expr.IsConst()) {
        if (expr.const_value() != actual) {
          return Status::InvalidArgument(StrFormat(
              "input %zu dim %zu: expected %lld, got %lld", i, d,
              static_cast<long long>(expr.const_value()),
              static_cast<long long>(actual)));
        }
        continue;
      }
      if (expr.IsSymbol()) {
        auto [it, inserted] = bindings.try_emplace(expr.symbol(), actual);
        if (!inserted && it->second != actual) {
          return Status::InvalidArgument(StrFormat(
              "input %zu dim %zu: symbol s%d bound to %lld but got %lld", i,
              d, expr.symbol(), static_cast<long long>(it->second),
              static_cast<long long>(actual)));
        }
        continue;
      }
      // Compound input dim expressions cannot arise from seeding.
      return Status::Internal("unexpected compound input dim " +
                              expr.ToString());
    }
  }
  return bindings;
}

Result<ShapeTable> ShapeAnalysis::EvaluateShapes(
    const SymbolBindings& bindings) const {
  std::vector<int64_t> values(dim_exprs_.size());
  for (size_t e = 0; e < dim_exprs_.size(); ++e) {
    DISC_ASSIGN_OR_RETURN(values[e], dim_exprs_[e].Evaluate(bindings));
  }
  ShapeTable table;
  table.ranges_ = &dim_ranges_;
  table.dims_.reserve(dim_expr_of_.size());
  for (uint32_t e : dim_expr_of_) table.dims_.push_back(values[e]);
  for (size_t id = 0; id < dim_ranges_.size(); ++id) {
    const ShapeTable::Range range = dim_ranges_[id];
    if (range.begin < 0) continue;
    const std::span<const int64_t> dims(table.dims_.data() + range.begin,
                                        range.rank);
    // Host storage holds an element in at most 8 bytes (an i64 or an i1);
    // skipping zero dims keeps every product of a value's dims in range.
    int64_t bytes = sizeof(int64_t);
    bool overflow = false;
    for (int64_t d : dims) {
      if (d < 0) {
        return Status::InvalidArgument(
            StrFormat("value %%%zu is [%s]; a dim cannot be negative", id,
                      Join(dims, "x").c_str()));
      }
      if (d > 0) overflow |= __builtin_mul_overflow(bytes, d, &bytes);
    }
    if (overflow) {
      return Status::InvalidArgument(
          StrFormat("value %%%zu is [%s]; its bytes overflow int64", id,
                    Join(dims, "x").c_str()));
    }
  }
  return table;
}

Result<int64_t> ShapeAnalysis::EvaluateDim(const DimExpr& expr,
                                           const SymbolBindings& bindings) const {
  return manager_.Canonicalize(expr).Evaluate(bindings);
}

}  // namespace disc
