#include "fusion/fusion.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_set>

#include "support/json.h"
#include "support/logging.h"
#include "support/string_util.h"

namespace disc {

const char* FusionKindName(FusionKind kind) {
  switch (kind) {
    case FusionKind::kLoop:
      return "kLoop";
    case FusionKind::kInput:
      return "kInput";
    case FusionKind::kStitch:
      return "kStitch";
  }
  return "?";
}

std::string FusionGroup::ToString() const {
  std::ostringstream out;
  out << "group#" << id << " " << FusionKindName(kind) << " root=%"
      << (root != nullptr ? root->output(0)->id() : -1) << " [";
  out << JoinMapped(nodes, ", ",
                    [](const Node* n) { return OpName(n->kind()); });
  out << "]";
  return out.str();
}

std::string FusionDecision::ToString() const {
  std::ostringstream out;
  out << "%" << producer << " (" << producer_op << ") -> %" << consumer
      << " (" << consumer_op << "): " << (fused ? "FUSED" : "not fused")
      << " [" << phase << "] " << reason;
  if (!constraint.empty()) out << "  :: " << constraint;
  return out.str();
}

std::vector<const FusionDecision*> FusionPlan::DecisionsFor(int a,
                                                            int b) const {
  std::vector<const FusionDecision*> found;
  for (const FusionDecision& d : decisions) {
    if ((d.producer == a && d.consumer == b) ||
        (d.producer == b && d.consumer == a)) {
      found.push_back(&d);
    }
  }
  return found;
}

std::string FusionPlan::DecisionsJson() const {
  JsonValue::Array records;
  for (const FusionDecision& d : decisions) {
    JsonValue::Object entry;
    entry.emplace("producer", JsonValue(static_cast<int64_t>(d.producer)));
    entry.emplace("producer_op", JsonValue(d.producer_op));
    entry.emplace("consumer", JsonValue(static_cast<int64_t>(d.consumer)));
    entry.emplace("consumer_op", JsonValue(d.consumer_op));
    entry.emplace("phase", JsonValue(d.phase));
    entry.emplace("fused", JsonValue(d.fused));
    entry.emplace("reason", JsonValue(d.reason));
    entry.emplace("constraint", JsonValue(d.constraint));
    records.emplace_back(std::move(entry));
  }
  JsonValue::Array group_records;
  for (const FusionGroup& g : groups) {
    JsonValue::Object entry;
    entry.emplace("id", JsonValue(static_cast<int64_t>(g.id)));
    entry.emplace("kind", JsonValue(FusionKindName(g.kind)));
    entry.emplace("root",
                  JsonValue(static_cast<int64_t>(
                      g.root != nullptr ? g.root->output(0)->id() : -1)));
    JsonValue::Array nodes;
    for (const Node* n : g.nodes) {
      JsonValue::Object node;
      node.emplace("node", JsonValue(static_cast<int64_t>(n->output(0)->id())));
      node.emplace("op", JsonValue(std::string(OpName(n->kind()))));
      nodes.emplace_back(std::move(node));
    }
    entry.emplace("nodes", JsonValue(std::move(nodes)));
    group_records.emplace_back(std::move(entry));
  }
  JsonValue::Object doc;
  doc.emplace("decisions", JsonValue(std::move(records)));
  doc.emplace("groups", JsonValue(std::move(group_records)));
  return JsonValue(std::move(doc)).SerializePretty();
}

FusionPlan::Stats FusionPlan::GetStats() const {
  Stats stats;
  stats.num_groups = static_cast<int64_t>(groups.size());
  for (const FusionGroup& g : groups) {
    if (g.size() >= 2) {
      stats.num_fused_nodes += g.size();
      stats.num_internalized_values += g.size() - static_cast<int64_t>(
                                                      g.outputs.size());
    } else {
      ++stats.num_singleton_groups;
    }
    switch (g.kind) {
      case FusionKind::kLoop:
        ++stats.num_loop_groups;
        break;
      case FusionKind::kInput:
        ++stats.num_input_groups;
        break;
      case FusionKind::kStitch:
        ++stats.num_stitch_groups;
        break;
    }
  }
  return stats;
}

std::string FusionPlan::ToString() const {
  std::ostringstream out;
  for (const FusionGroup& g : groups) out << g.ToString() << "\n";
  return out.str();
}

FusionPlanner::FusionPlanner(const Graph* graph, ShapeAnalysis* analysis,
                             FusionOptions options)
    : graph_(graph), analysis_(analysis), options_(options) {}

bool FusionPlanner::IsFusableCompute(const Node* node) const {
  switch (node->op_class()) {
    case OpClass::kElementwise:
    case OpClass::kReduction:
      break;
    case OpClass::kInjective:
      break;
    case OpClass::kCreation:
      // Constants are baked as kernel parameters, not loop members; iota is
      // computed in-loop.
      return node->kind() == OpKind::kIota;
    case OpClass::kLibrary:
    case OpClass::kShape:
      return false;
  }
  // Shape arithmetic (integer ops whose symbolic *contents* the analysis
  // tracks — dim products, concatenated shape vectors) runs on the host
  // alongside launches, never as a device kernel.
  if (IsIntegral(node->output(0)->dtype()) &&
      analysis_->GetContent(node->output(0)) != nullptr) {
    return false;
  }
  // Dynamic reshape/broadcast with a shape operand: the shape operand is a
  // host value; the node itself is still fusable.
  return true;
}

int FusionPlanner::Find(int x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

int FusionPlanner::GroupOf(const Node* node) {
  auto it = node_index_.find(node);
  if (it == node_index_.end()) return -1;
  return Find(it->second);
}

std::string FusionPlanner::NumElementsText(const Value* v) const {
  const SymbolicDimManager& m = analysis_->manager();
  SymShape canon = m.Canonicalize(analysis_->GetShape(v));
  return "numel" + SymShapeToString(canon) + " = " +
         m.Canonicalize(SymShapeNumElements(canon)).ToString();
}

void FusionPlanner::RecordDecision(const Node* producer, const Node* consumer,
                                   const char* phase, bool fused,
                                   std::string reason,
                                   std::string constraint) {
  if (!options_.record_decisions) return;
  FusionDecision decision;
  decision.producer = producer->output(0)->id();
  decision.consumer = consumer->output(0)->id();
  decision.producer_op = OpName(producer->kind());
  decision.consumer_op = OpName(consumer->kind());
  decision.phase = phase;
  decision.fused = fused;
  decision.reason = std::move(reason);
  decision.constraint = std::move(constraint);
  int64_t key = (static_cast<int64_t>(decision.producer) << 32) |
                static_cast<uint32_t>(decision.consumer);
  auto [it, inserted] = decision_index_.try_emplace(key, decisions_.size());
  if (inserted) {
    decisions_.push_back(std::move(decision));
  } else {
    // Last verdict wins: a pair rejected in an early sweep/phase but merged
    // later reads as fused (and vice versa never happens — merged pairs
    // are not reconsidered).
    decisions_[it->second] = std::move(decision);
  }
}

namespace {
bool SameNumElementsStatic(const Value* a, const Value* b) {
  return a->type().IsFullyStatic() && b->type().IsFullyStatic() &&
         a->type().NumElements() == b->type().NumElements();
}

void SetOut(std::string* out, std::string value) {
  if (out != nullptr) *out = std::move(value);
}
}  // namespace

bool FusionPlanner::ShapesAllowLoopFusion(const Value* producer_out,
                                          const Node* consumer,
                                          std::string* reason,
                                          std::string* constraint) const {
  // Injective consumers absorb any producer through an index map.
  if (consumer->op_class() == OpClass::kInjective) {
    SetOut(reason, "injective-consumer-absorbs-producer");
    SetOut(constraint, std::string(OpName(consumer->kind())) +
                           " reads the producer through an index map; no "
                           "shape relation needed");
    return true;
  }
  const Value* consumer_out = consumer->output(0);
  if (options_.use_symbolic_shapes) {
    const SymbolicDimManager& m = analysis_->manager();
    const SymShape& ps = analysis_->GetShape(producer_out);
    const SymShape& cs = analysis_->GetShape(consumer_out);
    if (m.IsSameNumElements(ps, cs)) {
      SetOut(reason, "same-num-elements-proven");
      SetOut(constraint,
             NumElementsText(producer_out) + " == " +
                 NumElementsText(consumer_out));
      return true;
    }
    // Scalar producer.
    DimExpr pn = m.Canonicalize(SymShapeNumElements(ps));
    if (pn.IsConstValue(1)) {
      SetOut(reason, "scalar-producer");
      SetOut(constraint, NumElementsText(producer_out) + " == 1");
      return true;
    }
    // Broadcast-compatible: right-aligned, every producer dim equals the
    // consumer dim or is the constant 1.
    if (ps.size() <= cs.size()) {
      size_t offset = cs.size() - ps.size();
      bool compatible = true;
      std::string relation;
      std::string blocking;
      for (size_t i = 0; i < ps.size(); ++i) {
        DimExpr pd = m.Canonicalize(ps[i]);
        if (pd.IsConstValue(1)) {
          if (!relation.empty()) relation += ", ";
          relation += "dim" + std::to_string(i) + "=1 (broadcast)";
          continue;
        }
        DimExpr cd = m.Canonicalize(cs[offset + i]);
        if (!m.IsDimEqual(ps[i], cs[offset + i])) {
          compatible = false;
          blocking = "dim" + std::to_string(i) + ": " + pd.ToString() +
                     " != " + cd.ToString() + " (no equality fact)";
          break;
        }
        if (!relation.empty()) relation += ", ";
        relation += "dim" + std::to_string(i) + ": " + pd.ToString() +
                    " == " + cd.ToString();
      }
      if (compatible) {
        SetOut(reason, "broadcast-compatible-dims");
        SetOut(constraint, relation.empty() ? "scalar into any space"
                                            : relation);
        return true;
      }
      SetOut(reason, "blocked:no-proven-shape-relation");
      SetOut(constraint, NumElementsText(producer_out) + " vs " +
                             NumElementsText(consumer_out) + "; " + blocking);
      return false;
    }
    SetOut(reason, "blocked:no-proven-shape-relation");
    SetOut(constraint,
           NumElementsText(producer_out) + " vs " +
               NumElementsText(consumer_out) +
               "; producer rank exceeds consumer rank (not a broadcast)");
    return false;
  }
  // Without symbolic information only static equality is provable.
  if (SameNumElementsStatic(producer_out, consumer_out)) {
    SetOut(reason, "static-num-elements-equal");
    SetOut(constraint, producer_out->type().ToString() + " == " +
                           consumer_out->type().ToString() +
                           " (statically known)");
    return true;
  }
  SetOut(reason, "blocked:static-shape-unknown");
  SetOut(constraint,
         producer_out->type().ToString() + " vs " +
             consumer_out->type().ToString() +
             "; dynamic dims carry no value, and without symbolic "
             "relations equality cannot be proven");
  return false;
}

bool FusionPlanner::MergeWouldCreateCycle(int ga, int gb) {
  // Illegal if a path leaves ga (or gb), passes through an outside node and
  // re-enters the other group. BFS forward from both groups' outputs
  // through outside nodes only.
  std::unordered_set<const Node*> inside;
  for (Node* n : members_[ga]) inside.insert(n);
  for (Node* n : members_[gb]) inside.insert(n);

  std::deque<const Node*> frontier;
  std::unordered_set<const Node*> visited;
  for (const Node* n : inside) {
    for (const Value* out : n->outputs()) {
      for (const Node* user : out->users()) {
        if (!inside.count(user) && visited.insert(user).second) {
          frontier.push_back(user);
        }
      }
    }
  }
  while (!frontier.empty()) {
    const Node* node = frontier.front();
    frontier.pop_front();
    for (const Value* out : node->outputs()) {
      for (const Node* user : out->users()) {
        if (inside.count(user)) return true;  // re-entered -> cycle
        if (visited.insert(user).second) frontier.push_back(user);
      }
    }
  }
  return false;
}

bool FusionPlanner::TryMergeGroups(int ga, int gb,
                                   std::string* block_reason) {
  ga = Find(ga);
  gb = Find(gb);
  if (ga == gb) {
    SetOut(block_reason, "already-same-group");
    return false;
  }
  if (static_cast<int64_t>(members_[ga].size() + members_[gb].size()) >
      options_.max_group_size) {
    SetOut(block_reason,
           StrFormat("blocked:max-group-size (%zu + %zu > %lld)",
                     members_[ga].size(), members_[gb].size(),
                     static_cast<long long>(options_.max_group_size)));
    return false;
  }
  if (MergeWouldCreateCycle(ga, gb)) {
    SetOut(block_reason,
           "blocked:would-create-cycle (a path through outside nodes "
           "re-enters the merged group)");
    return false;
  }
  // Merge smaller into larger.
  if (members_[ga].size() < members_[gb].size()) std::swap(ga, gb);
  parent_[gb] = ga;
  members_[ga].insert(members_[ga].end(), members_[gb].begin(),
                      members_[gb].end());
  members_[gb].clear();
  return true;
}

void FusionPlanner::RunLoopFusion() {
  // Greedy producer->consumer sweep in topological order; repeated sweeps
  // until fixpoint so chains collapse fully.
  bool changed = true;
  while (changed) {
    changed = false;
    for (Node* consumer : topo_) {
      if (!node_index_.count(consumer) || IsReduce(consumer)) continue;
      for (Value* operand : consumer->operands()) {
        Node* producer = operand->producer();
        if (producer == nullptr || !node_index_.count(producer) ||
            IsReduce(producer)) {
          continue;
        }
        if (GroupOf(producer) == GroupOf(consumer)) continue;
        std::string reason;
        std::string constraint;
        if (!ShapesAllowLoopFusion(operand, consumer, &reason, &constraint)) {
          RecordDecision(producer, consumer, "loop", false, std::move(reason),
                         std::move(constraint));
          continue;
        }
        // Multi-output constraint: any value of the producer group still
        // used outside after the merge must be writable by the consumer
        // loop, i.e. same element count as the consumer's output.
        bool outputs_ok = true;
        std::string outputs_blocking;
        int pg = GroupOf(producer);
        int cg = GroupOf(consumer);
        for (Node* member : members_[pg]) {
          for (Value* out : member->outputs()) {
            bool external = false;
            for (const Node* user : out->users()) {
              int ug = node_index_.count(user)
                           ? Find(node_index_.at(user))
                           : -2;
              if (ug != pg && ug != cg) external = true;
            }
            for (const Value* go : graph_->outputs()) {
              if (go == out) external = true;
            }
            if (!external) continue;
            bool writable =
                options_.use_symbolic_shapes
                    ? analysis_->IsSameNumElements(out, consumer->output(0))
                    : SameNumElementsStatic(out, consumer->output(0));
            if (!writable) {
              outputs_ok = false;
              outputs_blocking =
                  "externally-used %" + std::to_string(out->id()) + ": " +
                  (options_.use_symbolic_shapes
                       ? NumElementsText(out) + " != " +
                             NumElementsText(consumer->output(0))
                       : out->type().ToString() + " vs " +
                             consumer->output(0)->type().ToString() +
                             " (static proof unavailable)");
            }
          }
        }
        if (!outputs_ok) {
          RecordDecision(producer, consumer, "loop", false,
                         "blocked:secondary-output-not-writable",
                         std::move(outputs_blocking));
          continue;
        }
        std::string merge_block;
        if (TryMergeGroups(pg, cg, &merge_block)) {
          changed = true;
          RecordDecision(producer, consumer, "loop", true, std::move(reason),
                         std::move(constraint));
        } else {
          RecordDecision(producer, consumer, "loop", false,
                         std::move(merge_block),
                         "shapes allowed the fusion (" + constraint +
                             ") but the group merge was refused");
        }
      }
    }
  }
}

void FusionPlanner::RunInputFusion() {
  for (Node* reduce : topo_) {
    if (!node_index_.count(reduce) || !IsReduce(reduce)) continue;
    Node* producer = reduce->operand(0)->producer();
    if (producer == nullptr || !node_index_.count(producer) ||
        IsReduce(producer)) {
      continue;
    }
    int pg = GroupOf(producer);
    int rg = GroupOf(reduce);
    if (pg == rg) continue;
    // Secondary outputs of the producer group must be full-shaped (same
    // element count as the reduce *input*) so the kInput kernel can write
    // them while it streams the input.
    bool outputs_ok = true;
    std::string blocking;
    for (Node* member : members_[pg]) {
      for (Value* out : member->outputs()) {
        bool external = false;
        for (const Node* user : out->users()) {
          int ug = node_index_.count(user) ? Find(node_index_.at(user)) : -2;
          if (ug != pg && ug != rg) external = true;
        }
        for (const Value* go : graph_->outputs()) {
          if (go == out) external = true;
        }
        if (!external) continue;
        bool full_shaped =
            options_.use_symbolic_shapes
                ? analysis_->IsSameNumElements(out, reduce->operand(0))
                : SameNumElementsStatic(out, reduce->operand(0));
        if (!full_shaped) {
          outputs_ok = false;
          blocking = "externally-used %" + std::to_string(out->id()) +
                     " is not full-shaped: " +
                     (options_.use_symbolic_shapes
                          ? NumElementsText(out) + " != " +
                                NumElementsText(reduce->operand(0))
                          : out->type().ToString() + " vs " +
                                reduce->operand(0)->type().ToString() +
                                " (static proof unavailable)");
        }
      }
    }
    if (!outputs_ok) {
      RecordDecision(producer, reduce, "input", false,
                     "blocked:secondary-output-not-full-shaped",
                     std::move(blocking));
      continue;
    }
    std::string merge_block;
    if (TryMergeGroups(pg, rg, &merge_block)) {
      RecordDecision(producer, reduce, "input", true,
                     "input-fusion:reduce-consumes-producer",
                     "the reduction streams " +
                         NumElementsText(reduce->operand(0)) +
                         " elements produced in-register by its operand "
                         "group");
    } else {
      RecordDecision(producer, reduce, "input", false, std::move(merge_block),
                     "");
    }
  }
}

namespace {

// Trailing reduce dims check: reduce dims are exactly the last k dims.
bool ReducesTrailingDims(const Node* reduce) {
  const auto& dims = reduce->GetIntListAttr("dims");
  int64_t rank = reduce->operand(0)->rank();
  std::vector<int64_t> sorted = dims;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != rank - static_cast<int64_t>(sorted.size()) +
                         static_cast<int64_t>(i)) {
      return false;
    }
  }
  return !sorted.empty();
}

}  // namespace

bool FusionPlanner::StitchCompatible(int ga, int gb, std::string* reason,
                                     std::string* constraint) {
  // Gather all reduces across both groups.
  std::vector<const Node*> reduces;
  std::vector<const Node*> all;
  for (Node* n : members_[ga]) all.push_back(n);
  for (Node* n : members_[gb]) all.push_back(n);
  for (const Node* n : all) {
    if (IsReduce(n)) reduces.push_back(n);
  }
  if (reduces.empty()) {
    SetOut(reason, "blocked:no-reduce-to-stitch-around");
    SetOut(constraint, "");
    return false;
  }
  const SymbolicDimManager& m = analysis_->manager();

  // All reduces must be trailing-dim row reductions over the same row space.
  const Node* first = reduces[0];
  if (!ReducesTrailingDims(first)) {
    SetOut(reason, "blocked:not-trailing-row-reduction");
    SetOut(constraint, "%" + std::to_string(first->output(0)->id()) +
                           " reduces non-trailing dims; rows cannot be "
                           "staged in shared memory");
    return false;
  }
  const SymShape& full = analysis_->GetShape(first->operand(0));
  for (const Node* r : reduces) {
    if (!ReducesTrailingDims(r)) {
      SetOut(reason, "blocked:not-trailing-row-reduction");
      SetOut(constraint, "%" + std::to_string(r->output(0)->id()) +
                             " reduces non-trailing dims");
      return false;
    }
    if (options_.use_symbolic_shapes) {
      if (!m.IsShapeEqual(analysis_->GetShape(r->operand(0)), full)) {
        SetOut(reason, "blocked:row-space-mismatch");
        SetOut(constraint,
               "reduce %" + std::to_string(r->output(0)->id()) +
                   " streams " +
                   SymShapeToString(
                       m.Canonicalize(analysis_->GetShape(r->operand(0)))) +
                   " but the stitch row space is " +
                   SymShapeToString(m.Canonicalize(full)) +
                   "; no shape-equality fact unifies them");
        return false;
      }
    } else if (!(r->operand(0)->type().IsFullyStatic() &&
                 first->operand(0)->type().IsFullyStatic() &&
                 r->operand(0)->type() == first->operand(0)->type())) {
      SetOut(reason, "blocked:static-shape-unknown");
      SetOut(constraint,
             "reduce inputs " + r->operand(0)->type().ToString() + " vs " +
                 first->operand(0)->type().ToString() +
                 "; dynamic dims cannot be proven row-compatible without "
                 "symbolic relations");
      return false;
    }
  }
  // Row extent = product of reduced trailing dims.
  const auto& rdims = first->GetIntListAttr("dims");
  std::vector<DimExpr> row_factors;
  for (int64_t d : rdims) row_factors.push_back(full[d]);
  DimExpr row_extent = DimExpr::Mul(std::move(row_factors));
  DimExpr rows = DimExpr::FloorDiv(SymShapeNumElements(full), row_extent);

  // Every member's output must live in the full space or the row space.
  int64_t full_shaped_intermediates = 0;
  for (const Node* n : all) {
    for (const Value* out : n->outputs()) {
      const SymShape& s = analysis_->GetShape(out);
      bool is_full = m.IsSameNumElements(s, full);
      bool is_row =
          m.IsDimEqual(SymShapeNumElements(s), rows) ||
          m.IsSameNumElements(
              s, analysis_->GetShape(reduces[0]->output(0)));
      if (!is_full && !is_row) {
        SetOut(reason, "blocked:intermediate-not-row-or-full-shaped");
        SetOut(constraint,
               "%" + std::to_string(out->id()) + " has " +
                   NumElementsText(out) + "; stitch needs the full space " +
                   SymShapeToString(m.Canonicalize(full)) +
                   " or the row space (" + m.Canonicalize(rows).ToString() +
                   " rows)");
        return false;
      }
      if (is_full) ++full_shaped_intermediates;
    }
  }
  // Shared-memory budget: each stitched stage stages one row of f32.
  auto row_ub = m.UpperBound(row_extent);
  if (row_ub.has_value()) {
    int64_t bytes = *row_ub * 4 * std::max<int64_t>(
                                      1, full_shaped_intermediates / 2);
    if (bytes > options_.stitch_shared_memory_bytes) {
      SetOut(reason, "blocked:shared-memory-budget");
      SetOut(constraint,
             StrFormat("row extent %s has proven upper bound %lld -> %lld "
                       "bytes of staging > %lld budget",
                       m.Canonicalize(row_extent).ToString().c_str(),
                       static_cast<long long>(*row_ub),
                       static_cast<long long>(bytes),
                       static_cast<long long>(
                           options_.stitch_shared_memory_bytes)));
      return false;
    }
  }
  // Unknown upper bound: optimistically stitch; the generated kernel keeps
  // a block-reduce schedule variant that handles long rows.
  SetOut(reason, "stitch:row-synchronized-reduces");
  SetOut(constraint,
         "all reduces stream " + SymShapeToString(m.Canonicalize(full)) +
             " row-wise (" + m.Canonicalize(rows).ToString() +
             " rows); every intermediate is row- or full-shaped");
  return true;
}

void FusionPlanner::RunStitchFusion() {
  bool changed = true;
  while (changed) {
    changed = false;
    for (Node* consumer : topo_) {
      if (!node_index_.count(consumer)) continue;
      for (Value* operand : consumer->operands()) {
        Node* producer = operand->producer();
        if (producer == nullptr || !node_index_.count(producer)) continue;
        int pg = GroupOf(producer);
        int cg = GroupOf(consumer);
        if (pg == cg) continue;
        // At least one side must contain a reduce (otherwise kLoop rules
        // already decided), and the union must be row-synchronizable.
        bool has_reduce = false;
        for (Node* n : members_[pg]) has_reduce |= IsReduce(n);
        for (Node* n : members_[cg]) has_reduce |= IsReduce(n);
        if (!has_reduce) continue;
        std::string reason;
        std::string constraint;
        if (!StitchCompatible(pg, cg, &reason, &constraint)) {
          RecordDecision(producer, consumer, "stitch", false,
                         std::move(reason), std::move(constraint));
          continue;
        }
        std::string merge_block;
        if (TryMergeGroups(pg, cg, &merge_block)) {
          changed = true;
          RecordDecision(producer, consumer, "stitch", true,
                         std::move(reason), std::move(constraint));
        } else {
          RecordDecision(producer, consumer, "stitch", false,
                         std::move(merge_block),
                         "row spaces were compatible (" + constraint +
                             ") but the group merge was refused");
        }
      }
    }
  }
}

Result<FusionPlan> FusionPlanner::Plan() {
  topo_ = graph_->TopologicalOrder();
  node_index_.clear();
  parent_.clear();
  members_.clear();
  decisions_.clear();
  decision_index_.clear();
  for (Node* node : topo_) {
    if (!IsFusableCompute(node)) continue;
    int idx = static_cast<int>(parent_.size());
    node_index_[node] = idx;
    parent_.push_back(idx);
    members_.push_back({node});
  }

  if (options_.enable_fusion) {
    RunLoopFusion();
    if (options_.enable_input_fusion) RunInputFusion();
    if (options_.enable_stitch) RunStitchFusion();
  }
  return Finalize();
}

Result<FusionPlan> FusionPlanner::Finalize() {
  FusionPlan plan;
  // Reconcile stale verdicts: a pair can be rejected on direct
  // consideration yet end up in one group transitively (merges through
  // other edges), and merged pairs are never re-evaluated. Rewrite those
  // to fused, keeping the historical reason as provenance.
  std::unordered_map<int, const Node*> node_of_id;
  for (const auto& [node, idx] : node_index_) {
    node_of_id[node->output(0)->id()] = node;
  }
  for (FusionDecision& d : decisions_) {
    if (d.fused) continue;
    auto pit = node_of_id.find(d.producer);
    auto cit = node_of_id.find(d.consumer);
    if (pit == node_of_id.end() || cit == node_of_id.end()) continue;
    if (GroupOf(pit->second) != GroupOf(cit->second)) continue;
    d.fused = true;
    d.reason = "merged-transitively (direct attempt: " + d.reason + ")";
  }
  plan.decisions = std::move(decisions_);
  std::unordered_map<const Node*, int> topo_pos;
  for (size_t i = 0; i < topo_.size(); ++i) topo_pos[topo_[i]] = i;

  std::unordered_map<int, int> root_to_group;
  for (Node* node : topo_) {
    auto it = node_index_.find(node);
    if (it == node_index_.end()) continue;
    int root = Find(it->second);
    auto [git, inserted] =
        root_to_group.try_emplace(root, static_cast<int>(plan.groups.size()));
    if (inserted) {
      plan.groups.emplace_back();
      plan.groups.back().id = git->second;
    }
    plan.groups[git->second].nodes.push_back(node);
    plan.group_of[node] = git->second;
  }

  for (FusionGroup& group : plan.groups) {
    std::unordered_set<const Node*> inside(group.nodes.begin(),
                                           group.nodes.end());
    // Inputs: external operands (deduplicated, excluding host-shape-only
    // operands of dynamic reshape/broadcast which codegen reads from the
    // runtime shape program instead — they are still listed as inputs so
    // dependency tracking stays conservative).
    std::unordered_set<const Value*> seen_in;
    for (Node* node : group.nodes) {
      for (Value* operand : node->operands()) {
        if (operand->producer() != nullptr &&
            inside.count(operand->producer())) {
          continue;
        }
        if (seen_in.insert(operand).second) group.inputs.push_back(operand);
      }
    }
    // Outputs: values used outside or graph outputs.
    int num_reduces = 0;
    for (Node* node : group.nodes) {
      if (IsReduce(node)) ++num_reduces;
      for (Value* out : node->outputs()) {
        bool external = false;
        for (const Node* user : out->users()) {
          if (!inside.count(user)) external = true;
        }
        for (const Value* go : graph_->outputs()) {
          if (go == out) external = true;
        }
        if (external) group.outputs.push_back(out);
      }
    }
    if (group.outputs.empty()) {
      // Fully dead group (can happen pre-DCE); root is the last node.
      group.outputs.push_back(group.nodes.back()->output(0));
    }
    // Root: the topologically last output-producing node.
    Node* root = nullptr;
    for (Value* out : group.outputs) {
      Node* producer = out->producer();
      if (root == nullptr || topo_pos[producer] > topo_pos[root]) {
        root = producer;
      }
    }
    group.root = root;
    // Kind classification.
    if (num_reduces == 0) {
      group.kind = FusionKind::kLoop;
    } else if (num_reduces == 1 && IsReduce(group.root)) {
      // Single reduce at the root: XLA-style input fusion, possibly with
      // multi-output (full-shaped secondary outputs).
      group.kind = FusionKind::kInput;
    } else {
      // Multiple reduces, or elementwise work after a reduce in the same
      // kernel: needs on-chip row staging.
      group.kind = FusionKind::kStitch;
    }
  }
  return plan;
}

}  // namespace disc
