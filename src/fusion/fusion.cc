#include "fusion/fusion.h"

#include <algorithm>
#include <sstream>

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
  int idx = IndexOf(node);
  return idx < 0 ? -1 : Find(idx);
}

namespace {

uint64_t PairKey(int a, int b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

bool SameNumElementsStatic(const Value* a, const Value* b) {
  return a->type().IsFullyStatic() && b->type().IsFullyStatic() &&
         a->type().NumElements() == b->type().NumElements();
}

void SetOut(std::string* out, std::string value) {
  if (out != nullptr) *out = std::move(value);
}

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

const std::string& FusionPlanner::NumElementsText(const Value* v) {
  auto [it, inserted] = num_elements_text_.try_emplace(v->id());
  if (inserted) {
    const SymbolicDimManager& m = analysis_->manager();
    SymShape canon = m.Canonicalize(analysis_->GetShape(v));
    it->second = "numel" + SymShapeToString(canon) + " = " +
                 m.Canonicalize(SymShapeNumElements(canon)).ToString();
  }
  return it->second;
}

void FusionPlanner::RecordDecision(const Node* producer, const Node* consumer,
                                   const char* phase, bool fused,
                                   const std::string& reason,
                                   const std::string& constraint) {
  if (!options_.record_decisions) return;
  const int p = producer->output(0)->id();
  const int c = consumer->output(0)->id();
  int64_t key = (static_cast<int64_t>(p) << 32) | static_cast<uint32_t>(c);
  auto [it, inserted] = decision_index_.try_emplace(key, decisions_.size());
  if (inserted) {
    FusionDecision& decision = decisions_.emplace_back();
    decision.producer = p;
    decision.consumer = c;
    decision.producer_op = OpName(producer->kind());
    decision.consumer_op = OpName(consumer->kind());
  }
  // Last verdict wins: a pair rejected in an early sweep/phase but merged
  // later reads as fused (and vice versa never happens — merged pairs
  // are not reconsidered).
  FusionDecision& decision = decisions_[it->second];
  decision.phase = phase;
  decision.fused = fused;
  decision.reason = reason;
  decision.constraint = constraint;
}

bool FusionPlanner::ProvenSameNumElements(const Value* a, const Value* b) {
  auto [it, inserted] =
      same_num_elements_.try_emplace(PairKey(a->id(), b->id()), false);
  if (inserted) {
    it->second = prover_->IsSameNumElements(analysis_->GetShape(a),
                                            analysis_->GetShape(b));
  }
  return it->second;
}

bool FusionPlanner::SameNumElements(const Value* a, const Value* b) {
  return options_.use_symbolic_shapes ? ProvenSameNumElements(a, b)
                                      : SameNumElementsStatic(a, b);
}

const FusionPlanner::LoopVerdict& FusionPlanner::LoopShapeVerdict(
    const Value* producer_out, const Node* consumer) {
  const uint64_t key = PairKey(producer_out->id(), consumer->id());
  auto it = loop_verdicts_.find(key);
  if (it != loop_verdicts_.end()) return it->second;
  LoopVerdict verdict = ComputeLoopShapeVerdict(producer_out, consumer);
  return loop_verdicts_.emplace(key, std::move(verdict)).first->second;
}

FusionPlanner::LoopVerdict FusionPlanner::ComputeLoopShapeVerdict(
    const Value* producer_out, const Node* consumer) {
  // Injective consumers absorb any producer through an index map.
  if (consumer->op_class() == OpClass::kInjective) {
    return {true, "injective-consumer-absorbs-producer",
            std::string(OpName(consumer->kind())) +
                " reads the producer through an index map; no shape "
                "relation needed"};
  }
  const Value* consumer_out = consumer->output(0);
  if (options_.use_symbolic_shapes) {
    const SymbolicDimManager& m = analysis_->manager();
    const SymShape& ps = analysis_->GetShape(producer_out);
    const SymShape& cs = analysis_->GetShape(consumer_out);
    if (ProvenSameNumElements(producer_out, consumer_out)) {
      return {true, "same-num-elements-proven",
              NumElementsText(producer_out) + " == " +
                  NumElementsText(consumer_out)};
    }
    // Scalar producer.
    DimExpr pn = m.Canonicalize(SymShapeNumElements(ps));
    if (pn.IsConstValue(1)) {
      return {true, "scalar-producer", NumElementsText(producer_out) + " == 1"};
    }
    // Broadcast-compatible: right-aligned, every producer dim equals the
    // consumer dim or is the constant 1.
    if (ps.size() <= cs.size()) {
      size_t offset = cs.size() - ps.size();
      std::string relation;
      for (size_t i = 0; i < ps.size(); ++i) {
        DimExpr pd = m.Canonicalize(ps[i]);
        if (pd.IsConstValue(1)) {
          if (!relation.empty()) relation += ", ";
          relation += "dim" + std::to_string(i) + "=1 (broadcast)";
          continue;
        }
        DimExpr cd = m.Canonicalize(cs[offset + i]);
        if (!m.IsDimEqual(ps[i], cs[offset + i])) {
          return {false, "blocked:no-proven-shape-relation",
                  NumElementsText(producer_out) + " vs " +
                      NumElementsText(consumer_out) + "; dim" +
                      std::to_string(i) + ": " + pd.ToString() + " != " +
                      cd.ToString() + " (no equality fact)"};
        }
        if (!relation.empty()) relation += ", ";
        relation += "dim" + std::to_string(i) + ": " + pd.ToString() +
                    " == " + cd.ToString();
      }
      return {true, "broadcast-compatible-dims",
              relation.empty() ? "scalar into any space" : relation};
    }
    return {false, "blocked:no-proven-shape-relation",
            NumElementsText(producer_out) + " vs " +
                NumElementsText(consumer_out) +
                "; producer rank exceeds consumer rank (not a broadcast)"};
  }
  // Without symbolic information only static equality is provable.
  if (SameNumElementsStatic(producer_out, consumer_out)) {
    return {true, "static-num-elements-equal",
            producer_out->type().ToString() + " == " +
                consumer_out->type().ToString() + " (statically known)"};
  }
  return {false, "blocked:static-shape-unknown",
          producer_out->type().ToString() + " vs " +
              consumer_out->type().ToString() +
              "; dynamic dims carry no value, and without symbolic "
              "relations equality cannot be proven"};
}

bool FusionPlanner::UsedOutside(const Value* out, int g, int other) {
  if (is_graph_output_[out->id()]) return true;
  for (const Node* user : out->users()) {
    int ug = GroupOf(user);
    if (ug != g && ug != other) return true;
  }
  return false;
}

bool FusionPlanner::MergeWouldCreateCycle(int ga, int gb) {
  // Illegal if a path leaves ga (or gb), passes through an outside node and
  // re-enters the other group. BFS forward from both groups' outputs
  // through outside nodes only. Such a path ends at a member, so every
  // node on it comes before the union's last member in topological order:
  // the search stops at later nodes.
  const int inside = ++stamp_;
  const int visited = ++stamp_;
  int last = -1;
  for (int g : {ga, gb}) {
    for (const Node* n : members_[g]) {
      mark_[n->id()] = inside;
      last = std::max(last, topo_pos_[n->id()]);
    }
  }
  std::vector<const Node*> frontier;
  for (int g : {ga, gb}) {
    for (const Node* n : members_[g]) {
      for (const Value* out : n->outputs()) {
        for (const Node* user : out->users()) {
          int& mark = mark_[user->id()];
          if (mark == inside || mark == visited ||
              topo_pos_[user->id()] > last) {
            continue;
          }
          mark = visited;
          frontier.push_back(user);
        }
      }
    }
  }
  for (size_t head = 0; head < frontier.size(); ++head) {
    for (const Value* out : frontier[head]->outputs()) {
      for (const Node* user : out->users()) {
        int& mark = mark_[user->id()];
        if (mark == inside) return true;  // re-entered -> cycle
        if (mark == visited || topo_pos_[user->id()] > last) continue;
        mark = visited;
        frontier.push_back(user);
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
      if (!IsFusable(consumer) || IsReduce(consumer)) continue;
      for (Value* operand : consumer->operands()) {
        Node* producer = operand->producer();
        if (producer == nullptr || !IsFusable(producer) ||
            IsReduce(producer)) {
          continue;
        }
        if (GroupOf(producer) == GroupOf(consumer)) continue;
        const LoopVerdict& verdict = LoopShapeVerdict(operand, consumer);
        if (!verdict.allowed) {
          RecordDecision(producer, consumer, "loop", false, verdict.reason,
                         verdict.constraint);
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
            if (!UsedOutside(out, pg, cg) ||
                SameNumElements(out, consumer->output(0))) {
              continue;
            }
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
        if (!outputs_ok) {
          RecordDecision(producer, consumer, "loop", false,
                         "blocked:secondary-output-not-writable",
                         outputs_blocking);
          continue;
        }
        std::string merge_block;
        if (TryMergeGroups(pg, cg, &merge_block)) {
          changed = true;
          RecordDecision(producer, consumer, "loop", true, verdict.reason,
                         verdict.constraint);
        } else {
          RecordDecision(producer, consumer, "loop", false, merge_block,
                         "shapes allowed the fusion (" + verdict.constraint +
                             ") but the group merge was refused");
        }
      }
    }
  }
}

void FusionPlanner::RunInputFusion() {
  for (Node* reduce : topo_) {
    if (!IsFusable(reduce) || !IsReduce(reduce)) continue;
    Node* producer = reduce->operand(0)->producer();
    if (producer == nullptr || !IsFusable(producer) || IsReduce(producer)) {
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
        if (!UsedOutside(out, pg, rg) ||
            SameNumElements(out, reduce->operand(0))) {
          continue;
        }
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
    if (!outputs_ok) {
      RecordDecision(producer, reduce, "input", false,
                     "blocked:secondary-output-not-full-shaped", blocking);
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
      RecordDecision(producer, reduce, "input", false, merge_block, "");
    }
  }
}

const FusionPlanner::RowSpace& FusionPlanner::RowSpaceOf(const Node* reduce) {
  auto [it, inserted] = row_spaces_.try_emplace(reduce->id());
  RowSpace& space = it->second;
  if (!inserted) return space;
  space.trailing = ReducesTrailingDims(reduce);
  space.full = reduce->operand(0);
  if (!space.trailing) return space;
  // Row extent = product of reduced trailing dims.
  const SymbolicDimManager& m = analysis_->manager();
  const SymShape& full = analysis_->GetShape(space.full);
  std::vector<DimExpr> row_factors;
  for (int64_t d : reduce->GetIntListAttr("dims")) {
    row_factors.push_back(full[d]);
  }
  space.row_extent = DimExpr::Mul(std::move(row_factors));
  space.rows = DimExpr::FloorDiv(SymShapeNumElements(full), space.row_extent);
  space.row_upper_bound = m.UpperBound(space.row_extent);
  space.full_text = SymShapeToString(m.Canonicalize(full));
  space.rows_text = m.Canonicalize(space.rows).ToString();
  return space;
}

bool FusionPlanner::IsRowShaped(const Value* v, const Node* reduce) {
  auto [it, inserted] =
      row_shaped_.try_emplace(PairKey(v->id(), reduce->id()), false);
  if (inserted) {
    it->second = analysis_->manager().IsDimEqual(
                     SymShapeNumElements(analysis_->GetShape(v)),
                     RowSpaceOf(reduce).rows) ||
                 ProvenSameNumElements(v, reduce->output(0));
  }
  return it->second;
}

bool FusionPlanner::StitchCompatible(int ga, int gb, std::string* reason,
                                     std::string* constraint) {
  // Gather all reduces across both groups.
  std::vector<const Node*> reduces;
  for (int g : {ga, gb}) {
    for (const Node* n : members_[g]) {
      if (IsReduce(n)) reduces.push_back(n);
    }
  }
  if (reduces.empty()) {
    SetOut(reason, "blocked:no-reduce-to-stitch-around");
    SetOut(constraint, "");
    return false;
  }
  const SymbolicDimManager& m = analysis_->manager();

  // All reduces must be trailing-dim row reductions over the same row space.
  const Node* first = reduces[0];
  const RowSpace& space = RowSpaceOf(first);
  if (!space.trailing) {
    SetOut(reason, "blocked:not-trailing-row-reduction");
    SetOut(constraint, "%" + std::to_string(first->output(0)->id()) +
                           " reduces non-trailing dims; rows cannot be "
                           "staged in shared memory");
    return false;
  }
  const SymShape& full = analysis_->GetShape(space.full);
  for (const Node* r : reduces) {
    if (!RowSpaceOf(r).trailing) {
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
                   " but the stitch row space is " + space.full_text +
                   "; no shape-equality fact unifies them");
        return false;
      }
    } else if (!(r->operand(0)->type().IsFullyStatic() &&
                 space.full->type().IsFullyStatic() &&
                 r->operand(0)->type() == space.full->type())) {
      SetOut(reason, "blocked:static-shape-unknown");
      SetOut(constraint,
             "reduce inputs " + r->operand(0)->type().ToString() + " vs " +
                 space.full->type().ToString() +
                 "; dynamic dims cannot be proven row-compatible without "
                 "symbolic relations");
      return false;
    }
  }

  // Every member's output must live in the full space or the row space.
  int64_t full_shaped_intermediates = 0;
  for (int g : {ga, gb}) {
    for (const Node* n : members_[g]) {
      for (const Value* out : n->outputs()) {
        bool is_full = ProvenSameNumElements(out, space.full);
        if (!is_full && !IsRowShaped(out, first)) {
          SetOut(reason, "blocked:intermediate-not-row-or-full-shaped");
          SetOut(constraint,
                 "%" + std::to_string(out->id()) + " has " +
                     NumElementsText(out) + "; stitch needs the full space " +
                     space.full_text + " or the row space (" +
                     space.rows_text + " rows)");
          return false;
        }
        if (is_full) ++full_shaped_intermediates;
      }
    }
  }
  // Shared-memory budget: each stitched stage stages one row of f32.
  if (space.row_upper_bound.has_value()) {
    int64_t bytes = *space.row_upper_bound * 4 *
                    std::max<int64_t>(1, full_shaped_intermediates / 2);
    if (bytes > options_.stitch_shared_memory_bytes) {
      SetOut(reason, "blocked:shared-memory-budget");
      SetOut(constraint,
             StrFormat("row extent %s has proven upper bound %lld -> %lld "
                       "bytes of staging > %lld budget",
                       m.Canonicalize(space.row_extent).ToString().c_str(),
                       static_cast<long long>(*space.row_upper_bound),
                       static_cast<long long>(bytes),
                       static_cast<long long>(
                           options_.stitch_shared_memory_bytes)));
      return false;
    }
  }
  // Unknown upper bound: optimistically stitch; the generated kernel keeps
  // a block-reduce schedule variant that handles long rows.
  SetOut(reason, "stitch:row-synchronized-reduces");
  SetOut(constraint, "all reduces stream " + space.full_text + " row-wise (" +
                         space.rows_text +
                         " rows); every intermediate is row- or full-shaped");
  return true;
}

void FusionPlanner::RunStitchFusion() {
  bool changed = true;
  while (changed) {
    changed = false;
    for (Node* consumer : topo_) {
      if (!IsFusable(consumer)) continue;
      for (Value* operand : consumer->operands()) {
        Node* producer = operand->producer();
        if (producer == nullptr || !IsFusable(producer)) continue;
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
          RecordDecision(producer, consumer, "stitch", false, reason,
                         constraint);
          continue;
        }
        std::string merge_block;
        if (TryMergeGroups(pg, cg, &merge_block)) {
          changed = true;
          RecordDecision(producer, consumer, "stitch", true, reason,
                         constraint);
        } else {
          RecordDecision(producer, consumer, "stitch", false, merge_block,
                         "row spaces were compatible (" + constraint +
                             ") but the group merge was refused");
        }
      }
    }
  }
}

Result<FusionPlan> FusionPlanner::Plan() {
  topo_ = graph_->TopologicalOrder();
  int num_node_ids = 0;
  int num_value_ids = 0;
  for (const Value* input : graph_->inputs()) {
    num_value_ids = std::max(num_value_ids, input->id() + 1);
  }
  for (const Node* node : topo_) {
    num_node_ids = std::max(num_node_ids, node->id() + 1);
    for (const Value* out : node->outputs()) {
      num_value_ids = std::max(num_value_ids, out->id() + 1);
    }
  }
  index_of_.assign(num_node_ids, -1);
  topo_pos_.assign(num_node_ids, -1);
  mark_.assign(num_node_ids, 0);
  stamp_ = 0;
  is_graph_output_.assign(num_value_ids, 0);
  for (const Value* out : graph_->outputs()) is_graph_output_[out->id()] = 1;
  parent_.clear();
  members_.clear();
  decisions_.clear();
  decision_index_.clear();
  prover_.emplace(analysis_->manager());
  loop_verdicts_.clear();
  same_num_elements_.clear();
  row_shaped_.clear();
  row_spaces_.clear();
  num_elements_text_.clear();
  for (size_t i = 0; i < topo_.size(); ++i) {
    Node* node = topo_[i];
    topo_pos_[node->id()] = static_cast<int>(i);
    if (!IsFusableCompute(node)) continue;
    int idx = static_cast<int>(parent_.size());
    index_of_[node->id()] = idx;
    parent_.push_back(idx);
    members_.push_back({node});
  }

  if (options_.enable_fusion) {
    RunLoopFusion();
    if (options_.enable_input_fusion) RunInputFusion();
    if (options_.enable_stitch) RunStitchFusion();
  }
  Result<FusionPlan> plan = Finalize();
  prover_.reset();
  return plan;
}

Result<FusionPlan> FusionPlanner::Finalize() {
  FusionPlan plan;
  // Reconcile stale verdicts: a pair can be rejected on direct
  // consideration yet end up in one group transitively (merges through
  // other edges), and merged pairs are never re-evaluated. Rewrite those
  // to fused, keeping the historical reason as provenance.
  std::unordered_map<int, const Node*> node_of_id;
  for (const Node* node : topo_) {
    if (IsFusable(node)) node_of_id[node->output(0)->id()] = node;
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

  // Groups in topological order of their first member; `group_of_id` is
  // plan.group_of by node id.
  std::vector<int> group_of_root(parent_.size(), -1);
  std::vector<int> group_of_id(index_of_.size(), -1);
  for (Node* node : topo_) {
    if (!IsFusable(node)) continue;
    int& gid = group_of_root[Find(IndexOf(node))];
    if (gid < 0) {
      gid = static_cast<int>(plan.groups.size());
      plan.groups.emplace_back();
      plan.groups.back().id = gid;
    }
    plan.groups[gid].nodes.push_back(node);
    plan.group_of[node] = gid;
    group_of_id[node->id()] = gid;
  }

  std::vector<int> seen_in(is_graph_output_.size(), -1);  // by value id
  for (FusionGroup& group : plan.groups) {
    auto inside = [&](const Node* n) {
      return group_of_id[n->id()] == group.id;
    };
    // Inputs: external operands (deduplicated, excluding host-shape-only
    // operands of dynamic reshape/broadcast which codegen reads from the
    // runtime shape program instead — they are still listed as inputs so
    // dependency tracking stays conservative).
    for (Node* node : group.nodes) {
      for (Value* operand : node->operands()) {
        if (operand->producer() != nullptr && inside(operand->producer())) {
          continue;
        }
        if (seen_in[operand->id()] != group.id) {
          seen_in[operand->id()] = group.id;
          group.inputs.push_back(operand);
        }
      }
    }
    // Outputs: values used outside or graph outputs.
    int num_reduces = 0;
    for (Node* node : group.nodes) {
      if (IsReduce(node)) ++num_reduces;
      for (Value* out : node->outputs()) {
        bool external = is_graph_output_[out->id()] != 0;
        for (const Node* user : out->users()) {
          if (!inside(user)) external = true;
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
      if (root == nullptr ||
          topo_pos_[producer->id()] > topo_pos_[root->id()]) {
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
