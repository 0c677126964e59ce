#include "baselines/interpreter_engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "kernel/library.h"
#include "runtime/allocator.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/trace.h"

namespace disc {

InterpreterProfile InterpreterProfile::PyTorch() {
  InterpreterProfile profile;
  profile.name = "PyTorch";
  profile.per_op_host_us = 5.0;  // python dispatch + shape infer + launch
  profile.fuse_pointwise_chains = false;
  profile.vendor_composites = false;
  profile.gemm_efficiency = 0.85;
  return profile;
}

InterpreterProfile InterpreterProfile::TorchScript() {
  InterpreterProfile profile;
  profile.name = "TorchScript";
  profile.per_op_host_us = 2.5;  // C++ interpreter dispatch
  profile.fuse_pointwise_chains = true;
  profile.vendor_composites = false;
  profile.gemm_efficiency = 0.85;
  return profile;
}

InterpreterProfile InterpreterProfile::OnnxRuntime() {
  InterpreterProfile profile;
  profile.name = "ONNXRuntime";
  profile.per_op_host_us = 2.0;  // lean C++ runtime
  profile.fuse_pointwise_chains = true;
  profile.vendor_composites = true;  // contrib fused kernels
  profile.gemm_efficiency = 0.87;
  return profile;
}

namespace {

// Scalar-constant test used by the matchers.
bool IsScalarConst(const Value* v, double value, double tol = 1e-4) {
  const Node* producer = v->producer();
  if (producer == nullptr || producer->kind() != OpKind::kConstant) {
    return false;
  }
  const Tensor& t = producer->GetTensorAttr("value");
  return t.num_elements() == 1 &&
         std::abs(t.ElementAsDouble(0) - value) < tol;
}

const Node* ProducerIf(const Value* v, OpKind kind) {
  const Node* producer = v->producer();
  return (producer != nullptr && producer->kind() == kind) ? producer
                                                           : nullptr;
}

bool IsKeepDimsReduce(const Node* node, OpKind kind) {
  return node != nullptr && node->kind() == kind &&
         node->GetIntAttr("keep_dims", 0) != 0;
}

}  // namespace

std::vector<const Node*> MatchSoftmax(const Node* div_root) {
  if (div_root == nullptr || div_root->kind() != OpKind::kDiv) return {};
  const Node* exp = ProducerIf(div_root->operand(0), OpKind::kExp);
  const Node* rsum = ProducerIf(div_root->operand(1), OpKind::kReduceSum);
  if (exp == nullptr || !IsKeepDimsReduce(rsum, OpKind::kReduceSum)) {
    return {};
  }
  if (rsum->operand(0) != exp->output(0)) return {};
  const Node* sub = ProducerIf(exp->operand(0), OpKind::kSub);
  if (sub == nullptr) return {};
  const Node* rmax = ProducerIf(sub->operand(1), OpKind::kReduceMax);
  if (!IsKeepDimsReduce(rmax, OpKind::kReduceMax)) return {};
  if (rmax->operand(0) != sub->operand(0)) return {};
  return {rmax, sub, exp, rsum, div_root};
}

std::vector<const Node*> MatchLayerNorm(const Node* add_root) {
  if (add_root == nullptr || add_root->kind() != OpKind::kAdd) return {};
  const Node* mul_scale = ProducerIf(add_root->operand(0), OpKind::kMul);
  if (mul_scale == nullptr) return {};
  const Node* normalized = ProducerIf(mul_scale->operand(0), OpKind::kMul);
  if (normalized == nullptr) return {};
  const Node* centered = ProducerIf(normalized->operand(0), OpKind::kSub);
  const Node* inv_std = ProducerIf(normalized->operand(1), OpKind::kRsqrt);
  if (centered == nullptr || inv_std == nullptr) return {};
  const Node* add_eps = ProducerIf(inv_std->operand(0), OpKind::kAdd);
  if (add_eps == nullptr) return {};
  const Node* var = ProducerIf(add_eps->operand(0), OpKind::kReduceMean);
  if (!IsKeepDimsReduce(var, OpKind::kReduceMean)) return {};
  const Node* mul_cc = ProducerIf(var->operand(0), OpKind::kMul);
  if (mul_cc == nullptr || mul_cc->operand(0) != centered->output(0) ||
      mul_cc->operand(1) != centered->output(0)) {
    return {};
  }
  const Node* mean = ProducerIf(centered->operand(1), OpKind::kReduceMean);
  if (!IsKeepDimsReduce(mean, OpKind::kReduceMean)) return {};
  if (mean->operand(0) != centered->operand(0)) return {};
  return {mean,    centered, mul_cc,    var,     add_eps,
          inv_std, normalized, mul_scale, add_root};
}

std::vector<const Node*> MatchGelu(const Node* mul_root) {
  // Mul(Mul(0.5, x), Add(1, Tanh(inner)))
  if (mul_root == nullptr || mul_root->kind() != OpKind::kMul) return {};
  const Node* half_x = ProducerIf(mul_root->operand(0), OpKind::kMul);
  const Node* one_plus = ProducerIf(mul_root->operand(1), OpKind::kAdd);
  if (half_x == nullptr || one_plus == nullptr) return {};
  if (!IsScalarConst(half_x->operand(0), 0.5)) return {};
  if (!IsScalarConst(one_plus->operand(0), 1.0)) return {};
  const Node* tanh = ProducerIf(one_plus->operand(1), OpKind::kTanh);
  if (tanh == nullptr) return {};
  const Node* inner = ProducerIf(tanh->operand(0), OpKind::kMul);
  if (inner == nullptr || !IsScalarConst(inner->operand(0), 0.7978845608)) {
    return {};
  }
  const Node* add_x = ProducerIf(inner->operand(1), OpKind::kAdd);
  if (add_x == nullptr) return {};
  const Node* m044 = ProducerIf(add_x->operand(1), OpKind::kMul);
  if (m044 == nullptr || !IsScalarConst(m044->operand(0), 0.044715)) {
    return {};
  }
  const Node* x3 = ProducerIf(m044->operand(1), OpKind::kMul);
  if (x3 == nullptr) return {};
  const Node* xx = ProducerIf(x3->operand(0), OpKind::kMul);
  if (xx == nullptr) return {};
  return {xx, x3, m044, add_x, inner, tanh, one_plus, half_x, mul_root};
}

Status InterpreterEngine::Prepare(
    const Graph& graph, std::vector<std::vector<std::string>> labels) {
  DISC_RETURN_IF_ERROR(PrepareCommon(graph, std::move(labels)));
  analysis_ = std::make_unique<ShapeAnalysis>(graph_.get(), labels_);
  DISC_RETURN_IF_ERROR(analysis_->Run());
  BuildUnits();
  return Status::OK();
}

void InterpreterEngine::BuildUnits() {
  units_.clear();
  std::vector<Node*> topo = graph_->TopologicalOrder();
  std::unordered_set<const Node*> assigned;

  auto all_internal_uses = [&](const std::vector<const Node*>& members) {
    std::unordered_set<const Node*> inside(members.begin(), members.end());
    for (const Node* member : members) {
      if (member == members.back()) continue;  // root may escape
      for (const Value* out : member->outputs()) {
        for (const Node* user : out->users()) {
          if (!inside.count(user)) return false;
        }
        for (const Value* go : graph_->outputs()) {
          if (go == out) return false;
        }
      }
    }
    return true;
  };

  // 1. Vendor composite kernels (matched bottom-up from candidate roots).
  if (profile_.vendor_composites) {
    for (const Node* node : topo) {
      for (auto matcher : {MatchSoftmax, MatchLayerNorm, MatchGelu}) {
        std::vector<const Node*> members = matcher(node);
        if (members.empty()) continue;
        bool clean = all_internal_uses(members);
        for (const Node* member : members) {
          if (assigned.count(member)) clean = false;
        }
        if (!clean) continue;
        Unit unit;
        unit.kind = Unit::Kind::kComposite;
        unit.nodes = members;
        for (const Node* member : members) {
          assigned.insert(member);
          if (IsReduction(member->kind())) unit.has_reduce = true;
        }
        ComputeUnitBoundaries(&unit);
        units_.push_back(std::move(unit));
        break;
      }
    }
  }

  // 2. Pointwise chains (TorchScript-style): grow maximal chains through
  // single-use elementwise producers.
  std::unordered_map<const Node*, int> chain_of;
  std::vector<std::vector<const Node*>> chains;
  if (profile_.fuse_pointwise_chains) {
    for (const Node* node : topo) {
      if (assigned.count(node)) continue;
      if (node->op_class() != OpClass::kElementwise) continue;
      // Join the chain of an elementwise producer whose only use is here.
      int joined = -1;
      for (const Value* operand : node->operands()) {
        const Node* producer = operand->producer();
        if (producer == nullptr || assigned.count(producer)) continue;
        if (!chain_of.count(producer)) continue;
        if (operand->users().size() != 1) continue;
        bool is_graph_output = false;
        for (const Value* go : graph_->outputs()) {
          if (go == operand) is_graph_output = true;
        }
        if (is_graph_output) continue;
        joined = chain_of[producer];
        break;
      }
      if (joined < 0) {
        joined = static_cast<int>(chains.size());
        chains.emplace_back();
      }
      chains[joined].push_back(node);
      chain_of[node] = joined;
    }
    for (const auto& chain : chains) {
      if (chain.size() < 2) continue;  // singletons handled below
      Unit unit;
      unit.kind = Unit::Kind::kDevice;
      unit.nodes = chain;
      for (const Node* member : chain) assigned.insert(member);
      ComputeUnitBoundaries(&unit);
      units_.push_back(std::move(unit));
    }
  }

  // 3. Everything else: one unit per node.
  for (const Node* node : topo) {
    if (assigned.count(node)) continue;
    Unit unit;
    unit.nodes = {node};
    if (node->kind() == OpKind::kConstant) {
      unit.kind = Unit::Kind::kConstant;
    } else if (node->op_class() == OpClass::kShape ||
               (IsIntegral(node->output(0)->dtype()) &&
                analysis_->GetContent(node->output(0)) != nullptr)) {
      unit.kind = Unit::Kind::kHost;
    } else if (node->op_class() == OpClass::kLibrary) {
      unit.kind = Unit::Kind::kLibrary;
    } else {
      unit.kind = Unit::Kind::kDevice;
      unit.has_reduce = IsReduction(node->kind());
    }
    ComputeUnitBoundaries(&unit);
    units_.push_back(std::move(unit));
  }

  // Order units by the topological position of their last member so the
  // liveness accounting in Query sees a valid schedule.
  std::unordered_map<const Node*, size_t> pos;
  for (size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  std::sort(units_.begin(), units_.end(),
            [&](const Unit& a, const Unit& b) {
              return pos.at(a.nodes.back()) < pos.at(b.nodes.back());
            });
}

void InterpreterEngine::ComputeUnitBoundaries(Unit* unit) const {
  std::unordered_set<const Node*> inside(unit->nodes.begin(),
                                         unit->nodes.end());
  std::unordered_set<const Value*> seen;
  for (const Node* node : unit->nodes) {
    for (const Value* operand : node->operands()) {
      if (operand->producer() != nullptr && inside.count(operand->producer())) {
        continue;
      }
      if (seen.insert(operand).second) unit->inputs.push_back(operand);
    }
    for (const Value* out : node->outputs()) {
      bool external = false;
      for (const Node* user : out->users()) {
        if (!inside.count(user)) external = true;
      }
      for (const Value* go : graph_->outputs()) {
        if (go == out) external = true;
      }
      if (external) unit->outputs.push_back(out);
    }
  }
  if (unit->outputs.empty() && !unit->nodes.empty()) {
    unit->outputs.push_back(unit->nodes.back()->output(0));
  }
}

int64_t InterpreterEngine::num_device_units() const {
  int64_t n = 0;
  for (const Unit& unit : units_) {
    if (unit.kind == Unit::Kind::kDevice ||
        unit.kind == Unit::Kind::kComposite ||
        unit.kind == Unit::Kind::kLibrary) {
      ++n;
    }
  }
  return n;
}

Result<EngineTiming> InterpreterEngine::Query(
    const std::vector<std::vector<int64_t>>& input_dims,
    const DeviceSpec& device) {
  if (analysis_ == nullptr) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  TraceScope query_scope(profile_.name, "engine.query");
  DISC_ASSIGN_OR_RETURN(SymbolBindings bindings,
                        analysis_->BindInputs(input_dims));
  DISC_ASSIGN_OR_RETURN(ShapeTable shapes, analysis_->EvaluateShapes(bindings));
  DeviceModel model(device);
  EngineTiming timing;
  CachingAllocator allocator;
  CountQuery();

  auto numel_of = [&](const Value* v) { return shapes.num_elements(v); };

  // Liveness for peak-memory accounting.
  std::unordered_map<const Value*, size_t> last_use;
  for (size_t u = 0; u < units_.size(); ++u) {
    for (const Value* in : units_[u].inputs) last_use[in] = u;
  }
  std::unordered_set<const Value*> graph_outputs(graph_->outputs().begin(),
                                                 graph_->outputs().end());
  std::unordered_map<const Value*, int64_t> block_of;

  for (size_t u = 0; u < units_.size(); ++u) {
    const Unit& unit = units_[u];
    switch (unit.kind) {
      case Unit::Kind::kConstant: {
        const Value* out = unit.nodes[0]->output(0);
        DISC_ASSIGN_OR_RETURN(
            block_of[out],
            allocator.Allocate(numel_of(out) * DTypeSize(out->dtype())));
        break;
      }
      case Unit::Kind::kHost: {
        timing.host_us += profile_.per_op_host_us;
        break;
      }
      case Unit::Kind::kLibrary: {
        DISC_ASSIGN_OR_RETURN(
            LibraryCallStats stats,
            ComputeLibraryStats(*unit.nodes[0], shapes));
        KernelCost cost =
            model.EstimateLibrary(stats, profile_.gemm_efficiency);
        timing.device_us += cost.time_us;
        timing.host_us += profile_.per_op_host_us;
        timing.kernel_launches += 1;
        timing.bytes_moved += stats.bytes_read + stats.bytes_written;
        break;
      }
      case Unit::Kind::kDevice:
      case Unit::Kind::kComposite: {
        KernelStats stats;
        for (const Value* in : unit.inputs) {
          stats.bytes_read += numel_of(in) * DTypeSize(in->dtype());
        }
        for (const Value* out : unit.outputs) {
          stats.bytes_written += numel_of(out) * DTypeSize(out->dtype());
        }
        int64_t rows = 0;
        int64_t row = 0;
        for (const Node* node : unit.nodes) {
          int64_t domain;
          if (IsReduction(node->kind())) {
            domain = numel_of(node->operand(0));
            rows = numel_of(node->output(0));
            row = rows > 0 ? domain / rows : 0;
          } else {
            domain = numel_of(node->output(0));
          }
          stats.flops += domain * std::max<int64_t>(OpFlopCost(node->kind()),
                                                    1);
          stats.index_ops += domain;
        }
        // Handwritten framework kernels: well-vectorized, tight indexing.
        KernelVariant variant;
        variant.vector_width = 4;
        variant.broadcast_free = true;
        if (unit.has_reduce) {
          variant.schedule = (row <= 1024 && rows >= 1024)
                                 ? ReduceSchedule::kWarpPerRow
                                 : ReduceSchedule::kBlockPerRow;
          if (variant.schedule == ReduceSchedule::kWarpPerRow) {
            stats.threads_per_block = 256;
            stats.num_blocks = std::max<int64_t>(1, CeilDiv(rows, 8));
          } else {
            stats.threads_per_block =
                std::min<int64_t>(1024, std::max<int64_t>(32, RoundUp(row, 32)));
            stats.num_blocks = std::max<int64_t>(1, rows);
          }
        } else {
          const int64_t out_n = numel_of(unit.nodes.back()->output(0));
          stats.threads_per_block = 256;
          stats.num_blocks = std::max<int64_t>(1, CeilDiv(out_n / 4 + 1, 256));
        }
        KernelCost cost = model.EstimateGenerated(stats, variant);
        timing.device_us += cost.time_us;
        timing.host_us += profile_.per_op_host_us;
        timing.kernel_launches += 1;
        timing.bytes_moved += stats.total_bytes();
        break;
      }
    }
    // Allocate unit outputs; free dead values.
    if (unit.kind != Unit::Kind::kConstant &&
        unit.kind != Unit::Kind::kHost) {
      for (const Value* out : unit.outputs) {
        DISC_ASSIGN_OR_RETURN(
            block_of[out],
            allocator.Allocate(numel_of(out) * DTypeSize(out->dtype())));
      }
    }
    for (auto it = block_of.begin(); it != block_of.end();) {
      const Value* v = it->first;
      auto lu = last_use.find(v);
      bool dead = (lu == last_use.end() || lu->second <= u) &&
                  !graph_outputs.count(v) &&
                  (v->producer() == nullptr ||
                   v->producer()->kind() != OpKind::kConstant);
      if (dead) {
        DISC_RETURN_IF_ERROR(allocator.Free(it->second));
        it = block_of.erase(it);
      } else {
        ++it;
      }
    }
  }

  timing.peak_memory_bytes = allocator.stats().peak_bytes_in_use;
  timing.total_us = timing.device_us + timing.host_us;
  return timing;
}

}  // namespace disc
