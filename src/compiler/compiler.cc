#include "compiler/compiler.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "support/artifact_dump.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace disc {

namespace {

// Times one pipeline phase into CompileReport::phase_ms and emits a
// compile-category trace span with the same name.
class PhaseScope {
 public:
  PhaseScope(CompileReport* report, const char* name)
      : report_(report),
        name_(name),
        trace_(name, "compile"),
        start_(std::chrono::steady_clock::now()) {}
  ~PhaseScope() {
    report_->phase_ms.emplace_back(
        name_, std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
                   .count());
  }

 private:
  CompileReport* report_;
  const char* name_;
  TraceScope trace_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

CompileOptions CompileOptions::NoFusion() {
  CompileOptions options;
  options.fusion.enable_fusion = false;
  options.specialize.enable_specialization = false;
  return options;
}

CompileOptions CompileOptions::NoSpecialization() {
  CompileOptions options;
  options.specialize.enable_specialization = false;
  return options;
}

CompileOptions CompileOptions::NoSymbolicShapes() {
  CompileOptions options;
  options.fusion.use_symbolic_shapes = false;
  return options;
}

Result<std::unique_ptr<Executable>> DiscCompiler::Compile(
    const Graph& graph, std::vector<std::vector<std::string>> input_dim_labels,
    const CompileOptions& options) {
  auto start = std::chrono::steady_clock::now();
  TraceScope compile_scope("compile", "compile");
  compile_scope.AddArg("graph", graph.name());
  CountMetric("compile.count");
  // Fault seam: compilation happens on the serving path under dynamic
  // shapes (a shape-cache miss triggers it), so a chaos schedule can fail
  // it here and the fallback chain above must degrade, not die.
  DISC_INJECT_FAILPOINT("compiler.compile");

  auto exe = std::unique_ptr<Executable>(new Executable());
  exe->report_.num_nodes_before = graph.num_nodes();

  ArtifactDumper dumper(options.dump);
  // Renders an artifact only when it will be written. Dumping is off in
  // almost every compile, and the renderings (IR text, JSON) would be a
  // large share of the compile's time.
  auto dump = [&dumper](const std::string& name, const auto& render) {
    if (dumper.Matches(name)) (void)dumper.Write(name, render());
  };

  // 1. Clone and optimize.
  {
    PhaseScope phase(&exe->report_, "graph-passes");
    exe->graph_ = graph.Clone();
    dump("module_input.ir", [&] { return exe->graph_->ToString(); });
    if (options.run_graph_passes) {
      PassManager pm;
      AddStandardPasses(&pm);
      PassContext ctx;
      ctx.input_dim_labels = input_dim_labels;
      ctx.dump = options.dump;
      DISC_RETURN_IF_ERROR(pm.RunToFixpoint(exe->graph_.get(), ctx));
      dump("pipeline_summary.json", [&] { return pm.PipelineSummaryJson(); });
    }
    DISC_RETURN_IF_ERROR(exe->graph_->Verify());
    exe->report_.num_nodes_after = exe->graph_->num_nodes();
    dump("module_optimized.ir", [&] { return exe->graph_->ToString(); });
  }

  // 2. Symbolic shape analysis over the optimized graph.
  {
    PhaseScope phase(&exe->report_, "shape-analysis");
    exe->analysis_ = std::make_unique<ShapeAnalysis>(
        exe->graph_.get(), std::move(input_dim_labels));
    DISC_RETURN_IF_ERROR(exe->analysis_->Run());

    // 2b. Seed divisibility facts and shape-speculation hints: map labels
    // to their symbols via the seeded input shapes. Divisors go first so
    // likely-value hints can be validated against them — a hint that
    // contradicts a known divisibility (profile noise, stale feedback)
    // must not reach the specializer, where its equality guard could never
    // fire yet would burn a max_speculative_variants slot.
    if (!options.likely_dim_values.empty() || !options.dim_divisors.empty()) {
      const auto& graph_inputs = exe->graph_->inputs();
      for (size_t i = 0; i < graph_inputs.size(); ++i) {
        const SymShape& shape = exe->analysis_->GetShape(graph_inputs[i]);
        for (size_t d = 0; d < shape.size(); ++d) {
          if (!shape[d].IsSymbol()) continue;
          SymbolId symbol = shape[d].symbol();
          const std::string& name =
              exe->analysis_->manager().Info(symbol).name;
          for (const auto& [label, divisor] : options.dim_divisors) {
            if (label != name || divisor <= 1) continue;
            exe->analysis_->manager().AddDivisibility(symbol, divisor);
            ConstraintRecord record;
            record.kind = "divisibility";
            record.detail = name + " % " + std::to_string(divisor) + " == 0";
            record.source = "user-hint";
            exe->analysis_->RecordConstraint(std::move(record));
          }
          for (const auto& [label, values] : options.likely_dim_values) {
            if (label != name) continue;
            int64_t divisor = exe->analysis_->manager().GetDivisor(symbol);
            std::vector<int64_t> accepted;
            for (int64_t v : values) {
              if (divisor > 1 && v % divisor != 0) {
                ConstraintRecord blocked;
                blocked.kind = "likely-value";
                blocked.detail = "blocked: " + name + "=" +
                                 std::to_string(v) +
                                 " violates divisibility " + name + " % " +
                                 std::to_string(divisor) + " == 0";
                blocked.source = "user-hint";
                exe->analysis_->RecordConstraint(std::move(blocked));
                continue;
              }
              exe->analysis_->manager().AddLikelyValue(symbol, v);
              accepted.push_back(v);
            }
            if (accepted.empty()) continue;
            ConstraintRecord record;
            record.kind = "likely-value";
            record.detail =
                name + " in {" +
                JoinMapped(accepted, ", ",
                           [](int64_t v) { return std::to_string(v); }) +
                "}";
            record.source = "user-hint";
            exe->analysis_->RecordConstraint(std::move(record));
          }
        }
      }
    }
    dump("shape_constraints.json",
         [&] { return exe->analysis_->ConstraintsJson(); });
  }

  // 3. Fusion planning.
  {
    PhaseScope phase(&exe->report_, "fusion-planning");
    FusionPlanner planner(exe->graph_.get(), exe->analysis_.get(),
                          options.fusion);
    DISC_ASSIGN_OR_RETURN(exe->plan_, planner.Plan());
    exe->report_.fusion = exe->plan_.GetStats();
    dump("fusion_decisions.json", [&] { return exe->plan_.DecisionsJson(); });
    dump("fusion_plan.txt", [&] { return exe->plan_.ToString(); });
  }

  // 4. Kernel compilation + specialization.
  std::unordered_map<int, const FusedKernel*> kernel_of_group;
  {
    PhaseScope phase(&exe->report_, "kernel-compile");
    for (const FusionGroup& group : exe->plan_.groups) {
      exe->kernels_.push_back(std::make_unique<FusedKernel>(
          group, exe->analysis_.get(), options.specialize));
      kernel_of_group[group.id] = exe->kernels_.back().get();
      // Injected miscompiles taint the *artifact* at compile time, so the
      // produced executable is persistently wrong — the case differential
      // admission validation exists to catch. Armed here (not in the
      // FusedKernel ctor) so scratch kernels built for counterfactual
      // audits never consume failpoint hits.
      if (!CheckFailpoint("kernel.miscompile").ok()) {
        exe->kernels_.back()->set_miscompiled(true);
      }
      if (!CheckFailpoint("kernel.guard.mispredict").ok()) {
        exe->kernels_.back()->set_guard_mispredict(true);
      }
      exe->report_.num_variants +=
          static_cast<int64_t>(exe->kernels_.back()->variants().size());
    }
    exe->report_.num_kernels = static_cast<int64_t>(exe->kernels_.size());
  }

  // 5. Step scheduling: a topological order of the group *condensation*
  // (each fused group is one unit; ungrouped nodes are their own unit).
  // Emitting groups merely at their last member's position would be wrong:
  // an external consumer of an early group output can precede the group's
  // last member in node order. The planner's cycle check guarantees the
  // condensation is a DAG, so Kahn's algorithm applies.
  {
    PhaseScope phase(&exe->report_, "step-schedule");
    std::vector<Node*> topo = exe->graph_->TopologicalOrder();
    // Units are numbered in discovery order (the topological position of
    // their first node); `group_unit` maps a group id to its unit, and an
    // ungrouped node is a unit of its own. Unit arrays are dense.
    const int num_groups = static_cast<int>(exe->plan_.groups.size());
    std::vector<int> group_unit(num_groups, -1);
    std::vector<int> unit_group;      // group id, or -1 for a single node
    std::vector<Node*> unit_node;     // first node of the unit
    int num_node_ids = 0;
    for (const Node* node : topo) {
      num_node_ids = std::max(num_node_ids, node->id() + 1);
    }
    std::vector<int> unit_of(num_node_ids, -1);  // by Node::id()
    for (Node* node : topo) {
      auto it = exe->plan_.group_of.find(node);
      int group = it != exe->plan_.group_of.end() ? it->second : -1;
      int unit = group >= 0 ? group_unit[group] : -1;
      if (unit < 0) {
        unit = static_cast<int>(unit_group.size());
        unit_group.push_back(group);
        unit_node.push_back(node);
        if (group >= 0) group_unit[group] = unit;
      }
      unit_of[node->id()] = unit;
    }
    // Distinct unit edges: each unit's consumers, and its pending count of
    // distinct producers.
    const int num_units = static_cast<int>(unit_group.size());
    std::vector<std::vector<int>> consumers(num_units);
    std::vector<int> pending(num_units, 0);
    std::vector<int> last_consumer(num_units, -1);  // dedup per producer
    std::vector<std::vector<int>> producers(num_units);
    for (Node* node : topo) {
      int unit = unit_of[node->id()];
      for (Value* operand : node->operands()) {
        Node* producer = operand->producer();
        if (producer == nullptr) continue;
        int producer_unit = unit_of[producer->id()];
        if (producer_unit != unit) producers[unit].push_back(producer_unit);
      }
    }
    for (int unit = 0; unit < num_units; ++unit) {
      for (int producer_unit : producers[unit]) {
        if (last_consumer[producer_unit] == unit) continue;
        last_consumer[producer_unit] = unit;
        consumers[producer_unit].push_back(unit);
        ++pending[unit];
      }
    }
    // Kahn in sweeps over the discovery order: each sweep emits every
    // ready unit in order, so a unit that becomes ready mid-sweep is
    // emitted in the same sweep only when it comes later in that order.
    std::vector<int> emitted;
    emitted.reserve(num_units);
    std::vector<char> done(num_units, 0);
    while (static_cast<int>(emitted.size()) < num_units) {
      bool progressed = false;
      for (int unit = 0; unit < num_units; ++unit) {
        if (done[unit] || pending[unit] != 0) continue;
        emitted.push_back(unit);
        done[unit] = 1;
        progressed = true;
        for (int consumer : consumers[unit]) --pending[consumer];
      }
      if (!progressed) {
        return Status::Internal("fused-group condensation has a cycle");
      }
    }
    for (int unit : emitted) {
      if (unit_group[unit] >= 0) {
        Executable::Step step;
        step.kind = Executable::Step::Kind::kKernel;
        step.kernel = kernel_of_group.at(unit_group[unit]);
        exe->steps_.push_back(step);
        continue;
      }
      Node* node = unit_node[unit];
      Executable::Step step;
      step.node = node;
      if (node->kind() == OpKind::kConstant) {
        step.kind = Executable::Step::Kind::kConstant;
        step.constant = &node->GetTensorAttr("value");
      } else if (node->op_class() == OpClass::kShape ||
                 (IsIntegral(node->output(0)->dtype()) &&
                  exe->analysis_->GetContent(node->output(0)) != nullptr)) {
        // Shape computation placed on the host (RAL-style).
        step.kind = Executable::Step::Kind::kHost;
      } else if (node->op_class() == OpClass::kLibrary) {
        step.kind = Executable::Step::Kind::kLibrary;
      } else {
        // A fusable op the planner left out of every group (does not happen
        // with the current planner, but keep the executable total).
        return Status::Internal(std::string("unscheduled node: ") +
                                OpName(node->kind()));
      }
      exe->steps_.push_back(step);
    }
  }

  // 6. Symbolic arena planning: byte offsets into one arena, valid for
  // every runtime shape (ProvablyLe discharges cross-size reuse). The
  // schedule has one entry per step. Constants are pinned arena residents,
  // so an arena-mode Run allocates exactly once. Host steps contribute
  // their uses: a device value a host shape-op reads must stay live until
  // that step. Liveness is shape-independent, so the plan's per-step
  // release lists are fixed here, and every caching-allocator Run (cached
  // plan or not) frees by them.
  {
    PhaseScope phase(&exe->report_, "memory-planning");
    std::vector<PlanStep> plan_steps;
    std::vector<const Value*> keep_alive(exe->graph_->outputs().begin(),
                                         exe->graph_->outputs().end());
    for (const Executable::Step& step : exe->steps_) {
      PlanStep ps;
      switch (step.kind) {
        case Executable::Step::Kind::kKernel:
          ps.defines.assign(step.kernel->group().outputs.begin(),
                            step.kernel->group().outputs.end());
          ps.uses.assign(step.kernel->group().inputs.begin(),
                         step.kernel->group().inputs.end());
          break;
        case Executable::Step::Kind::kLibrary:
          ps.defines.assign(step.node->outputs().begin(),
                            step.node->outputs().end());
          ps.uses.assign(step.node->operands().begin(),
                         step.node->operands().end());
          break;
        case Executable::Step::Kind::kConstant:
          ps.defines.push_back(step.node->output(0));
          keep_alive.push_back(step.node->output(0));
          break;
        case Executable::Step::Kind::kHost:
          ps.uses.assign(step.node->operands().begin(),
                         step.node->operands().end());
          break;
      }
      plan_steps.push_back(std::move(ps));
    }
    exe->memory_plan_ = PlanArena(plan_steps, keep_alive, *exe->analysis_);
    // The data path's dense value numbering, with each step's release list.
    DISC_RETURN_IF_ERROR(exe->IndexValues());
    exe->report_.arena_slots = exe->memory_plan_.num_slots();
    exe->report_.arena_cross_size_reuses =
        exe->memory_plan_.num_cross_size_reuses;
    exe->report_.arena_fallbacks =
        static_cast<int64_t>(exe->memory_plan_.fallbacks.size());
    dump("memory_plan.json", [&] { return exe->memory_plan_.ToJson(); });
  }

  exe->report_.shapes = exe->analysis_->manager().GetStats();
  exe->report_.compile_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Every phase runs inside [start, now], so the remainder is the time
  // between and around them; clamping only absorbs rounding.
  double named_ms = 0.0;
  for (const auto& [name, ms] : exe->report_.phase_ms) named_ms += ms;
  exe->report_.phase_ms.emplace_back(
      "other", std::max(0.0, exe->report_.compile_ms - named_ms));
  return exe;
}

}  // namespace disc
