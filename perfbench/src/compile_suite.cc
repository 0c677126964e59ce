// Workload `compile_suite`: DiscCompiler::Compile of the six suite models
// plus the batched GPT decode step, closed loop on one thread.
//
// Each round compiles every graph, always in the same order, twice: with
// default options and with seeded likely_dim_values, the respecialization
// compile that shape feedback issues. Every fresh executable runs once,
// untimed, on the model's small shapes against the reference evaluator,
// and in the first round once timing-only on its seeded hot signature for
// the simulated device time.
//
// Traced runs alternate untraced and traced rounds. A traced round also
// replays the compiler's phases from outside on a clone of the graph —
// PassManager with the standard passes, ShapeAnalysis (plus the hints),
// FusionPlanner, the FusedKernel constructors and PlanArena — so Compile's
// wall time can be split by phase. Phases the compiler feeds only from its
// own internals (step scheduling, buffer assignment) stay in
// compiler.unattributed_ms.
#include <algorithm>
#include <functional>
#include <memory>

#include "compiler/compiler.h"
#include "harness.h"
#include "inputs.h"
#include "ir/eval.h"
#include "opt/pass.h"
#include "runtime/memory_plan.h"

namespace perfbench {
namespace {


struct Target {
  std::vector<disc::CompileOptions> options;  // default, hinted
  disc::ShapeSet hot;
  std::vector<disc::Tensor> small_inputs;
  std::vector<disc::Tensor> small_reference;
  // Per options: Compile wall ms of untraced and traced rounds, and the
  // simulated device time of the first round's executable.
  std::vector<std::vector<double>> compile_ms;
  std::vector<std::vector<double>> traced_compile_ms;
  std::vector<double> sim_us;
};

struct PhaseTimes {
  double opt = 0.0;
  double shape = 0.0;
  double fusion = 0.0;
  double kernel = 0.0;
  double memory_plan = 0.0;
};

/// Runs `body` inside a span and adds its wall ms to `*ms`.
disc::Status Timed(Tracer* tracer, const char* name, int64_t id, double* ms,
                   const std::function<disc::Status()>& body) {
  Tracer::Scope span(tracer, name, id);
  const Clock::time_point start = Clock::now();
  disc::Status status = body();
  *ms += MsSince(start);
  return status;
}

/// Seeds likely-value hints into the analysis, as the compiler does.
void SeedHints(const disc::Graph& graph, const disc::CompileOptions& options,
               disc::ShapeAnalysis* analysis) {
  for (const disc::Value* input : graph.inputs()) {
    for (const disc::DimExpr& dim : analysis->GetShape(input)) {
      if (!dim.IsSymbol()) continue;
      const std::string& name = analysis->manager().Info(dim.symbol()).name;
      for (const auto& [label, values] : options.likely_dim_values) {
        if (label != name) continue;
        for (int64_t v : values) {
          analysis->manager().AddLikelyValue(dim.symbol(), v);
        }
      }
    }
  }
}

/// Replays Compile's phases from outside on a clone of `graph`.
disc::Status ReplayPhases(const disc::Model& model,
                          const disc::CompileOptions& options, Tracer* tracer,
                          int64_t id, PhaseTimes* times) {
  Tracer::Scope replay_span(tracer, "bench.replay", id);
  std::unique_ptr<disc::Graph> graph = model.graph->Clone();
  DISC_RETURN_IF_ERROR(Timed(tracer, "opt.passes", id, &times->opt, [&] {
    disc::PassManager pm;
    disc::AddStandardPasses(&pm);
    disc::PassContext ctx;
    ctx.input_dim_labels = model.input_dim_labels;
    return pm.RunToFixpoint(graph.get(), ctx);
  }));
  std::unique_ptr<disc::ShapeAnalysis> analysis;
  DISC_RETURN_IF_ERROR(Timed(tracer, "shape.analysis", id, &times->shape, [&] {
    analysis = std::make_unique<disc::ShapeAnalysis>(graph.get(),
                                                     model.input_dim_labels);
    DISC_RETURN_IF_ERROR(analysis->Run());
    SeedHints(*graph, options, analysis.get());
    return disc::Status::OK();
  }));
  disc::FusionPlan plan;
  DISC_RETURN_IF_ERROR(Timed(tracer, "fusion.plan", id, &times->fusion, [&] {
    disc::FusionPlanner planner(graph.get(), analysis.get(), options.fusion);
    DISC_ASSIGN_OR_RETURN(plan, planner.Plan());
    return disc::Status::OK();
  }));
  std::vector<std::unique_ptr<disc::FusedKernel>> kernels;
  DISC_RETURN_IF_ERROR(Timed(tracer, "kernel.compile", id, &times->kernel, [&] {
    for (const disc::FusionGroup& group : plan.groups) {
      kernels.push_back(std::make_unique<disc::FusedKernel>(
          group, analysis.get(), options.specialize));
    }
    return disc::Status::OK();
  }));
  const std::vector<Unit> units = ScheduleUnits(*graph, plan);
  return Timed(tracer, "runtime.memory_plan", id, &times->memory_plan, [&] {
    std::vector<const disc::Value*> keep_alive;
    const std::vector<disc::PlanStep> steps =
        ArenaSteps(*graph, plan, units, &keep_alive);
    const disc::MemoryPlan memory =
        disc::PlanArena(steps, keep_alive, *analysis);
    return memory.planned || steps.empty()
               ? disc::Status::OK()
               : disc::Status::Internal("arena planning failed");
  });
}

std::vector<disc::Model> BuildGraphs() {
  std::vector<disc::Model> models = disc::BuildModelSuite();
  models.push_back(disc::BuildGptStepBatch());
  return models;
}

}  // namespace

Results RunCompileSuite(const Options& options) {
  Results res;
  std::vector<double> setup_seconds;
  const std::vector<disc::Model> models =
      TimeSetups(BuildGraphs, &setup_seconds);

  disc::Rng rng(options.seed);
  const int64_t hidden = disc::ModelConfig{}.hidden;
  std::vector<Target> targets(models.size());
  for (size_t g = 0; g < models.size(); ++g) {
    const disc::Model& model = models[g];
    Target& t = targets[g];
    const std::vector<disc::ShapeSet> hot =
        HotSignatures(model.name, hidden, &rng);
    disc::CompileOptions hinted;
    hinted.likely_dim_values =
        LikelyDimValues(model.input_dim_labels,
                        {hot[kHottest], hot[kSecondHottest]});
    t.options = {disc::CompileOptions::Default(), hinted};
    t.compile_ms.resize(t.options.size());
    t.traced_compile_ms.resize(t.options.size());
    t.hot = hot[kHottest];
    t.small_inputs = model.make_inputs(
        model.small_shapes, static_cast<uint64_t>(rng.UniformInt(1, 1 << 30)));
    auto reference = disc::EvaluateGraph(*model.graph, t.small_inputs);
    if (!reference.ok()) {
      res.Count(false);
      res.report.push_back(model.name + ": reference failed: " +
                           reference.status().ToString());
      return res;
    }
    t.small_reference = std::move(*reference);
  }

  Tracer tracer(false);
  PhaseTimes phases;
  int64_t traced_compiles = 0, count_compiles = 0;
  double traced_total_ms = 0.0;
  int64_t groups = 0, variants = 0, arena_slots = 0, heap_allocs = 0;
  const int count_round = options.trace ? 1 : 0;
  std::string first_error;

  int64_t compile_id = 0;
  SpeedProbe probe;
  probe.Sample();
  const Clock::time_point loop_start = Clock::now();
  for (int round = 0;; ++round) {
    if (round > count_round && MsSince(loop_start) >= options.seconds * 1e3) {
      break;
    }
    const bool traced = options.trace && round % 2 == 1;
    tracer.set_enabled(traced);
    SetHeapCounting(traced);
    Tracer::Scope round_span(&tracer, "bench.round", round);
    for (size_t g = 0; g < models.size(); ++g) {
      const disc::Model& model = models[g];
      Target& t = targets[g];
      for (size_t k = 0; k < t.options.size(); ++k) {
        if (!traced) probe.MaybeSample();
        const int64_t id = compile_id++;
        std::unique_ptr<disc::Executable> exe;
        double ms = 0.0;
        HeapCounts heap_before, heap_after;
        disc::Status status;
        {
          Tracer::Scope span(&tracer, "compiler.compile", id);
          heap_before = HeapNow();
          const Clock::time_point start = Clock::now();
          auto compiled = disc::DiscCompiler::Compile(
              *model.graph, model.input_dim_labels, t.options[k]);
          ms = MsSince(start);
          heap_after = HeapNow();
          status = compiled.status();
          if (compiled.ok()) exe = std::move(*compiled);
        }
        bool ok = exe != nullptr;
        {
          Tracer::Scope span(&tracer, "bench.check", id);
          if (ok) {
            auto run = exe->Run(t.small_inputs);
            ok = run.ok() && OutputsMatch(run->outputs, t.small_reference);
            if (!run.ok()) status = run.status();
          }
          if (ok && round == 0) {
            auto timing = exe->RunWithShapes(t.hot);
            ok = timing.ok();
            if (ok) t.sim_us.push_back(timing->profile.device_time_us);
          }
        }
        res.Count(ok);
        if (!ok) {
          if (first_error.empty()) {
            first_error = model.name + ": " +
                          (status.ok() ? "outputs differ from reference"
                                       : status.ToString());
          }
          continue;
        }
        (traced ? t.traced_compile_ms : t.compile_ms)[k].push_back(ms);
        if (round == count_round) {
          ++count_compiles;
          groups += exe->report().fusion.num_groups;
          variants += exe->report().num_variants;
          arena_slots += exe->report().arena_slots;
          heap_allocs += heap_after.allocs - heap_before.allocs;
        }
        if (traced) {
          ++traced_compiles;
          traced_total_ms += ms;
          const disc::Status replayed =
              ReplayPhases(model, t.options[k], &tracer, id, &phases);
          if (!replayed.ok()) {
            res.Count(false);
            if (first_error.empty()) {
              first_error = model.name + ": " + replayed.ToString();
            }
          }
        }
      }
    }
  }
  SetHeapCounting(false);
  if (!first_error.empty()) {
    res.report.push_back("first failure: " + first_error);
  }

  std::vector<double> p50s, p90s, sim_means, pooled_sim, traced_p50s;
  double untraced_ms = 0.0;
  int64_t untraced_compiles = 0;
  // Quantiles per (graph, options): default and hinted compiles of one
  // graph take different times, so pooling them would put the median on
  // the edge between the two.
  res.report.push_back(Format("  %-16s %-8s %8s %10s %10s %12s", "graph",
                              "options", "compiles", "p50 ms", "p90 ms",
                              "sim dev us"));
  for (size_t g = 0; g < models.size(); ++g) {
    const Target& t = targets[g];
    for (size_t k = 0; k < t.options.size(); ++k) {
      const std::vector<double>& ms = t.compile_ms[k];
      p50s.push_back(Median(ms));
      p90s.push_back(Quantile(ms, 0.9));
      traced_p50s.push_back(Median(t.traced_compile_ms[k]));
      for (double v : ms) untraced_ms += v;
      untraced_compiles += static_cast<int64_t>(ms.size());
      res.report.push_back(Format("  %-16s %-8s %8zu %10.3f %10.3f %12.3f",
                                  models[g].name.c_str(),
                                  k == 0 ? "default" : "hinted", ms.size(),
                                  p50s.back(), p90s.back(),
                                  k < t.sim_us.size() ? t.sim_us[k] : 0.0));
    }
    sim_means.push_back(Mean(t.sim_us));
    pooled_sim.insert(pooled_sim.end(), t.sim_us.begin(), t.sim_us.end());
  }
  const double compile_p50 = GeoMean(p50s), compile_p90 = GeoMean(p90s);
  SetWallMetrics(probe, Median(setup_seconds), compile_p50, compile_p90,
                 untraced_compiles / (untraced_ms / 1e3), &res);
  res.Set("sim_ms", GeoMean(sim_means) / 1e3, "ms");
  res.Set("sim_rate_per_s", 1e6 / Mean(pooled_sim), "1/s");
  res.Note("compile_ms_gm.p50", compile_p50, "ms");
  res.Note("compile_ms_gm.p90", compile_p90, "ms");
  if (!options.trace) return res;

  const double n = static_cast<double>(std::max<int64_t>(1, traced_compiles));
  res.Set("opt.ms", phases.opt / n, "ms");
  res.Set("shape.ms", phases.shape / n, "ms");
  res.Set("fusion.ms", phases.fusion / n, "ms");
  res.Set("kernel.compile_ms", phases.kernel / n, "ms");
  res.Set("runtime.memory_plan_ms", phases.memory_plan / n, "ms");
  res.Set("compiler.unattributed_ms",
          (traced_total_ms - phases.opt - phases.shape - phases.fusion -
           phases.kernel - phases.memory_plan) /
              n,
          "ms");
  const double c = static_cast<double>(std::max<int64_t>(1, count_compiles));
  res.Set("fusion.groups", groups / c, "count");
  res.Set("kernel.variants", variants / c, "count");
  res.Set("runtime.arena_slots", arena_slots / c, "count");
  res.Set("compiler.heap_allocs", heap_allocs / c, "count");
  res.Set("trace_overhead_pct",
          100.0 * (GeoMean(traced_p50s) / compile_p50 - 1.0), "%");

  ReportTrace(tracer, options, &res);
  return res;
}

}  // namespace perfbench
