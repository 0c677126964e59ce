// Workload `suite_data`: numeric (data-mode) inference of the six suite
// models through the DISC engine, closed loop, one client.
//
// Each round visits the six models in a seeded order; each model draws one
// of its hot signatures Zipf-like, so after first sight almost every Run is
// a launch-plan hit. Inputs and reference outputs (the unfused reference
// evaluator) are computed per signature before timing, and every Run's
// outputs are compared with them.
//
// Traced runs alternate untraced and traced rounds. A traced round also
// replays each query's steps one by one from outside — fused kernels
// through FusedKernel::Execute, library and host nodes through
// EvaluateNode, bindings from ShapeAnalysis::BindInputs — and runs the
// reference evaluator, so the Run's wall time can be split by layer.
#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "baselines/dynamic_engine.h"
#include "harness.h"
#include "ir/eval.h"
#include "inputs.h"

namespace perfbench {
namespace {

/// Counts and simulated times come from the first rounds only, so they
/// repeat exactly for a seed however long the run lasts.
constexpr int kCountRounds = 40;
constexpr size_t kMinQueriesPerModel = 100;

struct Signature {
  disc::ShapeSet shapes;
  std::vector<disc::Tensor> inputs;
  std::vector<disc::Tensor> reference;
};

/// Per-model samples.
struct ModelRow {
  std::vector<Signature> signatures;
  SignatureDeck deck;
  std::vector<Unit> units;  // replay schedule of the compiled graph
  std::vector<double> run_ms;         // untraced rounds
  std::vector<double> traced_run_ms;  // traced rounds
  std::vector<double> eval_ms;        // traced rounds
  std::vector<double> sim_us;         // count rounds
};

/// Wall ms of the replayed steps of one query, by step class.
struct StepTimes {
  double loop = 0.0;
  double input = 0.0;
  double stitch = 0.0;
  double library = 0.0;
};

const char* KernelSpanName(disc::FusionKind kind) {
  switch (kind) {
    case disc::FusionKind::kLoop:
      return "kernel.loop";
    case disc::FusionKind::kInput:
      return "kernel.input";
    case disc::FusionKind::kStitch:
      return "kernel.stitch";
  }
  return "kernel.loop";
}

/// Replays one query step by step from outside the runtime.
disc::Status Replay(const disc::Executable& exe, const std::vector<Unit>& units,
                    const Signature& sig, Tracer* tracer, int64_t id,
                    StepTimes* times) {
  Tracer::Scope replay_span(tracer, "bench.replay", id);
  disc::SymbolBindings bindings;
  {
    Tracer::Scope span(tracer, "shape.bind", id);
    DISC_ASSIGN_OR_RETURN(bindings, exe.analysis().BindInputs(sig.shapes));
  }
  std::unordered_map<const disc::Value*, disc::Tensor> env;
  for (size_t i = 0; i < exe.graph().inputs().size(); ++i) {
    env.emplace(exe.graph().inputs()[i], sig.inputs[i]);
  }
  for (const Unit& u : units) {
    if (u.kind == Unit::Kind::kConstant) {
      env.emplace(u.node->output(0), u.node->GetTensorAttr("value"));
      continue;
    }
    if (u.kind == Unit::Kind::kKernel) {
      const disc::FusedKernel& kernel = *exe.kernels()[u.group];
      Tracer::Scope span(tracer, KernelSpanName(kernel.kind()), id);
      const Clock::time_point start = Clock::now();
      DISC_RETURN_IF_ERROR(kernel.Execute(bindings, &env));
      const double ms = MsSince(start);
      switch (kernel.kind()) {
        case disc::FusionKind::kLoop:
          times->loop += ms;
          break;
        case disc::FusionKind::kInput:
          times->input += ms;
          break;
        case disc::FusionKind::kStitch:
          times->stitch += ms;
          break;
      }
      continue;
    }
    std::vector<disc::Tensor> operands;
    for (const disc::Value* v : u.node->operands()) {
      operands.push_back(env.at(v));
    }
    const bool library = u.kind == Unit::Kind::kLibrary;
    Tracer::Scope span(tracer, library ? "kernel.library" : "runtime.host", id);
    const Clock::time_point start = Clock::now();
    DISC_ASSIGN_OR_RETURN(std::vector<disc::Tensor> values,
                          disc::EvaluateNode(*u.node, operands));
    if (library) times->library += MsSince(start);
    for (size_t i = 0; i < values.size(); ++i) {
      env.emplace(u.node->output(static_cast<int>(i)), std::move(values[i]));
    }
  }
  return disc::Status::OK();
}

struct Prepared {
  std::vector<disc::Model> models;
  std::vector<std::unique_ptr<disc::DynamicCompilerEngine>> engines;
};

disc::Result<Prepared> BuildAndPrepare() {
  Prepared p;
  p.models = disc::BuildModelSuite();
  for (const disc::Model& model : p.models) {
    auto engine = std::make_unique<disc::DynamicCompilerEngine>(
        disc::DynamicProfile::Disc());
    DISC_RETURN_IF_ERROR(engine->Prepare(*model.graph, model.input_dim_labels));
    p.engines.push_back(std::move(engine));
  }
  return p;
}

}  // namespace

Results RunSuiteData(const Options& options) {
  Results res;
  // Set-up: model build plus Prepare (the DISC compile).
  std::vector<double> setup_seconds;
  const disc::Result<Prepared> built =
      TimeSetups(BuildAndPrepare, &setup_seconds);
  if (!built.ok()) {
    res.Count(false);
    res.report.push_back("set-up failed: " + built.status().ToString());
    return res;
  }
  const Prepared& prepared = *built;
  const std::vector<disc::Model>& models = prepared.models;
  const size_t num_models = models.size();

  // Seeded signatures, inputs and reference outputs (not part of set-up).
  disc::Rng rng(options.seed);
  const int64_t hidden = disc::ModelConfig{}.hidden;
  std::vector<ModelRow> rows(num_models);
  for (size_t m = 0; m < num_models; ++m) {
    for (disc::ShapeSet& shapes : HotSignatures(models[m].name, hidden, &rng)) {
      Signature sig;
      sig.inputs = models[m].make_inputs(
          shapes, static_cast<uint64_t>(rng.UniformInt(1, 1 << 30)));
      sig.shapes = std::move(shapes);
      auto reference = disc::EvaluateGraph(*models[m].graph, sig.inputs);
      if (!reference.ok()) {
        res.Count(false);
        res.report.push_back(models[m].name + ": reference failed: " +
                             reference.status().ToString());
        return res;
      }
      sig.reference = std::move(*reference);
      rows[m].signatures.push_back(std::move(sig));
    }
    const disc::Executable& exe = *prepared.engines[m]->executable();
    rows[m].units = ScheduleUnits(exe.graph(), exe.plan());
  }

  Tracer tracer(false);
  SpeedProbe probe;
  std::vector<size_t> order(num_models);
  for (size_t m = 0; m < num_models; ++m) order[m] = m;

  // Count-round tallies (per Run).
  int64_t count_runs = 0, plan_hits = 0, alloc_calls = 0, launches = 0,
          library_calls = 0;
  int64_t heap_runs = 0, heap_allocs = 0, heap_bytes = 0;
  // Traced-round tallies.
  StepTimes step_total;
  double traced_run_total_ms = 0.0, traced_host_plan_us = 0.0;
  int64_t traced_queries = 0;
  std::vector<double> plan_build_us;  // host_plan_us of every miss
  std::string first_error;

  int64_t query_id = 0;
  probe.Sample();
  const Clock::time_point loop_start = Clock::now();
  for (int round = 0;; ++round) {
    size_t min_samples = SIZE_MAX;
    for (const ModelRow& row : rows) {
      min_samples = std::min(min_samples, row.run_ms.size());
    }
    if (round >= kCountRounds && MsSince(loop_start) >= options.seconds * 1e3 &&
        (options.trace || min_samples >= kMinQueriesPerModel)) {
      break;
    }
    const bool traced = options.trace && round % 2 == 1;
    const bool counting = round < kCountRounds;
    tracer.set_enabled(traced);
    SetHeapCounting(traced);
    Tracer::Scope round_span(&tracer, "bench.round", round);

    std::shuffle(order.begin(), order.end(), rng.engine());
    for (size_t m : order) {
      if (!traced) probe.MaybeSample();
      ModelRow& row = rows[m];
      const Signature& sig = row.signatures[row.deck.Next(&rng)];
      const disc::Executable& exe = *prepared.engines[m]->executable();
      const int64_t id = query_id++;

      std::optional<disc::Result<disc::RunResult>> result;
      double run_ms = 0.0;
      HeapCounts heap_before, heap_after;
      {
        Tracer::Scope span(&tracer, "runtime.run", id);
        heap_before = HeapNow();
        const Clock::time_point start = Clock::now();
        result.emplace(exe.Run(sig.inputs));
        run_ms = MsSince(start);
        heap_after = HeapNow();
      }
      bool ok = false;
      {
        Tracer::Scope span(&tracer, "bench.check", id);
        ok = result->ok() && OutputsMatch((*result)->outputs, sig.reference);
      }
      res.Count(ok);
      if (!ok) {
        if (first_error.empty()) {
          first_error =
              models[m].name + ": " +
              (result->ok() ? std::string("outputs differ from reference")
                            : result->status().ToString());
        }
        continue;
      }
      const disc::RunProfile& profile = (*result)->profile;
      if (!profile.launch_plan_hit) {
        plan_build_us.push_back(profile.host_plan_us);
      }
      (traced ? row.traced_run_ms : row.run_ms).push_back(run_ms);
      if (counting) {
        row.sim_us.push_back(profile.device_time_us);
        ++count_runs;
        plan_hits += profile.launch_plan_hit ? 1 : 0;
        alloc_calls += profile.alloc_calls;
        launches += profile.kernel_launches;
        library_calls += profile.library_calls;
        if (traced) {
          ++heap_runs;
          heap_allocs += heap_after.allocs - heap_before.allocs;
          heap_bytes += heap_after.bytes - heap_before.bytes;
        }
      }
      if (!traced) continue;

      ++traced_queries;
      traced_run_total_ms += run_ms;
      traced_host_plan_us += profile.host_plan_us;
      disc::Status replayed =
          Replay(exe, row.units, sig, &tracer, id, &step_total);
      Tracer::Scope span(&tracer, "ir.eval", id);
      const Clock::time_point start = Clock::now();
      auto evaluated = disc::EvaluateGraph(*models[m].graph, sig.inputs);
      row.eval_ms.push_back(MsSince(start));
      if (!replayed.ok() || !evaluated.ok()) {
        res.Count(false);
        if (first_error.empty()) {
          first_error = models[m].name + ": " +
                        (replayed.ok() ? evaluated.status() : replayed)
                            .ToString();
        }
      }
    }
  }
  SetHeapCounting(false);
  if (!first_error.empty()) {
    res.report.push_back("first failure: " + first_error);
  }

  // End-to-end metrics (untraced rounds).
  std::vector<double> p50s, p90s, sim_means, pooled_sim;
  double untraced_ms = 0.0;
  int64_t untraced_runs = 0;
  for (const ModelRow& row : rows) {
    p50s.push_back(Median(row.run_ms));
    p90s.push_back(Quantile(row.run_ms, 0.9));
    sim_means.push_back(Mean(row.sim_us));
    pooled_sim.insert(pooled_sim.end(), row.sim_us.begin(), row.sim_us.end());
    for (double ms : row.run_ms) untraced_ms += ms;
    untraced_runs += static_cast<int64_t>(row.run_ms.size());
  }
  const double setup_s = Median(setup_seconds);
  const double run_p50 = GeoMean(p50s), run_p90 = GeoMean(p90s);
  const double sim_gm_us = GeoMean(sim_means);
  SetWallMetrics(probe, setup_s, run_p50, run_p90,
                 untraced_ms > 0 ? untraced_runs / (untraced_ms / 1e3) : 0.0,
                 &res);
  res.Set("sim_ms", sim_gm_us / 1e3, "ms");
  res.Set("sim_rate_per_s", 1e6 / Mean(pooled_sim), "1/s");
  res.Note("run_ms_gm.p50", run_p50, "ms");
  res.Note("run_ms_gm.p90", run_p90, "ms");
  res.Note("sim_device_us_gm", sim_gm_us, "us");

  res.report.push_back(Format("  %-14s %7s %10s %10s %12s %10s %10s",
                              "model", "runs", "p50 ms", "p90 ms",
                              "sim dev us", "eval ms", "run/eval"));
  for (size_t m = 0; m < num_models; ++m) {
    const ModelRow& row = rows[m];
    const double run_over_eval =
        row.eval_ms.empty()
            ? 0.0
            : Median(row.traced_run_ms) / Median(row.eval_ms);
    res.report.push_back(Format(
        "  %-14s %7zu %10.3f %10.3f %12.3f %10.3f %10.3f",
        models[m].name.c_str(), row.run_ms.size(), Median(row.run_ms),
        Quantile(row.run_ms, 0.9), Mean(row.sim_us), Median(row.eval_ms),
        run_over_eval));
  }
  if (!options.trace) return res;

  // Per-layer metrics (traced rounds; counts from the count rounds).
  const double q = static_cast<double>(std::max<int64_t>(1, traced_queries));
  res.Set("kernel.loop_ms", step_total.loop / q, "ms");
  res.Set("kernel.input_ms", step_total.input / q, "ms");
  res.Set("kernel.stitch_ms", step_total.stitch / q, "ms");
  res.Set("kernel.library_ms", step_total.library / q, "ms");
  res.Set("runtime.plan_build_us", Mean(plan_build_us), "us");
  res.Set("runtime.plan_hit_ratio",
          static_cast<double>(plan_hits) / std::max<int64_t>(1, count_runs),
          "ratio");
  res.Set("runtime.unattributed_ms",
          (traced_run_total_ms - step_total.loop - step_total.input -
           step_total.stitch - step_total.library - traced_host_plan_us / 1e3) /
              q,
          "ms");
  const double runs = static_cast<double>(std::max<int64_t>(1, count_runs));
  res.Set("runtime.alloc_calls", alloc_calls / runs, "count");
  res.Set("runtime.heap_allocs",
          heap_allocs / static_cast<double>(std::max<int64_t>(1, heap_runs)),
          "count");
  res.Set("runtime.heap_bytes",
          heap_bytes / static_cast<double>(std::max<int64_t>(1, heap_runs)),
          "B");
  res.Set("kernel.launches", launches / runs, "count");
  res.Set("kernel.library_calls", library_calls / runs, "count");
  std::vector<double> traced_p50s;
  for (size_t m = 0; m < num_models; ++m) {
    const ModelRow& row = rows[m];
    const std::string& name = models[m].name;
    res.Set("ir.eval_ms." + name, Median(row.eval_ms), "ms");
    res.Set("kernel.fused_over_eval." + name,
            Median(row.traced_run_ms) / Median(row.eval_ms), "ratio");
    res.Set("sim.device_us." + name, Mean(row.sim_us), "us");
    traced_p50s.push_back(Median(row.traced_run_ms));
  }
  res.Set("trace_overhead_pct", 100.0 * (GeoMean(traced_p50s) / run_p50 - 1.0),
          "%");

  ReportTrace(tracer, options, &res);
  return res;
}

}  // namespace perfbench
