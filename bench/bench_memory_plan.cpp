// Extension experiment F11: symbolic arena memory planning.
//
// Dynamic shapes make the memory footprint a per-request quantity; the
// arena planner turns it back into a compile-time formula. This bench
// compares the two Run-time memory strategies on the same executables:
//   * caching   — one CachingAllocator call per live value, each freed
//                 after its last use in the arena plan's liveness
//                 (baseline);
//   * arena     — ONE call for the whole run: every value (constants
//                 included) lives at a compile-time offset, and the arena
//                 size is the symbolic peak formula evaluated per shape.
// Measured per model x shape: peak bytes_in_use, allocator calls per Run
// on a launch-plan-cache hit, and size-class rounding waste. Outputs are
// checked bit-identical across the two legs, and bert's plan must share
// slots across provably comparable sizes (cross-size reuse).
//
// The serving section exercises what the formula buys beyond allocation
// counts: memory-aware admission. The batcher predicts each batch's
// footprint (Engine::PredictPeakBytes) and sheds batches that would not
// fit the device budget, instead of discovering ResourceExhausted
// mid-run. `--admission-smoke` runs only that scenario (used by the chaos
// CI job, optionally with DISC_FAILPOINTS arming runtime.alloc).
#include <cstring>

#include "baselines/dynamic_engine.h"
#include "bench/bench_util.h"
#include "ir/builder.h"
#include "serving/serving.h"

namespace disc {
namespace {

const char* ModeName(MemoryMode mode) {
  switch (mode) {
    case MemoryMode::kCachingAllocator:
      return "caching";
    case MemoryMode::kArena:
      return "arena";
  }
  return "?";
}

// Memory-aware admission under a device budget sized so some padded
// batches provably fit and others provably do not. Returns the stats so
// main can both report metrics and smoke-check the accounting.
ServingStats RunAdmissionScenario(bench::JsonReporter* report) {
  Graph g("f11-admission");
  GraphBuilder b(&g);
  const int64_t kHidden = 32;
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, kHidden});
  b.Output({b.Softmax(b.Relu(x))});
  auto shape_fn = [kHidden](int64_t batch, int64_t seq) {
    return std::vector<std::vector<int64_t>>{{batch, seq, kHidden}};
  };

  DynamicProfile profile = DynamicProfile::DiscArena();
  DynamicCompilerEngine probe(profile);
  DISC_CHECK_OK(probe.Prepare(g, {{"B", "S", ""}}));
  auto small = probe.PredictPeakBytes(shape_fn(1, 32));
  auto large = probe.PredictPeakBytes(shape_fn(8, 128));
  DISC_CHECK_OK(small.status());
  DISC_CHECK_OK(large.status());
  // Three quarters of the way up: full batches at the longest sequences
  // exceed it, the typical batch fits.
  const int64_t budget = (*small + 3 * *large) / 4;

  // The device itself enforces the same budget: any batch that slipped
  // past admission would fail mid-run — `failed` stays zero only because
  // the prediction is exact.
  profile.memory_limit_bytes = budget;
  DynamicCompilerEngine engine(profile);
  DISC_CHECK_OK(engine.Prepare(g, {{"B", "S", ""}}));
  BatcherOptions options;
  options.max_batch = 8;
  options.memory_limit_bytes = budget;
  auto requests = SyntheticRequestStream(96, 30.0, 21);
  auto stats = SimulateServing(&engine, shape_fn, requests, options,
                               DeviceSpec::T4());
  DISC_CHECK_OK(stats.status());

  std::printf("admission budget = %lld B (predictions: %lld B .. %lld B)\n",
              static_cast<long long>(budget), static_cast<long long>(*small),
              static_cast<long long>(*large));
  std::printf("admission: %s\n", stats->ToString().c_str());
  std::printf("accounting=%s\n",
              stats->submitted == stats->completed + stats->shed +
                                      stats->deadline_missed + stats->failed
                  ? "ok"
                  : "DRIFTED");
  if (report != nullptr) {
    report->AddMetric("serving.admission.completed",
                      static_cast<double>(stats->completed), "requests");
    report->AddMetric("serving.admission.memory_shed",
                      static_cast<double>(stats->memory_shed), "requests");
    report->AddMetric("serving.admission.failed",
                      static_cast<double>(stats->failed), "requests");
    report->AddMetric("serving.admission.predictions",
                      static_cast<double>(engine.stats().memory_predictions),
                      "calls");
  }
  return *stats;
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  using namespace disc;
  bool admission_smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--admission-smoke") == 0) admission_smoke = true;
  }
  if (admission_smoke) {
    // Chaos-CI entry point: just the admission scenario, no JSON output.
    // With DISC_FAILPOINTS arming runtime.alloc the replay must degrade
    // (retries / failed batches in the stats) but never crash, and the
    // accounting invariant must hold either way.
    std::printf("== F11 admission smoke ==\n");
    ServingStats stats = RunAdmissionScenario(nullptr);
    DISC_CHECK_GT(stats.completed, 0) << "nothing completed";
    return 0;
  }

  bench::TraceFlag trace_flag(argc, argv);
  bench::JsonReporter report("F11", argc, argv);
  report.AddMeta("device", "simulated A10");
  std::printf("== F11 (extension): symbolic arena memory planning ==\n\n");

  const struct {
    const char* name;
    Model model;
    std::vector<ShapeSet> sweep;
  } cases[] = {
      {"mlp", BuildMlp(),
       {{{1, 64}}, {{16, 64}}, {{128, 64}}, {{1024, 64}}}},
      {"bert", BuildBert(),
       {{{1, 32, 64}}, {{1, 128, 64}}, {{4, 64, 64}}, {{8, 128, 64}}}},
  };
  const MemoryMode kModes[] = {MemoryMode::kCachingAllocator,
                               MemoryMode::kArena};

  for (const auto& c : cases) {
    auto exe = DiscCompiler::Compile(*c.model.graph, c.model.input_dim_labels);
    DISC_CHECK_OK(exe.status());
    const MemoryPlan& plan = (*exe)->memory_plan();
    DISC_CHECK(plan.planned);
    std::printf("-- %s: %s --\n", c.name, plan.ToString().c_str());
    report.AddMeta(std::string(c.name) + ".peak_formula",
                   plan.peak_bytes.ToString());
    report.AddMetric(std::string(c.name) + ".arena_slots",
                     static_cast<double>(plan.num_slots()), "slots");
    report.AddMetric(std::string(c.name) + ".arena_fallbacks",
                     static_cast<double>(plan.fallbacks.size()), "values");
    if (std::strcmp(c.name, "bert") == 0) {
      DISC_CHECK_GT(plan.num_cross_size_reuses, 0)
          << "bert's arena plan made no cross-size (ProvablyLe) reuse";
    }

    bench::Table table({"shape", "mode", "peak bytes", "allocs/Run (hit)",
                        "rounding waste"});
    for (const ShapeSet& shapes : c.sweep) {
      std::string label = "B" + std::to_string(shapes[0][0]);
      if (shapes[0].size() > 2) label += "xS" + std::to_string(shapes[0][1]);
      for (MemoryMode mode : kModes) {
        RunOptions options;
        options.memory_mode = mode;
        // First run builds + memoizes the launch plan; the second is the
        // hot path this PR targets (plan hit: no size arithmetic, and in
        // arena mode at most one cached allocation).
        DISC_CHECK_OK((*exe)->RunWithShapes(shapes, options).status());
        auto r = (*exe)->RunWithShapes(shapes, options);
        DISC_CHECK_OK(r.status());
        DISC_CHECK(r->profile.launch_plan_hit);
        const RunProfile& p = r->profile;
        if (mode == MemoryMode::kArena) {
          DISC_CHECK_EQ(p.alloc_calls, 1);
          DISC_CHECK_EQ(p.alloc_rounding_waste, 0);
        }
        const std::string prefix =
            std::string(c.name) + "." + label + "." + ModeName(mode) + ".";
        report.AddMetric(prefix + "peak_bytes",
                         static_cast<double>(p.peak_memory_bytes), "bytes");
        report.AddMetric(prefix + "alloc_calls",
                         static_cast<double>(p.alloc_calls), "calls");
        report.AddMetric(prefix + "rounding_waste",
                         static_cast<double>(p.alloc_rounding_waste),
                         "bytes");
        table.AddRow({label, ModeName(mode),
                      std::to_string(p.peak_memory_bytes),
                      std::to_string(p.alloc_calls),
                      std::to_string(p.alloc_rounding_waste)});
      }
    }
    table.Print();

    // Numerics must not depend on the memory strategy: data-mode outputs
    // are bit-identical across both legs.
    std::vector<Tensor> inputs = c.model.make_inputs(c.model.small_shapes, 3);
    RunOptions caching, arena;
    arena.memory_mode = MemoryMode::kArena;
    auto r0 = (*exe)->Run(inputs, caching);
    auto r1 = (*exe)->Run(inputs, arena);
    DISC_CHECK_OK(r0.status());
    DISC_CHECK_OK(r1.status());
    DISC_CHECK_EQ(r0->outputs.size(), r1->outputs.size());
    for (size_t i = 0; i < r0->outputs.size(); ++i) {
      DISC_CHECK(Tensor::BitEqual(r0->outputs[i], r1->outputs[i]));
    }
    std::printf("outputs bit-identical across caching/arena\n\n");
    report.AddMetric(std::string(c.name) + ".outputs_bit_identical", 1.0,
                     "bool");
  }
  std::printf("-- memory-aware admission (predict-then-shed) --\n");
  (void)RunAdmissionScenario(&report);

  std::printf(
      "\nReading: the arena turns the Run hot path allocator-free (one\n"
      "cached call, zero rounding waste) and makes the footprint a\n"
      "formula: serving evaluates it per padded batch and sheds work that\n"
      "would not fit, so capacity pressure shows up as admission-control\n"
      "sheds instead of mid-batch ResourceExhausted failures.\n");
  return 0;
}
