// Extension experiment F14: the differential admission gate under
// injected miscompiles.
//
// The question this figure answers: when the compiler (or the artifact
// cache) produces a wrong executable, how many wrong results reach
// completed requests, and what does the protection cost? The same serving
// trace is replayed under four fault schedules with shadow validation ON
// (clean, a miscompiled kernel, a mispredicting guard, a bit-rotted cache
// entry), plus an UNGATED leg that adopts a bad respecialization and must
// recover by runtime rollback, plus a paired-latency leg that measures
// what validation adds to the serving thread (median of paired per-query
// deltas; the gate runs on a low-priority service worker, so the answer
// must be ~0).
//
// Every result row is checked against the IR reference evaluator:
// `wrong_results_served` counts completed queries whose outputs diverge
// beyond tolerance. The invariant the gate buys — and CI asserts — is
// wrong_results_served == 0 on EVERY leg, with the bad artifact poisoned
// in the persistent quarantine (the restart sub-leg proves a warm restart
// refuses it with zero compiles).
//
// Determinism: compile/load/validation latencies are fixed simulated
// constants, traffic is a fixed trace, probe inputs are seeded — so
// BENCH_F14.json is byte-stable and CI gates it against the committed
// baseline (wall.* excluded as usual).
#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "baselines/dynamic_engine.h"
#include "baselines/interpreter_engine.h"
#include "bench/bench_util.h"
#include "compile_service/compile_service.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "support/failpoint.h"

namespace disc {
namespace {

constexpr double kCompileLatencyUs = 400.0;
constexpr double kCacheLoadLatencyUs = 25.0;
constexpr double kValidationLatencyUs = 120.0;
constexpr double kArrivalGapUs = 40.0;
constexpr int kRequests = 120;

std::unique_ptr<Graph> EwModel() {
  auto g = std::make_unique<Graph>("gate");
  GraphBuilder b(g.get());
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Relu(b.Add(x, x))});
  return g;
}

const std::vector<std::vector<std::string>> kLabels = {{"B", "S"}};

// Hot shape {8,64} dominated trace with a deterministic cold tail.
std::vector<std::vector<std::vector<int64_t>>> ServingTrace() {
  const std::vector<std::vector<int64_t>> tail[] = {
      {{4, 32}}, {{6, 48}}, {{3, 16}}, {{5, 24}},
  };
  std::vector<std::vector<std::vector<int64_t>>> trace;
  trace.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    if (i >= 12 && i % 4 == 3) {
      trace.push_back(tail[(i / 4) % 4]);
    } else {
      trace.push_back({{8, 64}});
    }
  }
  return trace;
}

Tensor DeterministicInput(const std::vector<int64_t>& dims) {
  int64_t n = dims[0] * dims[1];
  std::vector<float> values;
  values.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<float>((i * 37) % 101) / 50.0f - 1.0f);
  }
  return Tensor::F32(dims, values);
}

struct LegConfig {
  bool validate = true;
  /// DISC_FAILPOINTS-grammar schedule armed for the leg ("" = fault-free).
  std::string failpoints;
  std::string cache_dir;
  /// > 0 enables profile-feedback respecialization.
  int64_t feedback_after = 0;
  /// Hints folded into every compile of the leg (produces guarded
  /// speculative variants, the prey of kernel.guard.mispredict).
  LikelyDimValues compile_hints;
};

struct LegResult {
  std::vector<double> latencies;
  int64_t wrong_results_served = 0;
  int64_t checked_results = 0;
  int64_t validations_run = 0;
  int64_t validations_caught = 0;
  int64_t swaps = 0;
  int64_t rollbacks = 0;
  int64_t data_loss_events = 0;
  int64_t poisoned_skips = 0;
  int64_t fallback_queries = 0;
  int64_t compile_jobs = 0;
  int64_t disk_restores = 0;
  int64_t cache_quarantined = 0;
  bool rollback_restore_bit_identical = true;
};

LegResult RunLeg(const Graph& graph, const LegConfig& config) {
  FailpointRegistry::Global().DisarmAll();
  if (!config.failpoints.empty()) {
    DISC_CHECK_OK(FailpointRegistry::Global().ArmFromSpec(config.failpoints));
  }

  CompileServiceOptions service_options;
  service_options.cache.dir = config.cache_dir;  // "" = disabled
  CompileService service(service_options);

  AsyncEngineOptions options;
  options.profile = DynamicProfile::Disc();
  options.profile.feedback_after = config.feedback_after;
  for (const auto& hint : config.compile_hints) {
    options.profile.compile_options.likely_dim_values.push_back(hint);
  }
  options.simulated_compile_latency_us = kCompileLatencyUs;
  options.simulated_cache_load_latency_us = kCacheLoadLatencyUs;
  options.validate_adoptions = config.validate;
  options.simulated_validation_latency_us = kValidationLatencyUs;
  DynamicCompilerEngine engine(
      &service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      options);

  engine.SetSimulatedTimeUs(0.0);
  DISC_CHECK_OK(engine.Prepare(graph, kLabels));

  LegResult result;
  const DeviceSpec device = DeviceSpec::A10();
  // Bit-identical rollback check state: outputs of the first adopted
  // generation at the hot shape, compared again after any rollback.
  std::vector<Tensor> first_generation_outputs;
  bool captured_first_generation = false;
  int64_t rollbacks_checked = 0;

  double now_us = 0.0;
  for (const auto& dims : ServingTrace()) {
    now_us += kArrivalGapUs;
    engine.SetSimulatedTimeUs(now_us);
    auto timing = engine.Query(dims, device);
    DISC_CHECK_OK(timing.status());
    result.latencies.push_back(timing->total_us);

    // Every completed request's math is audited against the reference
    // evaluator — this is the ground truth for wrong_results_served.
    Tensor input = DeterministicInput(dims[0]);
    auto got = engine.Execute({input});
    DISC_CHECK_OK(got.status());
    auto want = EvaluateGraph(graph, {input});
    DISC_CHECK_OK(want.status());
    ++result.checked_results;
    bool wrong = got->size() != want->size();
    for (size_t o = 0; !wrong && o < got->size(); ++o) {
      wrong = !Tensor::AllClose((*got)[o], (*want)[o], 1e-4, 1e-5);
    }
    if (wrong) ++result.wrong_results_served;

    if (!captured_first_generation && engine.swaps() == 1 &&
        engine.slot().has_executable()) {
      auto reference = engine.Execute({DeterministicInput({8, 64})});
      DISC_CHECK_OK(reference.status());
      first_generation_outputs = std::move(*reference);
      captured_first_generation = true;
    }
    if (captured_first_generation && engine.rollbacks() > rollbacks_checked) {
      // Rollback restores the retained generation: outputs at the hot
      // shape must match the pre-upgrade generation bit for bit.
      rollbacks_checked = engine.rollbacks();
      auto restored = engine.Execute({DeterministicInput({8, 64})});
      DISC_CHECK_OK(restored.status());
      for (size_t o = 0; o < restored->size(); ++o) {
        if (!Tensor::AllClose((*restored)[o], first_generation_outputs[o],
                              0.0, 0.0)) {
          result.rollback_restore_bit_identical = false;
        }
      }
    }
  }
  service.Drain();
  FailpointRegistry::Global().DisarmAll();

  result.validations_run = engine.validations_run();
  result.validations_caught = engine.validations_caught();
  result.swaps = engine.swaps();
  result.rollbacks = engine.rollbacks();
  result.data_loss_events = engine.data_loss_events();
  result.poisoned_skips = engine.poisoned_skips();
  result.fallback_queries = engine.stats().fallback_queries;
  result.compile_jobs = service.stats().compiled;
  result.disk_restores = engine.disk_restores();
  result.cache_quarantined = service.cache().stats().quarantined;
  return result;
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  using namespace disc;
  namespace fs = std::filesystem;
  bench::TraceFlag trace_flag(argc, argv);
  bench::JsonReporter report("F14", argc, argv);

  std::printf(
      "== F14 (extension): differential admission gate under injected "
      "miscompiles ==\n\n");

  auto graph = EwModel();
  const std::string scratch =
      (fs::temp_directory_path() /
       ("disc_bench_f14_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(scratch);

  struct Leg {
    const char* key;
    const char* label;
    LegConfig config;
  };
  const LikelyDimValues kHints = {{"B", {8}}, {"S", {64}}};
  std::vector<Leg> legs = {
      {"clean", "gated, fault-free", {true, "", "", 0, {}}},
      // Key is "miscompiled", not "miscompile": the CI baseline gate
      // excludes metric names containing "compile." (host wall-clock
      // convention), which would silently drop "miscompile.*".
      {"miscompiled",
       "gated, kernel.miscompile",
       {true, "kernel.miscompile=once", scratch, 0, {}}},
      {"guard_mispredict",
       "gated, kernel.guard.mispredict",
       {true, "kernel.guard.mispredict=once", "", 0, kHints}},
      // Ungated: a clean first generation, then a respecialization whose
      // guard mispredicts (every:2 = the second kernel compile of the
      // leg). Runtime guard verification must catch it, roll back, and
      // quarantine the respecialized key.
      {"rollback",
       "ungated, runtime rollback",
       {false, "kernel.guard.mispredict=every:2", "", 4, {}}},
  };

  bench::Table table({"leg", "p50", "wrong", "validations", "caught",
                      "swaps", "rollbacks", "fallback"});
  for (const Leg& leg : legs) {
    LegResult r = RunLeg(*graph, leg.config);
    const std::string prefix = std::string(leg.key) + ".";
    const double p50 = PercentileOfSorted(bench::Sorted(r.latencies), 50);
    report.AddMetric(prefix + "p50_us", p50, "us");
    report.AddMetric(prefix + "wrong_results_served",
                     static_cast<double>(r.wrong_results_served), "queries");
    report.AddMetric(prefix + "checked_results",
                     static_cast<double>(r.checked_results), "queries");
    report.AddMetric(prefix + "validations_run",
                     static_cast<double>(r.validations_run), "jobs");
    report.AddMetric(prefix + "validations_caught",
                     static_cast<double>(r.validations_caught), "jobs");
    report.AddMetric(prefix + "swaps", static_cast<double>(r.swaps),
                     "swaps");
    report.AddMetric(prefix + "rollbacks", static_cast<double>(r.rollbacks),
                     "rollbacks");
    report.AddMetric(prefix + "data_loss_events",
                     static_cast<double>(r.data_loss_events), "events");
    report.AddMetric(prefix + "fallback_queries",
                     static_cast<double>(r.fallback_queries), "queries");
    report.AddMetric(prefix + "compile_jobs",
                     static_cast<double>(r.compile_jobs), "jobs");
    table.AddRow({leg.label, bench::FmtUs(p50),
                  std::to_string(r.wrong_results_served),
                  std::to_string(r.validations_run),
                  std::to_string(r.validations_caught),
                  std::to_string(r.swaps), std::to_string(r.rollbacks),
                  std::to_string(r.fallback_queries)});
    // Greppable verdict line per leg (chaos-smoke parses these).
    std::printf(
        "leg=%s validation=%s wrong_results_served=%lld rollbacks=%lld "
        "data_loss=%lld swaps=%lld poisoned_skips=%lld bit_identical=%s\n",
        leg.key, r.validations_caught > 0 ? "caught" : "pass",
        static_cast<long long>(r.wrong_results_served),
        static_cast<long long>(r.rollbacks),
        static_cast<long long>(r.data_loss_events),
        static_cast<long long>(r.swaps),
        static_cast<long long>(r.poisoned_skips),
        r.rollback_restore_bit_identical ? "yes" : "NO");
    if (r.wrong_results_served != 0) {
      std::fprintf(stderr, "FAIL: leg %s served %lld wrong results\n",
                   leg.key,
                   static_cast<long long>(r.wrong_results_served));
      return 1;
    }
    if (!r.rollback_restore_bit_identical) {
      std::fprintf(stderr,
                   "FAIL: leg %s rollback did not restore bit-identical "
                   "outputs\n",
                   leg.key);
      return 1;
    }
  }
  std::printf("\n");
  table.Print();

  // Bitrot sub-leg: a prior lifetime persists a clean artifact, then a
  // byte of the recipe rots on disk. The load must be quarantined (and
  // session-poisoned so the key is never re-stored this lifetime), the
  // service recompiles from source, and the fresh candidate passes the
  // gate — correct math throughout, zero disk restores.
  {
    const std::string bitrot_dir = scratch + "_bitrot";
    fs::remove_all(bitrot_dir);
    RunLeg(*graph, {true, "", bitrot_dir, 0, {}});  // warm the cache
    LegResult r =
        RunLeg(*graph, {true, "cache.bitrot=once", bitrot_dir, 0, {}});
    std::printf(
        "\nleg=bitrot validation=%s wrong_results_served=%lld "
        "quarantined=%lld compile_jobs=%lld disk_restores=%lld "
        "swaps=%lld\n",
        r.validations_caught > 0 ? "caught" : "pass",
        static_cast<long long>(r.wrong_results_served),
        static_cast<long long>(r.cache_quarantined),
        static_cast<long long>(r.compile_jobs),
        static_cast<long long>(r.disk_restores),
        static_cast<long long>(r.swaps));
    report.AddMetric("bitrot.wrong_results_served",
                     static_cast<double>(r.wrong_results_served), "queries");
    report.AddMetric("bitrot.quarantined",
                     static_cast<double>(r.cache_quarantined), "entries");
    report.AddMetric("bitrot.compile_jobs",
                     static_cast<double>(r.compile_jobs), "jobs");
    report.AddMetric("bitrot.disk_restores",
                     static_cast<double>(r.disk_restores), "loads");
    report.AddMetric("bitrot.swaps", static_cast<double>(r.swaps), "swaps");
    fs::remove_all(bitrot_dir);
    if (r.wrong_results_served != 0 || r.cache_quarantined == 0 ||
        r.disk_restores != 0) {
      std::fprintf(stderr,
                   "FAIL: bitrot leg wrong=%lld quarantined=%lld "
                   "restores=%lld\n",
                   static_cast<long long>(r.wrong_results_served),
                   static_cast<long long>(r.cache_quarantined),
                   static_cast<long long>(r.disk_restores));
      return 1;
    }
  }

  // Warm-restart sub-leg: the miscompile leg poisoned its key in the
  // persisted quarantine under `scratch`; a fresh service+engine must
  // refuse it with ZERO compiles and keep serving correct math.
  {
    LegResult r = RunLeg(*graph, {true, "", scratch, 0, {}});
    std::printf(
        "\nrestart: quarantined=1 restart_compiles=%lld "
        "restart_poisoned_skips=%lld restart_swaps=%lld "
        "wrong_results_served=%lld\n",
        static_cast<long long>(r.compile_jobs),
        static_cast<long long>(r.poisoned_skips),
        static_cast<long long>(r.swaps),
        static_cast<long long>(r.wrong_results_served));
    report.AddMetric("restart.compile_jobs",
                     static_cast<double>(r.compile_jobs), "jobs");
    report.AddMetric("restart.poisoned_skips",
                     static_cast<double>(r.poisoned_skips), "queries");
    report.AddMetric("restart.swaps", static_cast<double>(r.swaps), "swaps");
    report.AddMetric("restart.wrong_results_served",
                     static_cast<double>(r.wrong_results_served), "queries");
    if (r.compile_jobs != 0 || r.wrong_results_served != 0) {
      std::fprintf(stderr,
                   "FAIL: warm restart recompiled a quarantined key "
                   "(%lld compiles)\n",
                   static_cast<long long>(r.compile_jobs));
      return 1;
    }
  }
  fs::remove_all(scratch);

  // Paired-latency sub-leg: identical fault-free trace with the gate on
  // vs off. The gate validates off-thread, so the median paired per-query
  // delta on the serving thread must be ~0 (only the handful of queries
  // inside the validation window differ — adoption lands one gate later).
  {
    LegResult on = RunLeg(*graph, {true, "", "", 0, {}});
    LegResult off = RunLeg(*graph, {false, "", "", 0, {}});
    std::vector<double> deltas;
    for (size_t i = 0; i < on.latencies.size() && i < off.latencies.size();
         ++i) {
      deltas.push_back(on.latencies[i] - off.latencies[i]);
    }
    std::sort(deltas.begin(), deltas.end());
    double median_delta = PercentileOfSorted(deltas, 50);
    double p99_delta = PercentileOfSorted(deltas, 99);
    report.AddMetric("overhead.median_paired_delta_us", median_delta, "us");
    report.AddMetric("overhead.p99_paired_delta_us", p99_delta, "us");
    std::printf(
        "\nvalidation serving-thread overhead: median_paired_delta_us=%.3f "
        "p99_paired_delta_us=%.3f\n",
        median_delta, p99_delta);
  }

  report.AddMeta("requests", std::to_string(kRequests));
  report.AddMeta("validation_latency_us",
                 std::to_string(kValidationLatencyUs));
  return 0;
}
