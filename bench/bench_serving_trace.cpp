// Experiment F6: serving-latency distribution under a realistic mixed-shape
// trace (Zipf-ish hot shapes + long tail), per system: p50 / p95 / p99 and
// worst query. Tail latency is where per-shape compilation hurts most —
// a cache-missing query stalls for a full compilation.
#include "baselines/dynamic_engine.h"
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace disc;
  // --trace=<file>: capture engine-query and runtime spans as Chrome-trace
  // JSON while the latency distributions are measured.
  bench::TraceFlag trace_flag(argc, argv);
  bench::JsonReporter report("F6", argc, argv);
  std::printf("== F6: serving latency distribution (trace of 64 queries) ==\n\n");

  ModelConfig config;
  config.trace_length = 64;
  const DeviceSpec device = DeviceSpec::A10();

  for (const char* model_name : {"bert", "seq2seq-step"}) {
    Model model;
    for (Model& m : BuildModelSuite(config)) {
      if (m.name == model_name) model = std::move(m);
    }
    std::printf("-- %s --\n", model.name.c_str());
    bench::Table table({"system", "p50", "p95", "p99", "max", "mean"});
    for (const std::string& system : AllBaselineNames()) {
      if (system == "TVM") continue;  // tuning stalls dwarf the axis; see F4
      auto engine = MakeBaseline(system);
      DISC_CHECK_OK(engine.status());
      auto latencies = bench::ReplayTrace(engine->get(), model, device);
      DISC_CHECK_OK(latencies.status());
      const std::vector<double>& l = *latencies;
      const std::vector<double> sorted = bench::Sorted(l);
      std::string prefix = std::string(model_name) + "." + system + ".";
      report.AddMetric(prefix + "p50_us", PercentileOfSorted(sorted, 50),
                       "us");
      report.AddMetric(prefix + "p99_us", PercentileOfSorted(sorted, 99),
                       "us");
      report.AddMetric(prefix + "mean_us", bench::Mean(l), "us");
      table.AddRow({system, bench::FmtUs(PercentileOfSorted(sorted, 50)),
                    bench::FmtUs(PercentileOfSorted(sorted, 95)),
                    bench::FmtUs(PercentileOfSorted(sorted, 99)),
                    bench::FmtUs(sorted.back()),
                    bench::FmtUs(bench::Mean(l))});
    }
    table.Print();
    std::printf("\n");
  }
  // Ablation: the launch-plan cache on the same traces. Hot shapes repeat
  // (Zipf head), so most queries replay a memoized plan; the tail still
  // builds plans but never stalls (plan build is host shape math, not a
  // compilation).
  std::printf("-- launch-plan cache ablation (DISC) --\n");
  for (const char* model_name : {"bert", "seq2seq-step"}) {
    Model model;
    for (Model& m : BuildModelSuite(config)) {
      if (m.name == model_name) model = std::move(m);
    }
    bench::Table table(
        {"config", "p50", "p99", "mean", "plan hits"});
    for (bool use_plan_cache : {true, false}) {
      DynamicProfile profile = DynamicProfile::Disc();
      profile.use_plan_cache = use_plan_cache;
      DynamicCompilerEngine engine(profile);
      auto latencies = bench::ReplayTrace(&engine, model, device);
      DISC_CHECK_OK(latencies.status());
      const std::vector<double>& l = *latencies;
      const std::vector<double> sorted = bench::Sorted(l);
      const EngineStats& stats = engine.stats();
      table.AddRow(
          {use_plan_cache ? "plan cache on" : "plan cache off",
           bench::FmtUs(PercentileOfSorted(sorted, 50)),
           bench::FmtUs(PercentileOfSorted(sorted, 99)),
           bench::FmtUs(bench::Mean(l)),
           use_plan_cache
               ? bench::Fmt("%.0f%%", stats.launch_plan_hit_rate() * 100)
               : std::string("off")});
    }
    std::printf("%s:\n", model.name.c_str());
    table.Print();
  }
  std::printf(
      "\nReading: interpreters have flat but high distributions (per-op "
      "overhead);\nstatic compilers have good medians and catastrophic "
      "tails (compile stalls);\nDISC is flat and low — and with the plan "
      "cache its repeated-shape\nqueries also skip the per-query host "
      "shape program.\n");
  return 0;
}
