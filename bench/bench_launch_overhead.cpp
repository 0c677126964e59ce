// Extension experiment F7: kernel-launch overhead and CUDA-Graph replay.
//
// CUDA graphs are the classic remedy for launch-bound inference — but they
// are shape-static: a captured graph replays only for the exact shape
// signature it was captured with. This bench runs a launch-heavy decode
// model under two traces:
//   * repeat-heavy — one hot shape (graphs shine),
//   * fully dynamic — every query a new KV length (graphs never replay).
// Systems: DISC, DISC+graph (capture per signature), and XLA+graph
// (per-shape engines with replay on cache hits; compile stalls included).
// The punchline matches the paper's framing: launch batching is orthogonal
// to — and no substitute for — dynamic-shape compilation; fusion already
// removed most launches.
#include <chrono>

#include "baselines/dynamic_engine.h"
#include "baselines/static_engine.h"
#include "bench/bench_util.h"

namespace disc {
namespace {

std::vector<ShapeSet> RepeatHeavyTrace(int64_t n, int64_t hidden) {
  std::vector<ShapeSet> trace;
  for (int64_t i = 0; i < n; ++i) {
    // 7/8 of traffic on one hot shape, rest on a few others.
    int64_t t = (i % 8 == 7) ? 8 + (i % 3) * 8 : 32;
    trace.push_back({{1, 1, hidden}, {1, t, hidden}, {1, t, hidden}});
  }
  return trace;
}

std::vector<ShapeSet> FullyDynamicTrace(int64_t n, int64_t hidden) {
  std::vector<ShapeSet> trace;
  for (int64_t i = 0; i < n; ++i) {
    int64_t t = 1 + i;  // decode: every step a fresh length
    trace.push_back({{1, 1, hidden}, {1, t, hidden}, {1, t, hidden}});
  }
  return trace;
}

std::unique_ptr<Engine> MakeSystem(const std::string& name) {
  if (name == "DISC") {
    // Plan cache off: the pre-memoization runtime (every query rebuilds
    // its launch plan) — the baseline the plan-cache rows compare against.
    DynamicProfile profile = DynamicProfile::Disc();
    profile.use_plan_cache = false;
    return std::make_unique<DynamicCompilerEngine>(profile);
  }
  if (name == "DISC+plan") {
    DynamicProfile profile = DynamicProfile::Disc();
    profile.name = "DISC+plan";
    return std::make_unique<DynamicCompilerEngine>(profile);
  }
  if (name == "DISC+graph") {
    DynamicProfile profile = DynamicProfile::Disc();
    profile.name = "DISC+graph";
    profile.use_cuda_graph = true;
    return std::make_unique<DynamicCompilerEngine>(profile);
  }
  StaticProfile profile = StaticProfile::Xla();
  profile.name = "XLA+graph";
  profile.use_cuda_graph = true;
  return std::make_unique<StaticCompilerEngine>(profile);
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  using namespace disc;
  // --trace=<file>: capture per-query runtime spans (plan build/replay,
  // kernel launches) as Chrome-trace JSON.
  bench::TraceFlag trace_flag(argc, argv);
  bench::JsonReporter report("F7", argc, argv);
  report.AddMeta("device", "simulated T4 (device table: T4/A10/CPU)");
  std::printf("== F7 (extension): launch overhead & CUDA-Graph replay ==\n\n");
  ModelConfig config;
  Model model = BuildSeq2SeqStep(config);
  const DeviceSpec device = DeviceSpec::T4();
  const int64_t kQueries = 64;

  for (bool repeat_heavy : {true, false}) {
    auto trace = repeat_heavy ? RepeatHeavyTrace(kQueries, config.hidden)
                              : FullyDynamicTrace(kQueries, config.hidden);
    std::printf("-- %s trace (%lld queries) --\n",
                repeat_heavy ? "repeat-heavy" : "fully dynamic",
                static_cast<long long>(kQueries));
    bench::Table table(
        {"system", "mean/query", "p99", "plan hits", "graph replays"});
    for (const char* name : {"DISC", "DISC+plan", "DISC+graph", "XLA+graph"}) {
      auto engine = MakeSystem(name);
      DISC_CHECK_OK(engine->Prepare(*model.graph, model.input_dim_labels));
      std::vector<double> latencies;
      int64_t replays = 0;
      double prev = -1;
      for (const ShapeSet& shapes : trace) {
        auto timing = engine->Query(shapes, device);
        DISC_CHECK_OK(timing.status());
        latencies.push_back(timing->total_us);
        // Heuristic replay counter: identical shape, lower device time.
        if (timing->compile_us == 0 && prev >= 0 &&
            timing->device_us < prev - 1.0) {
          ++replays;
        }
        prev = timing->device_us;
      }
      const EngineStats& stats = engine->stats();
      const double p99 = PercentileOfSorted(bench::Sorted(latencies), 99);
      {
        std::string prefix = std::string(repeat_heavy ? "repeat-heavy"
                                                      : "fully-dynamic") +
                             "." + name + ".";
        report.AddMetric(prefix + "mean_us", bench::Mean(latencies), "us");
        report.AddMetric(prefix + "p99_us", p99, "us");
        if (stats.launch_plan_hits + stats.launch_plan_misses > 0) {
          report.AddMetric(prefix + "plan_hit_rate",
                           stats.launch_plan_hit_rate(), "ratio");
        }
      }
      table.AddRow(
          {name, bench::FmtUs(bench::Mean(latencies)),
           bench::FmtUs(p99),
           stats.launch_plan_hits + stats.launch_plan_misses > 0
               ? bench::Fmt("%.0f%%", stats.launch_plan_hit_rate() * 100)
               : std::string("off"),
           std::string(name == std::string("DISC") ? "n/a" : "~") +
               (name == std::string("DISC") ? "" : std::to_string(replays))});
    }
    table.Print();
    std::printf("\n");
  }
  // Device character: the same launch-bound decode runs on the CPU target
  // (the paper's system also ships CPU backends) — near-zero dispatch
  // latency beats the GPU on tiny launch-bound steps.
  std::printf("-- device comparison on the fully dynamic decode trace --\n");
  bench::Table dev_table({"device", "mean/query", "launch overhead/call"});
  for (const DeviceSpec& spec :
       {DeviceSpec::T4(), DeviceSpec::A10(), DeviceSpec::XeonCpu()}) {
    auto engine = MakeSystem("DISC");
    DISC_CHECK_OK(engine->Prepare(*model.graph, model.input_dim_labels));
    auto trace = FullyDynamicTrace(kQueries, config.hidden);
    std::vector<double> latencies;
    for (const ShapeSet& shapes : trace) {
      auto timing = engine->Query(shapes, spec);
      DISC_CHECK_OK(timing.status());
      latencies.push_back(timing->total_us);
    }
    report.AddMetric("device." + std::string(spec.name) + ".mean_us",
                     bench::Mean(latencies), "us");
    dev_table.AddRow({spec.name, bench::FmtUs(bench::Mean(latencies)),
                      bench::Fmt("%.1fus", spec.kernel_launch_us)});
  }
  dev_table.Print();

  // Measured (wall-clock) host planning cost, cached vs uncached — the
  // direct view of what the plan cache memoizes. The numbers above charge
  // the *modeled* host cost; these are the runtime's real microseconds.
  std::printf("\n-- measured host planning time (repeat-heavy trace) --\n");
  {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    DISC_CHECK_OK(exe.status());
    auto trace = RepeatHeavyTrace(kQueries * 4, config.hidden);
    double miss_us = 0, hit_us = 0;
    int64_t misses = 0, hits = 0;
    // Wall time of each whole timing-only Run, not just its plan lookup.
    std::vector<double> run_hit_us, run_miss_us;
    for (const ShapeSet& shapes : trace) {
      const auto start = std::chrono::steady_clock::now();
      auto r = (*exe)->RunWithShapes(shapes);
      const double run_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
      DISC_CHECK_OK(r.status());
      if (r->profile.launch_plan_hit) {
        hit_us += r->profile.host_plan_us;
        ++hits;
        run_hit_us.push_back(run_us);
      } else {
        miss_us += r->profile.host_plan_us;
        ++misses;
        run_miss_us.push_back(run_us);
      }
    }
    double mean_miss = misses > 0 ? miss_us / static_cast<double>(misses) : 0;
    double mean_hit = hits > 0 ? hit_us / static_cast<double>(hits) : 0;
    bench::Table host_table({"path", "queries", "mean host plan"});
    host_table.AddRow({"plan build (miss)",
                       std::to_string(misses), bench::FmtUs(mean_miss)});
    host_table.AddRow({"plan replay (hit)",
                       std::to_string(hits), bench::FmtUs(mean_hit)});
    host_table.Print();
    // wall. prefix: real microseconds, machine-dependent — excluded from
    // CI hard-fail comparison.
    report.AddMetric("wall.host_plan_miss_us", mean_miss, "us");
    report.AddMetric("wall.host_plan_hit_us", mean_hit, "us");
    report.AddMetric("plan_cache_hit_rate",
                     static_cast<double>(hits) /
                         static_cast<double>(hits + misses),
                     "ratio");
    std::printf("hit rate %.0f%%, plan build / replay = %.1fx\n",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses),
                mean_hit > 0 ? mean_miss / mean_hit : 0.0);

    // The tables above charge DynamicProfile::Disc()'s modeled host cost
    // per query; this is what a whole timing-only Run measures.
    std::printf("\n-- measured Run vs modeled host cost per query --\n");
    const DynamicProfile modeled = DynamicProfile::Disc();
    const double run_hit = PercentileOfSorted(bench::Sorted(run_hit_us), 50);
    const double run_miss =
        PercentileOfSorted(bench::Sorted(run_miss_us), 50);
    bench::Table cost_table(
        {"path", "measured Run (median)", "modeled", "measured / modeled"});
    cost_table.AddRow({"plan hit", bench::FmtUs(run_hit),
                       bench::FmtUs(modeled.plan_hit_host_us),
                       bench::Fmt("%.1fx", run_hit / modeled.plan_hit_host_us)});
    cost_table.AddRow(
        {"plan miss", bench::FmtUs(run_miss),
         bench::FmtUs(modeled.per_query_host_us),
         bench::Fmt("%.1fx", run_miss / modeled.per_query_host_us)});
    cost_table.Print();
    report.AddMetric("wall.run_hit_us", run_hit, "us");
    report.AddMetric("wall.run_miss_us", run_miss, "us");
  }
  std::printf(
      "\nReading: graph replay helps only when signatures repeat; on the\n"
      "decode trace every step is a new shape, so DISC+graph == DISC while\n"
      "XLA+graph still recompiles per step. The plan cache attacks the\n"
      "complementary cost — the host-side symbolic work — and degrades to\n"
      "a hash probe (not a stall) when shapes never repeat. The CPU\n"
      "target's near-zero dispatch latency makes it competitive on tiny\n"
      "launch-bound steps.\n");
  return 0;
}
