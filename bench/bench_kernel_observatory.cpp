// Extension experiment F13: the kernel-level performance observatory.
//
// One elementwise chain (with scalar broadcasts, so the exact-shape
// variant has real modeled headroom over vec4) serves a skewed shape
// trace — a hot batch plus ragged stragglers — under three compilation
// regimes:
//
//   * nospec:   specialization disabled. Every launch falls back to the
//               generic variant; the counterfactual regret audit must
//               name the vectorized variant each hot kernel was denied
//               (best_compiled=false) with positive regret.
//   * spec:     full specialization. vec4 is compiled and selected at the
//               hot shape, and its audited regret is exactly zero.
//   * feedback: the engine starts from the nospec configuration with
//               shape-speculation feedback armed. The audited regret is
//               fed back through NoteKernelRegret, which respecializes
//               (speculative exact-shape variants for the hot batch) and
//               drives the hot kernel's regret to ~0.
//
// All ledger contents and audit verdicts are DeviceModel quantities, so
// BENCH_F13.json is byte-stable and CI gates it against the committed
// baseline (±10%, wall.* excluded). The ledger's wall-clock overhead is
// measured with the F12 methodology — interleaved off/on replay blocks,
// median of paired deltas — plus a direct ns-loop on the disabled check
// (one relaxed atomic load, the only cost a quiet launch path pays).
#include <chrono>

#include "baselines/dynamic_engine.h"
#include "bench/bench_util.h"
#include "compiler/compiler.h"
#include "ir/builder.h"
#include "runtime/launch_plan.h"
#include "support/kernel_profile.h"
#include "support/string_util.h"

namespace disc {
namespace {

constexpr int64_t kHidden = 512;
constexpr int64_t kHotBatch = 1024;

// Elementwise chain with scalar broadcasts: the group is not
// broadcast-free, so the speculative exact-shape variant (statically
// resolved indexing) models faster than vec4, which models faster than
// generic — three distinct rungs for the audit to rank.
std::unique_ptr<Graph> BuildChain() {
  auto g = std::make_unique<Graph>("observatory");
  GraphBuilder b(g.get());
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kHidden});
  Value* h = b.Mul(b.Add(x, x), b.ScalarF32(0.5f));
  h = b.Add(b.Exp(h), b.ScalarF32(1.0f));
  b.Output({b.Mul(b.Relu(h), b.ScalarF32(1.1f))});
  return g;
}

// Hot batch dominates (passes the feedback confidence bar); ragged
// stragglers keep multiple signatures live in the ledger.
std::vector<std::vector<std::vector<int64_t>>> Trace() {
  std::vector<std::vector<std::vector<int64_t>>> trace;
  const int64_t batches[] = {kHotBatch, kHotBatch, kHotBatch, kHotBatch,
                             768,       kHotBatch, 257,       kHotBatch,
                             431,       kHotBatch, kHotBatch, kHotBatch};
  for (int64_t b : batches) trace.push_back({{b, kHidden}});
  return trace;
}

std::string HotSignature() {
  return ShapeSignature({{kHotBatch, kHidden}});
}

// Replays the trace through `exe` with the ledger on and returns the
// audit, sorted by total regret descending.
std::vector<KernelRegret> ReplayAndAudit(const Executable& exe) {
  KernelProfileLedger& ledger = KernelProfileLedger::Global();
  ledger.Clear();
  ledger.Enable();
  for (const auto& shapes : Trace()) {
    DISC_CHECK_OK(exe.RunWithShapes(shapes).status());
  }
  ledger.Disable();
  return ledger.AuditRegret(DeviceSpec::A10());
}

// The audit row for the hot signature (every leg must have exactly one
// kernel, so the hot row is unambiguous).
const KernelRegret& HotRegret(const std::vector<KernelRegret>& audit) {
  for (const KernelRegret& r : audit) {
    if (r.signature == HotSignature()) return r;
  }
  DISC_CHECK(false) << "hot signature missing from audit";
  return audit.front();
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  using namespace disc;
  bench::TraceFlag trace_flag(argc, argv);
  bench::JsonReporter report("F13", argc, argv);
  std::printf("== F13 (extension): kernel observatory + variant-regret "
              "audit ==\n\n");

  auto graph = BuildChain();
  const std::vector<std::vector<std::string>> labels = {{"B", ""}};
  KernelProfileLedger& ledger = KernelProfileLedger::Global();

  bench::Table table({"leg", "hot variant", "hot modeled", "best variant",
                      "regret/launch", "regret share"});
  auto add_leg = [&](const char* leg, const KernelRegret& hot) {
    const std::string prefix = std::string(leg) + ".";
    report.AddMetric(prefix + "hot_selected_us", hot.selected_us, "us");
    report.AddMetric(prefix + "hot_best_us", hot.best_us, "us");
    report.AddMetric(prefix + "hot_regret_us", hot.regret_us, "us");
    report.AddMetric(prefix + "hot_regret_share", hot.regret_share,
                     "fraction");
    report.AddMetric(prefix + "hot_launches",
                     static_cast<double>(hot.launches), "launches");
    table.AddRow({leg,
                  hot.selected_variant + (hot.best_compiled ? "" : " (best "
                                          "denied)"),
                  bench::FmtUs(hot.selected_us), hot.best_variant,
                  bench::FmtUs(hot.regret_us),
                  bench::Fmt("%.3f", hot.regret_share)});
  };

  // --- nospec: the generic-only compile leaves modeled time on the table.
  double nospec_regret_us = 0.0;
  {
    auto exe = DiscCompiler::Compile(*graph, labels,
                                     CompileOptions::NoSpecialization());
    DISC_CHECK_OK(exe.status());
    std::vector<KernelRegret> audit = ReplayAndAudit(**exe);
    DISC_CHECK(!audit.empty());
    // The top-regret row IS the hot kernel, and it names the vectorized
    // variant it was denied at compile time.
    const KernelRegret& top = audit.front();
    DISC_CHECK_EQ(top.signature, HotSignature());
    DISC_CHECK_EQ(top.selected_variant, "generic");
    DISC_CHECK_EQ(top.best_variant, "vec4");
    DISC_CHECK(!top.best_compiled) << "vec4 should not have been compiled";
    DISC_CHECK_GT(top.regret_us, 0.0);
    nospec_regret_us = top.regret_us;
    add_leg("nospec", top);
    report.AddMetric("nospec.total_regret_us", top.total_regret_us, "us");
    ledger.Clear();  // entries reference *exe — fence before it dies
  }

  // --- spec: vec4 is compiled, selected, and best — regret collapses.
  {
    auto exe = DiscCompiler::Compile(*graph, labels, CompileOptions());
    DISC_CHECK_OK(exe.status());
    std::vector<KernelRegret> audit = ReplayAndAudit(**exe);
    const KernelRegret& hot = HotRegret(audit);
    DISC_CHECK_EQ(hot.selected_variant, "vec4");
    DISC_CHECK_EQ(hot.regret_us, 0.0) << "specialized hot shape has regret";
    add_leg("spec", hot);
    ledger.Clear();
  }

  // --- feedback: regret observed at runtime respecializes the engine.
  {
    DynamicProfile profile = DynamicProfile::Disc();
    profile.compile_options = CompileOptions::NoSpecialization();
    // 16 > the 12 replay queries, so plain observation never trips the
    // profile on its own; only the regret note (weight 4) reaches the bar.
    profile.feedback_after = 16;
    DynamicCompilerEngine engine(profile);
    DISC_CHECK_OK(engine.Prepare(*graph, labels));

    const DeviceSpec device = DeviceSpec::A10();
    auto replay_queries = [&] {
      ledger.Clear();
      ledger.Enable();
      for (const auto& shapes : Trace()) {
        DISC_CHECK_OK(engine.Query(shapes, device).status());
      }
      ledger.Disable();
    };
    replay_queries();
    std::vector<KernelRegret> before = ledger.AuditRegret(device);
    const KernelRegret hot_before = HotRegret(before);
    DISC_CHECK_EQ(hot_before.best_variant, "vec4");
    DISC_CHECK_GT(hot_before.regret_us, 0.0);
    DISC_CHECK_EQ(engine.respecializations(), 0)
        << "12 queries stay below min_observations; nothing should trip yet";

    // Close the loop: the audit's verdict becomes a respecialization, and
    // the inline swap releases the audited executable. Clearing the ledger
    // first makes the later audit see only the new executable.
    ledger.Clear();
    DISC_CHECK_OK(engine.NoteKernelRegret({{kHotBatch, kHidden}},
                                          hot_before.regret_us));
    DISC_CHECK_GE(engine.respecializations(), 1)
        << "regret feedback never triggered a respecialization";

    replay_queries();
    std::vector<KernelRegret> after = ledger.AuditRegret(device);
    const KernelRegret hot_after = HotRegret(after);
    // The respecialized executable runs a speculative exact-shape variant
    // at the hot batch; nothing admissible models faster.
    DISC_CHECK(StartsWith(hot_after.selected_variant, "exact_"))
        << "hot shape still runs " << hot_after.selected_variant;
    DISC_CHECK_EQ(hot_after.regret_us, 0.0);
    DISC_CHECK_LT(hot_after.selected_us, hot_before.selected_us);

    report.AddMetric("feedback.hot_regret_before_us", hot_before.regret_us,
                     "us");
    report.AddMetric("feedback.hot_regret_after_us", hot_after.regret_us,
                     "us");
    report.AddMetric("feedback.respecializations",
                     static_cast<double>(engine.respecializations()),
                     "count");
    add_leg("feedback", hot_after);
    ledger.Clear();
  }
  table.Print();
  std::printf("\nnospec regret at hot shape: %.2fus/launch, recovered by "
              "specialization and by regret-fed respecialization\n",
              nospec_regret_us);

  // --- ledger overhead (wall-clock; excluded from CI comparison). ------
  // F12 methodology: interleaved (off, on) replay blocks, median of
  // paired deltas, so machine drift cancels within each pair.
  {
    auto exe = DiscCompiler::Compile(*graph, labels, CompileOptions());
    DISC_CHECK_OK(exe.status());
    const auto trace = Trace();
    const int kPairs = 25;
    const int kReplaysPerBlock = 16;
    auto replay_block_us = [&](bool ledger_on) {
      ledger.Clear();
      if (ledger_on) {
        ledger.Enable();
      } else {
        ledger.Disable();
      }
      auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kReplaysPerBlock; ++i) {
        for (const auto& shapes : trace) {
          DISC_CHECK_OK((*exe)->RunWithShapes(shapes).status());
        }
      }
      auto end = std::chrono::steady_clock::now();
      ledger.Disable();
      return std::chrono::duration<double, std::micro>(end - start).count() /
             kReplaysPerBlock;
    };
    std::vector<double> offs;
    std::vector<double> deltas;
    for (int pair = 0; pair < kPairs; ++pair) {
      const double off = replay_block_us(false);
      const double on = replay_block_us(true);
      offs.push_back(off);
      deltas.push_back(on - off);
    }
    std::sort(offs.begin(), offs.end());
    std::sort(deltas.begin(), deltas.end());
    const double off_us = offs[offs.size() / 2];
    const double delta_us = deltas[deltas.size() / 2];
    const double overhead_pct =
        off_us > 0.0 ? delta_us / off_us * 100.0 : 0.0;
    report.AddMetric("wall.replay_ledger_off_us", off_us, "us");
    report.AddMetric("wall.replay_ledger_on_us", off_us + delta_us, "us");
    report.AddMetric("wall.ledger_overhead_pct", overhead_pct, "%");
    std::printf("\nledger overhead: %.2f%% (+%.2fus on a %.1fus trace "
                "replay; median of %d interleaved pairs x %d replays)\n",
                overhead_pct, delta_us, off_us, kPairs, kReplaysPerBlock);

    // The disabled path is one relaxed atomic load per Run — time it
    // directly, free of replay noise.
    ledger.Disable();
    const int kChecks = 10000000;
    int64_t armed = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kChecks; ++i) {
      if (ledger.enabled()) ++armed;
    }
    auto t1 = std::chrono::steady_clock::now();
    DISC_CHECK_EQ(armed, 0);
    const double ns_per_check =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kChecks;
    report.AddMetric("wall.disabled_check_ns", ns_per_check, "ns");
    std::printf("disabled-ledger check: %.2fns (one relaxed atomic load)\n",
                ns_per_check);
    ledger.Clear();
  }

  std::printf(
      "\nReading: under real traffic the ledger knows what every fused\n"
      "kernel ran and cost per (variant, shape); the counterfactual audit\n"
      "prices the variants it did NOT run. Denied-variant regret\n"
      "(best_compiled=false) blames the compile-time configuration, and\n"
      "feeding it into ShapeProfileFeedback closes the loop: the engine\n"
      "respecializes toward the shapes that are actually paying.\n");
  return 0;
}
