// The one inspection CLI: compile-time decisions, runtime traces, serving
// and decode. Three modes share one flag parser, one compile-service /
// failpoint / metrics printer and one Chrome-trace writer: --trace=<file>
// records every layer's spans (compile phases and passes, per-Run plan
// hit/miss, kernel launches, serving and decode steps on the simulated
// clock) for chrome://tracing or https://ui.perfetto.dev.
//
// Introspection (the default): "why was (or wasn't) this pair fused, and
// which shape constraint decided it?" Compiles a named model through the
// compile service (a later run restores it from the artifact cache at
// --cache-dir) with decision recording on, optionally dumps the full
// artifact set, and answers queries against the decision and constraint
// logs:
//
//   $ disc_explain --model=bert --dump-dir=/tmp/bert_dump
//   $ disc_explain --model=softmax --why-not-fused=3,5
//   $ disc_explain --model=softmax --static-shapes-only --why-not-fused=3,5
//   $ disc_explain --model=layernorm --decisions
//   $ disc_explain --model=bert --constraints
//   $ disc_explain --model=bert --memory-plan
//   $ disc_explain --model=gelu-glue --hotspots
//   $ disc_explain --model=gelu-glue --no-specialization --regret
//   $ disc_explain --model=softmax --no-compile-cache --validation
//
// --hotspots replays the model's shape trace with the kernel observatory
// enabled and prints the per-(kernel, variant, signature) device-time
// ledger: top entries, the variant admission histogram, and the
// launch-bound vs memory-bound split. --regret additionally runs the
// counterfactual variant-regret audit (joined to the fusion decisions
// that formed each kernel's group). Both write kernel_profile.json.
// --validation replays the shape trace plus the guard-boundary probes of
// the compiled variants through the executable and the reference
// evaluator, and exports the verdict as validation_report.json.
//
// --serve (model default seq2seq-step): compiles the model directly, so
// compile_service.* failpoints hit the serving engine's job; replays its
// shape trace; serves a synthetic request stream through the
// DISC->interpreter fallback chain; then serves it twice through a
// service-mode engine, whose artifact cache (disc_explain.serve.cache,
// wiped at start) is its own and which adopts its compile at a fixed
// point of the simulated clock, so two runs print the same serving lines.
// --blame adds the p99 tail-blame report
// (blame_report.json, re-parsed: "blame_report=ok") and joins each
// retained outlier to the kernels of the Run that served it.
//
//   $ disc_explain --serve --trace=serve.trace.json [--blame]
//
// --decode: a synthetic decode trace replays through the continuous-
// batching scheduler on the compiled GPT step-batch model. The step
// timeline is written to decode_timeline.json and printed, ending in the
// greppable "decode_timeline=ok ... accounting=" line. With
// DISC_FAILPOINTS arming runtime.alloc, memory pressure must surface as
// preemptions, not failures.
//
// --serve's direct compile honours --dump-dir, --dump-filter,
// --static-shapes-only and --no-specialization; the other introspection
// queries are ignored by --serve and --decode. Node ids are the %N value
// ids shown in the IR dumps (module_*.ir) and in `--decisions` output. Models: the F2 micro workloads (softmax,
// layernorm, gelu-glue) plus the full model suite (mlp, bert,
// seq2seq-step, crnn, fastspeech2, dlrm, ...).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/dynamic_engine.h"
#include "baselines/fallback_chain.h"
#include "baselines/interpreter_engine.h"
#include "compile_service/compile_service.h"
#include "compile_service/shadow_validate.h"
#include "compiler/compiler.h"
#include "decode/decode_replay.h"
#include "decode/decode_scheduler.h"
#include "ir/builder.h"
#include "models/models.h"
#include "serving/serving.h"
#include "support/artifact_dump.h"
#include "support/blame.h"
#include "support/failpoint.h"
#include "support/flight_recorder.h"
#include "support/kernel_profile.h"
#include "support/metrics.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace disc {
namespace {

struct Workload {
  std::string name;
  std::unique_ptr<Graph> graph;
  std::vector<std::vector<std::string>> labels;
  /// Per-query input shapes replayed by --hotspots / --regret.
  std::vector<ShapeSet> trace;
};

// Shape traffic for the micro workloads (the suite models carry their own
// serving trace): a hot power-of-two batch plus ragged stragglers, so the
// ledger shows both the vectorized and the fallback variants. The hot batch
// is large enough that the vec4 variant is modeled faster than generic —
// under --no-specialization the regret audit then names the denied variant
// with positive regret.
std::vector<ShapeSet> MicroTrace(int64_t inner) {
  std::vector<ShapeSet> trace;
  const int64_t batches[] = {1024, 1024, 1024, 1024, 1024, 1024,
                             768,  257,  1024, 431,  1024, 1024};
  for (int64_t b : batches) trace.push_back({{b, inner}});
  return trace;
}

// The F2 micro workloads, built exactly as bench_fusion_ablation does, so
// a why-not-fused answer here explains the corresponding F2 table row.
Workload MakeSoftmax() {
  Workload w;
  w.name = "softmax";
  w.graph = std::make_unique<Graph>("softmax");
  GraphBuilder b(w.graph.get());
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Softmax(x)});
  w.labels = {{"B", "S"}};
  w.trace = MicroTrace(128);
  return w;
}

Workload MakeLayerNorm() {
  Workload w;
  w.name = "layernorm";
  w.graph = std::make_unique<Graph>("layernorm");
  GraphBuilder b(w.graph.get());
  const int64_t kHidden = 512;
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kHidden});
  Value* scale = b.Constant(Tensor::F32({kHidden},
                                        std::vector<float>(kHidden, 1.0f)));
  Value* bias = b.Constant(Tensor::F32({kHidden},
                                       std::vector<float>(kHidden, 0.0f)));
  b.Output({b.LayerNorm(x, scale, bias)});
  w.labels = {{"B", ""}};
  w.trace = MicroTrace(kHidden);
  return w;
}

Workload MakeGeluGlue() {
  Workload w;
  w.name = "gelu-glue";
  w.graph = std::make_unique<Graph>("gelu_glue");
  GraphBuilder b(w.graph.get());
  const int64_t kHidden = 512;
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kHidden});
  Value* h = b.Gelu(b.Add(x, b.Constant(Tensor::F32(
                                 {kHidden},
                                 std::vector<float>(kHidden, 0.5f)))));
  b.Output({b.Mul(h, b.ScalarF32(1.1f))});
  w.labels = {{"B", ""}};
  w.trace = MicroTrace(kHidden);
  return w;
}

Result<Workload> BuildWorkload(const std::string& name) {
  if (name == "softmax") return MakeSoftmax();
  if (name == "layernorm") return MakeLayerNorm();
  if (name == "gelu-glue") return MakeGeluGlue();
  ModelConfig config;
  for (Model& m : BuildModelSuite(config)) {
    if (m.name == name) {
      Workload w;
      w.name = m.name;
      w.graph = std::move(m.graph);
      w.labels = std::move(m.input_dim_labels);
      w.trace = std::move(m.trace);
      return w;
    }
  }
  return Status::InvalidArgument(
      "unknown model '" + name +
      "'; available: softmax, layernorm, gelu-glue, plus the model suite "
      "(mlp, bert, seq2seq-step, ...)");
}

// Finds the node whose output(0) value id is `id` (the %N in IR dumps).
const Node* FindNode(const Graph& graph, int id) {
  for (const Node* node : graph.nodes()) {
    if (!node->outputs().empty() && node->output(0)->id() == id) return node;
  }
  return nullptr;
}

// Explains one node's standing when no recorded decision covers the pair:
// the planner never *considered* it, and the reason is structural.
void ExplainStanding(const Executable& exe, const Node* node, int id) {
  if (node == nullptr) {
    std::printf("  %%%d: no such node in the optimized graph (note: the "
                "pass pipeline renumbers; read ids from module_optimized.ir "
                "or --decisions)\n",
                id);
    return;
  }
  auto it = exe.plan().group_of.find(node);
  if (it == exe.plan().group_of.end()) {
    const char* why = "not fusable compute";
    switch (node->op_class()) {
      case OpClass::kLibrary:
        why = "library op (matmul/conv dispatch to vendor kernels)";
        break;
      case OpClass::kShape:
        why = "host shape computation, never a device kernel";
        break;
      case OpClass::kCreation:
        why = "materialized constant, baked as a kernel parameter";
        break;
      default:
        break;
    }
    std::printf("  %%%d (%s): outside every fusion group — %s\n", id,
                OpName(node->kind()), why);
  } else {
    std::printf("  %%%d (%s): in group#%d (%s)\n", id, OpName(node->kind()),
                it->second,
                FusionKindName(exe.plan().groups[it->second].kind));
  }
}

void WhyNotFused(const Executable& exe, int a, int b) {
  const Node* na = FindNode(exe.graph(), a);
  const Node* nb = FindNode(exe.graph(), b);
  std::printf("why-not-fused %%%d, %%%d:\n", a, b);

  if (na != nullptr && nb != nullptr) {
    auto ga = exe.plan().group_of.find(na);
    auto gb = exe.plan().group_of.find(nb);
    if (ga != exe.plan().group_of.end() && gb != exe.plan().group_of.end() &&
        ga->second == gb->second) {
      std::printf("  they ARE fused: both in group#%d (%s)\n", ga->second,
                  FusionKindName(exe.plan().groups[ga->second].kind));
    }
  }
  auto decisions = exe.plan().DecisionsFor(a, b);
  if (!decisions.empty()) {
    for (const FusionDecision* d : decisions) {
      std::printf("  decision: %s\n", d->ToString().c_str());
    }
    return;
  }
  // No direct decision: the pair shares no producer->consumer edge, or one
  // side was structurally excluded before planning.
  std::printf("  no producer->consumer decision was recorded for this pair "
              "(fusion only merges adjacent nodes; non-adjacent nodes join "
              "a group only transitively). Standing of each node:\n");
  ExplainStanding(exe, na, a);
  ExplainStanding(exe, nb, b);
}

// Renders the symbolic arena layout: which values share which slot, the
// offset/size formula per slot, and why any value got its own fresh slot
// (the fallback set is where peak-memory wins are still on the table).
void PrintMemoryPlan(const Executable& exe) {
  const MemoryPlan& plan = exe.memory_plan();
  std::printf("== symbolic arena memory plan ==\n");
  if (!plan.planned) {
    std::printf("  (not planned — memory-planning phase did not run)\n\n");
    return;
  }
  std::printf("  %s\n", plan.ToString().c_str());
  std::printf("  peak bytes = %s\n", plan.peak_bytes.ToString().c_str());

  // Group values by slot so sharing is visible at a glance.
  std::vector<std::vector<int>> occupants(plan.slots.size());
  for (const auto& [value, slot] : plan.slot_of) {
    occupants[static_cast<size_t>(slot)].push_back(value->id());
  }
  for (size_t s = 0; s < plan.slots.size(); ++s) {
    std::sort(occupants[s].begin(), occupants[s].end());
    std::string ids;
    for (int id : occupants[s]) {
      if (!ids.empty()) ids += " ";
      ids += "%" + std::to_string(id);
    }
    std::printf("  slot#%zu @ %s : %s bytes  <- %s\n", s,
                plan.slots[s].offset.ToString().c_str(),
                plan.slots[s].bytes.ToString().c_str(), ids.c_str());
  }
  if (!plan.fallbacks.empty()) {
    std::printf("  fresh-slot fallbacks (no provable fit):\n");
    for (const ArenaFallback& f : plan.fallbacks) {
      std::printf("    %%%d (%s bytes): %s\n", f.value_id, f.bytes.c_str(),
                  f.reason.c_str());
    }
  }
  std::printf("\n");
}

// Replays the workload's shape trace with the kernel observatory enabled,
// prints the hotspot ledger (and, with `with_regret`, the counterfactual
// audit joined to fusion provenance), and writes kernel_profile.json.
int RunObservatory(const Executable& exe, const Workload& workload,
                   bool with_regret, const std::string& json_path) {
  KernelProfileLedger& ledger = KernelProfileLedger::Global();
  ledger.Clear();
  ledger.Enable();
  for (const ShapeSet& shapes : workload.trace) {
    auto run = exe.RunWithShapes(shapes);
    if (!run.ok()) {
      std::fprintf(stderr, "trace replay failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
  }

  std::vector<KernelProfileEntry> entries = ledger.Snapshot();
  std::vector<KernelProfileEntry> by_time = entries;
  std::sort(by_time.begin(), by_time.end(),
            [](const KernelProfileEntry& a, const KernelProfileEntry& b) {
              if (a.total_time_us != b.total_time_us) {
                return a.total_time_us > b.total_time_us;
              }
              return a.kernel < b.kernel;
            });

  std::printf("== kernel hotspots (%zu trace queries) ==\n",
              workload.trace.size());
  double device_total = 0.0, body_total = 0.0;
  int64_t launches = 0, memory_bound = 0;
  for (const KernelProfileEntry& e : entries) {
    device_total += e.total_time_us;
    body_total += e.total_body_us;
    launches += e.launches;
    memory_bound += e.memory_bound_launches;
  }
  const size_t top = std::min<size_t>(by_time.size(), 10);
  for (size_t i = 0; i < top; ++i) {
    const KernelProfileEntry& e = by_time[i];
    std::printf("  #%zu %5.1f%%  %s\n", i + 1,
                device_total > 0.0 ? 100.0 * e.total_time_us / device_total
                                   : 0.0,
                e.ToString().c_str());
  }

  std::printf("  variant admission (launches per compiled variant):\n");
  std::map<std::string, std::map<std::string, int64_t>> admission;
  for (const KernelProfileEntry& e : entries) {
    admission[e.kernel][e.variant] += e.launches;
  }
  for (const auto& [kernel, variants] : admission) {
    std::string line;
    for (const auto& [variant, count] : variants) {
      if (!line.empty()) line += "  ";
      line += StrFormat("%s:%lld", variant.c_str(),
                        static_cast<long long>(count));
    }
    std::printf("    %-24s %s\n", kernel.c_str(), line.c_str());
  }
  std::printf(
      "  split: %lld/%lld launches memory-bound; launch overhead %.1fus of "
      "%.1fus device (%.1f%%)\n",
      static_cast<long long>(memory_bound), static_cast<long long>(launches),
      device_total - body_total, device_total,
      device_total > 0.0 ? 100.0 * (device_total - body_total) / device_total
                         : 0.0);

  std::vector<KernelRegret> regrets;
  if (with_regret) {
    regrets = ledger.AuditRegret(DeviceSpec::A10());
    std::printf("\n== variant-regret audit (counterfactual: full "
                "specialization) ==\n");
    for (const KernelRegret& r : regrets) {
      std::printf("  %s\n", r.ToString().c_str());
      for (const VariantAssessment& a : r.candidates) {
        std::printf("    rank %d %-12s %s%s%s  modeled=%.2fus\n", a.rank,
                    a.variant.c_str(),
                    a.admissible ? "admissible" : "rejected  ",
                    a.compiled ? "" : " NOT-COMPILED",
                    a.selected ? " <selected>" : "", a.modeled_us);
      }
      // Fusion provenance: the decisions that formed this kernel's group —
      // regret names a variant choice, these name the fusion choices that
      // shaped the kernel it happened in.
      if (r.group >= 0 &&
          r.group < static_cast<int>(exe.plan().groups.size())) {
        std::set<int> member_ids;
        for (const Node* node : exe.plan().groups[r.group].nodes) {
          if (!node->outputs().empty()) {
            member_ids.insert(node->output(0)->id());
          }
        }
        for (const FusionDecision& d : exe.plan().decisions) {
          if (d.fused && member_ids.count(d.producer) &&
              member_ids.count(d.consumer)) {
            std::printf("    formed-by: %s\n", d.ToString().c_str());
          }
        }
      }
    }
    if (regrets.empty()) std::printf("  (no audited entries)\n");
  }

  Status written =
      WriteKernelProfileJson(json_path, entries, regrets, ledger.stats());
  if (!written.ok()) {
    std::fprintf(stderr, "writing %s failed: %s\n", json_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  double top_regret_share = regrets.empty() ? 0.0 : regrets[0].regret_share;
  // Greppable summary for the CI smoke (and for humans scanning logs).
  std::printf(
      "\nkernel_profile=ok path=%s entries=%zu regrets=%zu "
      "top_regret_share=%.4f\n\n",
      json_path.c_str(), entries.size(), regrets.size(), top_regret_share);
  ledger.Disable();
  ledger.Clear();
  return 0;
}

struct Flags {
  std::string model;
  std::string dump_dir;
  std::string filter;
  std::string why_pair;
  std::string cache_dir = "disc_explain.cache";
  std::string profile_json = "kernel_profile.json";
  std::string trace_path;
  bool no_compile_cache = false;
  bool static_only = false;
  bool list_decisions = false;
  bool list_constraints = false;
  bool show_memory_plan = false;
  bool show_hotspots = false;
  bool show_regret = false;
  bool no_specialization = false;
  bool validation = false;
  bool serve = false;
  bool blame = false;
  bool decode = false;
};

constexpr char kUsage[] =
    "usage: disc_explain [--serve [--blame] | --decode] [--model=<name>]\n"
    "           [--trace=<file>] [--dump-dir=<dir>] [--dump-filter=<substr>]\n"
    "           [--why-not-fused=A,B] [--static-shapes-only] [--decisions]\n"
    "           [--constraints] [--memory-plan] [--hotspots] [--regret]\n"
    "           [--no-specialization] [--profile-json=<path>]\n"
    "           [--cache-dir=<dir>] [--no-compile-cache] [--validation]\n";

bool ParseFlags(int argc, char** argv, Flags* f) {
  const std::pair<const char*, std::string*> values[] = {
      {"--model=", &f->model},           {"--dump-dir=", &f->dump_dir},
      {"--dump-filter=", &f->filter},    {"--why-not-fused=", &f->why_pair},
      {"--cache-dir=", &f->cache_dir},   {"--profile-json=", &f->profile_json},
      {"--trace=", &f->trace_path}};
  const std::pair<const char*, bool*> switches[] = {
      {"--no-compile-cache", &f->no_compile_cache},
      {"--static-shapes-only", &f->static_only},
      {"--decisions", &f->list_decisions},
      {"--constraints", &f->list_constraints},
      {"--memory-plan", &f->show_memory_plan},
      {"--hotspots", &f->show_hotspots},
      {"--regret", &f->show_regret},
      {"--no-specialization", &f->no_specialization},
      {"--validation", &f->validation},
      {"--serve", &f->serve},
      {"--blame", &f->blame},
      {"--decode", &f->decode}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto known = [&]() {
      for (const auto& [name, value] : values) {
        if (StartsWith(arg, name)) {
          *value = arg.substr(std::strlen(name));
          return true;
        }
      }
      for (const auto& [name, value] : switches) {
        if (arg != name) continue;
        *value = true;
        return true;
      }
      return false;
    };
    if (!known()) return false;
  }
  return true;
}

// Prints a failed step's status; true when `status` is an error.
bool Failed(const Status& status, const char* what) {
  if (status.ok()) return false;
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  return true;
}

CompileOptions InspectedCompileOptions(const Flags& f) {
  CompileOptions options = f.static_only ? CompileOptions::NoSymbolicShapes()
                           : f.no_specialization
                               ? CompileOptions::NoSpecialization()
                               : CompileOptions();
  options.dump.dir = f.dump_dir;
  options.dump.filter = f.filter;
  return options;
}

// Differential validation: replays the workload's shape trace (plus the
// guard-boundary probes derived from the compiled variants) through the
// executable and the IR reference evaluator — the check the engine's
// admission gate runs. With DISC_FAILPOINTS arming kernel.miscompile /
// kernel.guard.mispredict at compile time, this is the from-the-outside
// proof that it catches a wrong executable before it could serve.
int RunValidation(const Executable& exe, const Workload& workload,
                  const std::string& key_id) {
  ShadowValidator validator;
  std::vector<std::vector<std::vector<int64_t>>> observed(
      workload.trace.begin(), workload.trace.end());
  std::vector<ProbeBinding> probes =
      validator.BuildProbes(exe, workload.labels, observed, {}, {});
  ValidationReport report =
      validator.Validate(exe, /*incumbent=*/nullptr, *workload.graph, probes,
                         workload.name, key_id);
  std::printf("\n== differential validation (vs reference evaluator) ==\n");
  std::printf("%s\n", report.Summary().c_str());
  for (const ProbeOutcome& po : report.outcomes) {
    std::printf("  probe %-18s %-9s %s%s%s\n", po.signature.c_str(),
                po.source.c_str(), po.outcome.c_str(),
                po.detail.empty() ? "" : ": ", po.detail.c_str());
  }
  const char* path = "validation_report.json";
  if (Failed(report.WriteJsonFile(path), "writing the validation report")) {
    return 1;
  }
  std::printf("validation_report=ok verdict=%s probes=%lld path=%s\n",
              report.verdict(), static_cast<long long>(report.probes), path);
  return 0;
}

int RunIntrospection(const Flags& flags, const Workload& workload,
                     CompileService* service) {
  // The compile goes through the service so a previous invocation's
  // artifact (same model, same options) restores from the persistent
  // cache instead of recompiling — the job timeline printed at the end
  // shows which happened.
  CompileJobRequest request;
  request.model_name = workload.name;
  request.graph = workload.graph.get();
  request.labels = workload.labels;
  request.options = InspectedCompileOptions(flags);
  request.priority = JobPriority::kForegroundMiss;
  CompileJobHandle job = service->Submit(std::move(request));
  const CompileJobOutcome& outcome = job.Wait();
  // A failed compile with failpoints armed is usually the failpoint
  // firing; the summary printed at the end shows its hit/fire counts.
  if (Failed(outcome.status, "compile")) return 1;
  const Executable& exe = *outcome.executable;

  std::printf("model %s%s: %zu nodes -> %zu fusion groups%s\n",
              workload.name.c_str(),
              flags.static_only ? " (static-shapes-only ablation)" : "",
              exe.graph().nodes().size(), exe.plan().groups.size(),
              outcome.from_disk_cache ? " (restored from artifact cache)"
                                      : "");
  if (!flags.dump_dir.empty()) {
    std::printf("artifacts dumped to %s/\n", flags.dump_dir.c_str());
  }
  std::printf("\n");

  if (flags.show_memory_plan) PrintMemoryPlan(exe);

  if (flags.list_decisions ||
      (flags.why_pair.empty() && !flags.list_constraints &&
       !flags.show_memory_plan && !flags.show_hotspots && !flags.show_regret &&
       !flags.validation)) {
    std::printf("== fusion decisions (final verdict per considered pair) ==\n");
    for (const FusionDecision& d : exe.plan().decisions) {
      std::printf("  %s\n", d.ToString().c_str());
    }
    if (exe.plan().decisions.empty()) {
      std::printf("  (none — fusion disabled or nothing adjacent)\n");
    }
    std::printf("\n== fusion groups ==\n%s\n", exe.plan().ToString().c_str());
  }

  if (flags.list_constraints) {
    std::printf("== excavated shape constraints (discovery order) ==\n");
    for (const ConstraintRecord& r : exe.analysis().constraint_log()) {
      std::printf("  %s\n", r.ToString().c_str());
    }
    std::printf("\n");
  }

  if (!flags.why_pair.empty()) {
    size_t comma = flags.why_pair.find(',');
    if (comma == std::string::npos) {
      std::fprintf(stderr, "--why-not-fused wants two ids: A,B\n");
      return 2;
    }
    // Accept both "3,5" and the IR-dump spelling "%3,%5".
    auto parse_id = [](std::string s) {
      if (!s.empty() && s[0] == '%') s.erase(0, 1);
      return std::atoi(s.c_str());
    };
    WhyNotFused(exe, parse_id(flags.why_pair.substr(0, comma)),
                parse_id(flags.why_pair.substr(comma + 1)));
  }

  if (flags.show_hotspots || flags.show_regret) {
    int rc = RunObservatory(exe, workload, flags.show_regret,
                            flags.profile_json);
    if (rc != 0) return rc;
  }
  if (flags.validation) {
    return RunValidation(exe, workload, outcome.key.ToId());
  }
  return 0;
}

// The simulated compile latency of --serve's service-mode engine: about a
// quarter of its request stream's arrivals go by before the job lands.
constexpr double kServeCompileLatencyUs = 400.0;

// --serve. Every step lands in the trace: compile-phase spans, per-Run
// plan=miss/plan=hit spans, and per-request spans (batch formation, queue
// wait, execution) on the simulated clock.
int RunServe(const Flags& flags, const Workload& workload,
             CompileService* service) {
  TailBlameAggregator blame_aggregator;
  if (flags.blame) {
    FlightRecorder::Global().Enable();
    // Kernel ledger alongside the flight recorder: an outlier's trace id
    // joins to the per-kernel breakdown of the Run that served it.
    KernelProfileLedger::Global().Clear();
    KernelProfileLedger::Global().Enable();
  }

  // 1. Compile directly, not through the service: the service's only job
  // is then the serving engine's (section 4), which is where
  // compile_service.* failpoints must hit.
  auto exe = DiscCompiler::Compile(*workload.graph, workload.labels,
                                   InspectedCompileOptions(flags));
  if (Failed(exe.status(), "compile")) return 1;
  std::printf("compiled '%s': %s\n", workload.name.c_str(),
              (*exe)->report().ToString().c_str());
  std::printf("per-phase breakdown:\n%s\n",
              (*exe)->report().PhaseBreakdown().c_str());
  if (!flags.dump_dir.empty()) {
    std::printf("compilation artifacts dumped to %s/\n",
                flags.dump_dir.c_str());
  }

  // 2. Replay the shape trace through the executable: the first run of
  // each signature builds its launch plan, repeats replay it.
  int64_t run_failures = 0;
  for (const ShapeSet& shapes : workload.trace) {
    auto r = (*exe)->RunWithShapes(shapes);
    // The raw executable has no fallback leg: under an armed
    // DISC_FAILPOINTS schedule runs fail loudly, but the sections below
    // stay reachable.
    if (!r.ok() && ++run_failures == 1) {
      std::fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
    }
  }
  auto cache_stats = (*exe)->plan_cache_stats();
  std::printf("replayed %zu-query shape trace: %lld plan hits, %lld misses",
              workload.trace.size(), static_cast<long long>(cache_stats.hits),
              static_cast<long long>(cache_stats.misses));
  if (run_failures > 0) {
    std::printf(" (%lld runs failed via injected faults)",
                static_cast<long long>(run_failures));
  }
  std::printf("\n");

  // 3. Serve a synthetic request stream through the DISC->interpreter
  // fallback chain. Fault-free it is a pass-through; with DISC_FAILPOINTS
  // armed the degraded route and breaker transitions land in the same
  // trace (categories "failpoint" and "serving.breaker").
  EngineFallbackChain chain(
      std::make_unique<DynamicCompilerEngine>(DynamicProfile::Disc()),
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()));
  if (Failed(chain.Prepare(*workload.graph, workload.labels),
             "engine setup")) {
    return 1;
  }
  auto shape_fn = [&](int64_t batch, int64_t seq) {
    std::vector<std::vector<int64_t>> dims;
    for (const Value* in : workload.graph->inputs()) {
      std::vector<int64_t> d = in->type().dims;
      // Bind the model's dynamic dims to the padded batch geometry.
      for (size_t i = 0; i < d.size(); ++i) {
        if (d[i] == kDynamicDim) d[i] = i == 0 ? batch : seq;
      }
      dims.push_back(std::move(d));
    }
    return dims;
  };
  auto requests = SyntheticRequestStream(64, 25.0, 7);
  BatcherOptions batcher;
  auto stats = SimulateServing(&chain, shape_fn, requests, batcher,
                               DeviceSpec::A10());
  if (Failed(stats.status(), "serving")) return 1;
  std::printf("served %zu requests: %s\n", requests.size(),
              stats->ToString().c_str());
  blame_aggregator.AddAll(stats->completed_requests);
  if (!chain.breaker_transitions().empty()) {
    std::printf("\n== circuit-breaker transitions (simulated clock) ==\n");
    for (const BreakerTransition& t : chain.breaker_transitions()) {
      std::printf("  t=%.0fus  %s -> %s  (%s)\n", t.sim_time_us,
                  BreakerStateName(t.from), BreakerStateName(t.to),
                  t.reason.c_str());
    }
  }

  // 4. Serve the same stream through a service-mode engine: Prepare
  // submits a prefetch job and returns at once, early requests degrade to
  // the interpreter leg, and the compiled executable is hot-swapped in
  // when its job lands; the second wave is served compiled (degraded=0).
  // The job lands a fixed simulated latency after its submission (the
  // engine waits for a slower worker), so which requests degrade does not
  // depend on whether the worker beat the first query.
  // A worker fault (compile_service.worker) fails the job while the
  // fallback leg keeps serving; a store fault loses only persistence.
  AsyncEngineOptions async_options;
  async_options.simulated_compile_latency_us = kServeCompileLatencyUs;
  DynamicCompilerEngine async_engine(
      service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      async_options);
  if (Failed(async_engine.Prepare(*workload.graph, workload.labels),
             "service engine setup")) {
    return 1;
  }
  auto async_stats = SimulateServing(&async_engine, shape_fn, requests,
                                     batcher, DeviceSpec::A10());
  if (Failed(async_stats.status(), "service-engine serving")) return 1;
  service->Drain();
  std::printf("\nasync-served %zu requests: %s\n", requests.size(),
              async_stats->ToString().c_str());
  blame_aggregator.AddAll(async_stats->completed_requests);
  auto second_wave = SimulateServing(&async_engine, shape_fn, requests,
                                     batcher, DeviceSpec::A10());
  if (second_wave.ok()) {
    std::printf("second wave %zu requests: %s\n", requests.size(),
                second_wave->ToString().c_str());
    blame_aggregator.AddAll(second_wave->completed_requests);
  }
  std::printf("  hot swaps=%lld  fallback queries=%lld\n",
              static_cast<long long>(async_engine.swaps()),
              static_cast<long long>(async_engine.stats().fallback_queries));
  if (!flags.blame) return 0;

  // 5. Tail blame: decompose p99 latency into the phase ledger's causal
  // segments, export blame_report.json through the deterministic JSON
  // writer, then re-parse the file and verify the shares sum to 1.0.
  BlameReport report = blame_aggregator.Compute(99.0);
  std::printf("\n== tail-latency blame (p%.0f over %lld requests) ==\n%s",
              report.tail_percentile,
              static_cast<long long>(report.total_requests),
              report.ToString().c_str());
  const char* report_path = "blame_report.json";
  if (Failed(report.WriteJsonFile(report_path), "writing the blame report")) {
    return 1;
  }
  auto text = ReadFileToString(report_path);
  if (Failed(text.status(), "reading the blame report")) return 1;
  double share_sum = 0.0;
  Status valid = ValidateBlameReportJson(*text, 1e-6, &share_sum);
  if (!valid.ok()) {
    std::fprintf(stderr, "blame_report=invalid: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  std::printf("blame_report=ok sum=%.6f tail_requests=%lld path=%s\n",
              share_sum, static_cast<long long>(report.tail_requests),
              report_path);
  std::printf("\n== flight recorder ==\n%s",
              FlightRecorder::Global().ToString().c_str());

  // Join each retained outlier to the kernel ledger's run records: the
  // same trace id keyed both captures, so the tail request's latency
  // decomposes one level further — into the kernels of its batch.
  KernelProfileLedger& kernel_ledger = KernelProfileLedger::Global();
  std::printf("\n== outlier kernel breakdown (trace-id join) ==\n");
  int64_t joined = 0;
  for (const FlightRecord& record : FlightRecorder::Global().Snapshot()) {
    std::vector<KernelProfileLedger::RunRecord> runs =
        kernel_ledger.RunsForTrace(record.trace_id);
    if (runs.empty()) continue;
    ++joined;
    std::printf("  trace_id=%llu:\n",
                static_cast<unsigned long long>(record.trace_id));
    for (const auto& run : runs) std::printf("    %s\n", run.ToString().c_str());
  }
  if (joined == 0) {
    std::printf("  (no outlier trace ids found in the ledger ring — "
                "outliers predate its capacity)\n");
  }
  std::printf("kernel_join=%lld outliers matched in run ring "
              "(ledger: %lld runs retained)\n",
              static_cast<long long>(joined),
              static_cast<long long>(kernel_ledger.stats().runs_retained));
  // Lifetime fence: entries hold kernel pointers into the engines'
  // executables, which die when this function returns.
  kernel_ledger.Disable();
  kernel_ledger.Clear();
  return 0;
}

// --decode. The step spans, per-sequence ledger phases (including
// decode_wait) and KV-pool metrics land in the same trace as the rest.
int RunDecode() {
  ModelConfig config;
  config.hidden = 32;
  config.trace_length = 4;
  Model model = BuildGptStepBatch(config);
  DynamicCompilerEngine engine(DynamicProfile::Disc());
  if (Failed(engine.Prepare(*model.graph, model.input_dim_labels),
             "decode engine setup")) {
    return 1;
  }
  DecodeOptions options;
  options.max_batch = 8;
  options.kv.capacity_blocks = 96;
  options.kv.block_tokens = 16;
  options.kv.bytes_per_token = 2 * config.hidden * sizeof(float);
  auto stats = SimulateDecode(&engine, GptStepBatchShapeFn(config.hidden),
                              SyntheticDecodeStream(48, 40.0, 11), options,
                              DeviceSpec::A10());
  if (Failed(stats.status(), "decode replay")) return 1;
  const char* timeline_path = "decode_timeline.json";
  if (Failed(stats->WriteTimelineJson(timeline_path),
             "writing the decode timeline")) {
    return 1;
  }
  std::printf("%s\nserving view: %s\n", stats->TimelineText().c_str(),
              stats->ToString().c_str());

  const ServingStats& sv = stats->serving;
  const bool accounting_ok =
      sv.submitted == sv.completed + sv.shed + sv.deadline_missed + sv.failed;
  std::printf(
      "decode_timeline=ok policy=%s steps=%lld completed=%lld/%lld "
      "preemptions=%lld resumes=%lld accounting=%s path=%s\n",
      stats->policy.c_str(), static_cast<long long>(sv.decode_steps),
      static_cast<long long>(sv.completed),
      static_cast<long long>(sv.submitted),
      static_cast<long long>(sv.preemptions),
      static_cast<long long>(sv.resumes), accounting_ok ? "ok" : "DRIFTED",
      timeline_path);
  return accounting_ok ? 0 : 1;
}

// The tail every mode shares: the compile service's job timeline and
// cache (null in --decode, which has none), the armed failpoints, and the
// metrics registry for the serving modes.
void PrintEpilogue(CompileService* service, bool with_metrics) {
  if (service != nullptr) {
    std::printf("\n== compile service ==\n%s",
                service->JobTimelineString().c_str());
    ArtifactCacheStats cache = service->cache().stats();
    std::printf(
        "cache: hits=%lld misses=%lld stores=%lld evictions=%lld "
        "quarantined=%lld\n",
        static_cast<long long>(cache.hits),
        static_cast<long long>(cache.misses),
        static_cast<long long>(cache.stores),
        static_cast<long long>(cache.evictions),
        static_cast<long long>(cache.quarantined));
    std::printf("%s", service->cache().ManifestSummary().c_str());
  }
  std::string failpoints = FailpointRegistry::Global().Summary();
  if (!failpoints.empty()) {
    std::printf("\n== active failpoints (DISC_FAILPOINTS) ==\n%s",
                failpoints.c_str());
  }
  if (with_metrics) {
    std::printf("\n== metrics registry ==\n%s",
                MetricsRegistry::Global().ToString().c_str());
  }
}

bool WriteTrace(const std::string& path) {
  TraceSession& session = TraceSession::Global();
  session.Disable();
  if (Failed(session.WriteJson(path), "writing the trace")) return false;
  std::printf(
      "\nwrote %zu trace events to %s (load in chrome://tracing or "
      "ui.perfetto.dev)\n",
      session.num_events(), path.c_str());
  return true;
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  using namespace disc;
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (!flags.trace_path.empty()) TraceSession::Global().Enable();
  int rc = 0;
  std::unique_ptr<CompileService> service;
  if (flags.decode) {
    rc = RunDecode();
  } else {
    if (flags.model.empty()) {
      flags.model = flags.serve ? "seq2seq-step" : "softmax";
    }
    auto workload = BuildWorkload(flags.model);
    if (!workload.ok()) {
      std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
      return 2;
    }
    // Introspection artifacts are written only by a real compile, so a
    // dump request disables the introspection cache (a disk restore would
    // silently skip the dump). --serve compiles its dump directly and
    // starts its own cache cold, so its engine's job compiles and stores.
    CompileServiceOptions service_options;
    if (!flags.no_compile_cache && (flags.serve || flags.dump_dir.empty())) {
      service_options.cache.dir =
          flags.serve ? "disc_explain.serve.cache" : flags.cache_dir;
      if (flags.serve) std::filesystem::remove_all(service_options.cache.dir);
    }
    service = std::make_unique<CompileService>(service_options);
    rc = flags.serve ? RunServe(flags, *workload, service.get())
                     : RunIntrospection(flags, *workload, service.get());
  }
  PrintEpilogue(service.get(), flags.serve || flags.decode);
  if (!flags.trace_path.empty() && !WriteTrace(flags.trace_path)) rc = 1;
  return rc;
}
