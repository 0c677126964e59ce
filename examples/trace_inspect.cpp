// End-to-end observability demo: captures one Chrome-trace JSON covering
// every layer of the system —
//   * compile-phase spans (graph passes, shape analysis, fusion, kernels),
//   * per-run runtime spans (plan build vs. replay, kernel launches,
//     library calls, host shape ops) with plan-cache hit/miss annotations,
//   * serving per-request spans on the simulated clock (batch formation,
//     queue wait, execution),
// then prints the per-phase compile breakdown and the global metrics
// registry. Load the output in chrome://tracing or https://ui.perfetto.dev.
//
//   $ ./build/examples/trace_inspect [out.trace.json] [--dump-dir=<dir>]
//                                    [--no-compile-cache] [--blame]
//                                    [--validation] [--decode]
//
// --dump-dir additionally writes the compilation-introspection artifacts
// (IR snapshots per pass, pipeline_summary.json, shape_constraints.json,
// fusion_decisions.json) next to the trace — the per-pass times in
// pipeline_summary.json are joined from the very trace being captured.
// --no-compile-cache runs the async-compile-service section without a
// persistent artifact cache (every job compiles, nothing is stored).
// --blame enables the shape-aware flight recorder, aggregates every
// completed request's phase ledger into a p99 tail-blame report (printed +
// exported as blame_report.json), re-parses the export and verifies the
// blame shares sum to 1.0 — the CI trace-smoke step greps the
// "blame_report=ok" line this prints.
// --validation turns on the differential admission gate for the async
// compile section: the compiled candidate is shadow-validated against the
// reference evaluator before the hot swap, and the deterministic verdict
// is exported as validation_report.json (re-parsed here; the CI
// trace-smoke step greps the "validation_report=ok" line).
// --decode switches to a decode-only capture: a synthetic decode trace
// replays through the continuous-batching scheduler on the compiled GPT
// step-batch model, the per-step timeline is dumped as
// decode_timeline.json, and the printed timeline is re-parsed from that
// very dump (the same reader disc_explain --decode uses). With
// DISC_FAILPOINTS arming runtime.alloc, memory pressure must surface as
// preemptions — not failures — which the CI chaos-smoke step greps from
// the "decode_timeline=ok" line alongside accounting=ok.
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "baselines/baselines.h"
#include "baselines/dynamic_engine.h"
#include "baselines/fallback_chain.h"
#include "baselines/interpreter_engine.h"
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
#include "support/trace.h"

using namespace disc;

// --decode: decode-only capture. The step spans, per-sequence ledger
// phases (including decode_wait), and KV-pool metrics all land in the
// same Chrome trace; the printed timeline round-trips through the
// decode_timeline.json dump so the reader the other tools use is
// exercised on a freshly written file.
static int RunDecodeDemo(const char* out_path) {
  TraceSession& session = TraceSession::Global();
  ModelConfig config;
  config.hidden = 32;
  config.trace_length = 4;
  Model model = BuildGptStepBatch(config);
  DynamicCompilerEngine engine(DynamicProfile::Disc());
  if (!engine.Prepare(*model.graph, model.input_dim_labels).ok()) {
    std::fprintf(stderr, "decode engine setup failed\n");
    return 1;
  }
  DecodeOptions options;
  options.max_batch = 8;
  options.kv.capacity_blocks = 96;
  options.kv.block_tokens = 16;
  options.kv.bytes_per_token = 2 * config.hidden * sizeof(float);
  auto requests = SyntheticDecodeStream(48, 40.0, 11);
  auto stats = SimulateDecode(&engine, GptStepBatchShapeFn(config.hidden),
                              requests, options, DeviceSpec::A10());
  if (!stats.ok()) {
    std::fprintf(stderr, "decode replay failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  const char* timeline_path = "decode_timeline.json";
  Status wrote = stats->WriteTimelineJson(timeline_path);
  if (!wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
    return 1;
  }
  // Print from the dump, not from the in-memory stats: what this renders
  // is exactly what a later `disc_explain --decode` will see.
  auto text = ReadFileToString(timeline_path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  auto rendered = FormatDecodeTimelineJson(*text);
  if (!rendered.ok()) {
    std::fprintf(stderr, "decode_timeline=invalid: %s\n",
                 rendered.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", rendered->c_str());
  std::printf("\nserving view: %s\n", stats->ToString().c_str());

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

  session.Disable();
  Status written = session.WriteJson(out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %zu trace events to %s\n", session.num_events(),
              out_path);
  std::string failpoints = FailpointRegistry::Global().Summary();
  if (!failpoints.empty()) {
    std::printf("\n== active failpoints (DISC_FAILPOINTS) ==\n%s",
                failpoints.c_str());
  }
  std::printf("\n== metrics registry ==\n%s",
              MetricsRegistry::Global().ToString().c_str());
  return accounting_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  const char* out_path = "trace_inspect.trace.json";
  std::string dump_dir;
  bool no_compile_cache = false;
  bool blame = false;
  bool validation = false;
  bool decode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dump-dir=", 11) == 0) {
      dump_dir = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--no-compile-cache") == 0) {
      no_compile_cache = true;
    } else if (std::strcmp(argv[i], "--blame") == 0) {
      blame = true;
    } else if (std::strcmp(argv[i], "--validation") == 0) {
      validation = true;
    } else if (std::strcmp(argv[i], "--decode") == 0) {
      decode = true;
    } else {
      out_path = argv[i];
    }
  }
  TraceSession& session = TraceSession::Global();
  session.Enable();
  if (decode) return RunDecodeDemo(out_path);
  TailBlameAggregator blame_aggregator;
  if (blame) {
    FlightRecorder::Global().Enable();
    // Kernel ledger alongside the flight recorder: an outlier's trace id
    // joins to the per-kernel breakdown of the Run that served it.
    KernelProfileLedger::Global().Clear();
    KernelProfileLedger::Global().Enable();
  }

  // 1. Compile a dynamic-shape model: emits one span per pipeline phase
  // and per graph pass.
  ModelConfig config;
  Model model = BuildSeq2SeqStep(config);
  CompileOptions options;
  options.dump.dir = dump_dir;
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels,
                                   options);
  if (!exe.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 exe.status().ToString().c_str());
    return 1;
  }
  std::printf("compiled '%s': %s\n", model.name.c_str(),
              (*exe)->report().ToString().c_str());
  std::printf("per-phase breakdown:\n%s\n",
              (*exe)->report().PhaseBreakdown().c_str());
  if (!dump_dir.empty()) {
    std::printf("compilation artifacts dumped to %s/\n", dump_dir.c_str());
  }

  // 2. Replay a shape trace through the executable: the first run of each
  // signature builds its launch plan (plan=miss spans), repeats replay the
  // memoized plan (plan=hit) — both visible per run in the trace.
  int64_t run_failures = 0;
  for (const ShapeSet& shapes : model.trace) {
    auto r = (*exe)->RunWithShapes(shapes);
    if (!r.ok()) {
      // The raw executable has no fallback leg — under an armed
      // DISC_FAILPOINTS schedule these fail loudly but the demo keeps
      // going so the serving/breaker sections below stay reachable.
      if (++run_failures == 1) {
        std::fprintf(stderr, "run failed: %s\n",
                     r.status().ToString().c_str());
      }
    }
  }
  auto cache_stats = (*exe)->plan_cache_stats();
  std::printf("replayed %zu-query shape trace: %lld plan hits, %lld misses",
              model.trace.size(), static_cast<long long>(cache_stats.hits),
              static_cast<long long>(cache_stats.misses));
  if (run_failures > 0) {
    std::printf(" (%lld runs failed via injected faults)",
                static_cast<long long>(run_failures));
  }
  std::printf("\n");

  // 3. Serve a synthetic request stream: per-request spans (batch
  // formation -> queue wait -> execution) land on the simulated-clock
  // timeline, plus queue-depth and padding-waste histograms. Serving runs
  // through the DISC->interpreter fallback chain — fault-free it is a
  // pass-through, and with DISC_FAILPOINTS armed the degraded route and
  // breaker transitions land in the same trace (categories "failpoint"
  // and "serving.breaker").
  EngineFallbackChain chain(
      std::make_unique<DynamicCompilerEngine>(DynamicProfile::Disc()),
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()));
  if (!chain.Prepare(*model.graph, model.input_dim_labels).ok()) {
    std::fprintf(stderr, "engine setup failed\n");
    return 1;
  }
  Engine* engine_ptr = &chain;
  auto shape_fn = [&](int64_t batch, int64_t seq) {
    std::vector<std::vector<int64_t>> dims;
    for (const Value* in : model.graph->inputs()) {
      std::vector<int64_t> d = in->type().dims;
      // Bind the model's dynamic dims to the padded batch geometry.
      for (size_t i = 0; i < d.size(); ++i) {
        if (d[i] != kDynamicDim) continue;
        d[i] = i == 0 ? batch : seq;
      }
      dims.push_back(std::move(d));
    }
    return dims;
  };
  auto requests = SyntheticRequestStream(64, 25.0, 7);
  BatcherOptions batcher;
  auto stats = SimulateServing(engine_ptr, shape_fn, requests, batcher,
                               DeviceSpec::A10());
  if (!stats.ok()) {
    std::fprintf(stderr, "serving failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
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

  // 4. Serve the same stream through the DISC engine in service mode (a
  // CompileService and an interpreter fallback): Prepare submits a
  // prefetch job and returns immediately, early requests degrade to the
  // interpreter leg, and the compiled executable is hot-swapped in when
  // its job lands. With the artifact cache enabled (default; disable
  // via --no-compile-cache) the compiled artifact is persisted and a
  // re-run of this demo restores it from disk instead of compiling. The
  // job timeline below shows submit -> start -> finish per job with its
  // priority and cache verdict; the manifest summary lists what is on
  // disk. Service failpoints (compile_service.worker,
  // compile_service.cache.load|store) respect DISC_FAILPOINTS like every
  // other layer: a worker fault fails the job while the fallback leg keeps
  // serving, a store fault loses only persistence.
  CompileServiceOptions service_options;
  if (!no_compile_cache) {
    service_options.cache.dir = "trace_inspect.cache";
    std::filesystem::remove_all(service_options.cache.dir);
  }
  CompileService service(service_options);
  AsyncEngineOptions async_options;
  async_options.validate_adoptions = validation;
  DynamicCompilerEngine async_engine(
      &service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      async_options);
  if (!async_engine.Prepare(*model.graph, model.input_dim_labels).ok()) {
    std::fprintf(stderr, "async engine setup failed\n");
    return 1;
  }
  auto async_stats = SimulateServing(&async_engine, shape_fn, requests,
                                     batcher, DeviceSpec::A10());
  if (!async_stats.ok()) {
    std::fprintf(stderr, "async serving failed: %s\n",
                 async_stats.status().ToString().c_str());
    return 1;
  }
  service.Drain();
  std::printf("\nasync-served %zu requests: %s\n", requests.size(),
              async_stats->ToString().c_str());
  blame_aggregator.AddAll(async_stats->completed_requests);
  // A second wave after the job landed: the hot-swapped executable serves
  // it compiled (degraded=0).
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

  // Admission-gate report (--validation): the candidate was
  // shadow-validated before the swap above; export the deterministic
  // verdict and re-parse it — what CI's trace-smoke step asserts.
  if (validation) {
    // The gate resolves opportunistically on the serving path (production
    // mode has no simulated clock to gate on): drain the service so the
    // low-priority validation task has finished, then one more query
    // adopts — or rejects — the candidate.
    service.Drain();
    async_engine.Query(shape_fn(8, 32), DeviceSpec::A10());
    const ValidationReport* vreport = async_engine.last_validation_report();
    if (vreport == nullptr) {
      std::fprintf(stderr, "validation_report=missing: the admission gate "
                           "never resolved a candidate\n");
      return 1;
    }
    const char* vreport_path = "validation_report.json";
    Status vwrote = vreport->WriteJsonFile(vreport_path);
    if (!vwrote.ok()) {
      std::fprintf(stderr, "%s\n", vwrote.ToString().c_str());
      return 1;
    }
    std::printf("\n== admission gate ==\n%s\n", vreport->Summary().c_str());
    std::printf("validation_report=ok verdict=%s probes=%lld "
                "validations_run=%lld caught=%lld path=%s\n",
                vreport->verdict(), static_cast<long long>(vreport->probes),
                static_cast<long long>(async_engine.validations_run()),
                static_cast<long long>(async_engine.validations_caught()),
                vreport_path);
  }
  std::printf("\n== compile service ==\n%s",
              service.JobTimelineString().c_str());
  ArtifactCacheStats cache_stats_svc = service.cache().stats();
  std::printf(
      "cache: hits=%lld misses=%lld stores=%lld evictions=%lld "
      "quarantined=%lld\n",
      static_cast<long long>(cache_stats_svc.hits),
      static_cast<long long>(cache_stats_svc.misses),
      static_cast<long long>(cache_stats_svc.stores),
      static_cast<long long>(cache_stats_svc.evictions),
      static_cast<long long>(cache_stats_svc.quarantined));
  std::printf("%s", service.cache().ManifestSummary().c_str());

  // 5. Tail-blame report (--blame): decompose p99 latency into the phase
  // ledger's causal segments, export blame_report.json through the
  // deterministic JSON writer, then re-parse the file and verify the
  // shares sum to 1.0 — what CI's trace-smoke step asserts.
  if (blame) {
    BlameReport report = blame_aggregator.Compute(99.0);
    std::printf("\n== tail-latency blame (p%.0f over %lld requests) ==\n%s",
                report.tail_percentile,
                static_cast<long long>(report.total_requests),
                report.ToString().c_str());
    const char* report_path = "blame_report.json";
    Status wrote = report.WriteJsonFile(report_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
    auto text = ReadFileToString(report_path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
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
      for (const auto& run : runs) {
        std::printf("    %s\n", run.ToString().c_str());
      }
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
    // executables, which die when this scope unwinds.
    kernel_ledger.Disable();
    kernel_ledger.Clear();
  }

  // 6. Export + metrics dump.
  session.Disable();
  Status written = session.WriteJson(out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf(
      "\nwrote %zu trace events to %s (load in chrome://tracing or "
      "ui.perfetto.dev)\n",
      session.num_events(), out_path);
  std::string failpoints = FailpointRegistry::Global().Summary();
  if (!failpoints.empty()) {
    std::printf("\n== active failpoints (DISC_FAILPOINTS) ==\n%s",
                failpoints.c_str());
  }
  std::printf("\n== metrics registry ==\n%s",
              MetricsRegistry::Global().ToString().c_str());
  return 0;
}
