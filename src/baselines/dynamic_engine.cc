#include "baselines/dynamic_engine.h"

#include <algorithm>
#include <utility>

#include "runtime/launch_plan.h"
#include "support/blame.h"
#include "support/flight_recorder.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace disc {

namespace {
// Probe fodder: how many recently served bindings the engine retains for
// the shadow validator (deduped again inside BuildProbes).
constexpr size_t kMaxRecentObserved = 8;

bool IsDataLoss(const Result<RunResult>& run) {
  return !run.ok() && run.status().code() == StatusCode::kDataLoss;
}

Status NothingInstalled() {
  return Status::FailedPrecondition(
      "no executable installed and no fallback engine");
}

// A Run's cost as the engine reports it. A replayed plan skips the
// per-query host shape program; only the signature lookup (and any
// per-launch dispatch) remains. `stall_us` is the compile wait charged to
// this query (service mode's sync_compile; 0 otherwise).
EngineTiming TimingOf(const DynamicProfile& profile, const RunProfile& run,
                      double stall_us) {
  EngineTiming timing;
  timing.device_us = run.device_time_us;
  timing.kernel_launches = run.kernel_launches + run.library_calls;
  timing.bytes_moved = run.bytes_read + run.bytes_written;
  timing.peak_memory_bytes = run.peak_memory_bytes;
  double per_query_host = run.launch_plan_hit ? profile.plan_hit_host_us
                                              : profile.per_query_host_us;
  timing.host_us = per_query_host +
                   profile.per_launch_host_us *
                       static_cast<double>(timing.kernel_launches);
  timing.alloc_us =
      profile.per_alloc_host_us * static_cast<double>(run.alloc_calls);
  timing.compile_us = stall_us;
  timing.total_us =
      timing.device_us + timing.host_us + timing.alloc_us + stall_us;
  return timing;
}
}  // namespace

DynamicProfile DynamicProfile::Disc() {
  DynamicProfile profile;
  profile.name = "DISC";
  profile.compile_options = CompileOptions::Default();
  profile.per_query_host_us = 1.0;   // host-side shape program (int math)
  profile.per_launch_host_us = 0.0;
  return profile;
}

DynamicProfile DynamicProfile::DiscWithSpeculation() {
  DynamicProfile profile = Disc();
  profile.name = "DISC+spec";
  profile.feedback_after = 8;
  return profile;
}

DynamicProfile DynamicProfile::DiscArena() {
  DynamicProfile profile = Disc();
  profile.name = "DISC+arena";
  profile.memory_mode = MemoryMode::kArena;
  return profile;
}

DynamicProfile DynamicProfile::TorchInductorDynamic() {
  DynamicProfile profile;
  profile.name = "TorchInductor";
  CompileOptions options;
  options.fusion.enable_stitch = false;  // Triton fusion without stitching
  options.specialize.enable_specialization = false;  // one kernel per graph
  profile.compile_options = options;
  profile.per_query_host_us = 40.0;  // Python guard re-evaluation per call
  profile.per_launch_host_us = 1.5;  // Python-side launcher per kernel
  profile.use_plan_cache = false;    // guards are re-checked every call
  return profile;
}

DynamicCompilerEngine::DynamicCompilerEngine(DynamicProfile profile)
    : name_(profile.name) {
  options_.profile = std::move(profile);
}

DynamicCompilerEngine::DynamicCompilerEngine(CompileService* service,
                                             std::unique_ptr<Engine> fallback,
                                             AsyncEngineOptions options)
    : service_(service),
      fallback_(std::move(fallback)),
      options_(std::move(options)),
      name_(options_.profile.name +
            (options_.sync_compile ? "-sync" : "-async")) {}

Status DynamicCompilerEngine::Prepare(
    const Graph& graph, std::vector<std::vector<std::string>> labels) {
  DISC_RETURN_IF_ERROR(PrepareCommon(graph, labels));
  if (fallback_ != nullptr) {
    DISC_RETURN_IF_ERROR(fallback_->Prepare(graph, std::move(labels)));
  }
  ShapeProfileOptions feedback_options = options_.feedback;
  if (options_.profile.feedback_after > 0) {
    feedback_options.min_observations = options_.profile.feedback_after;
  }
  feedback_ = ShapeProfileFeedback(feedback_options);
  // In service mode nothing is waiting on this yet — a foreground miss
  // (first Query before the job lands) re-announces itself at miss
  // priority.
  return Compile(JobPriority::kPrefetch, {});
}

Status DynamicCompilerEngine::Compile(JobPriority priority,
                                      LikelyDimValues hints) {
  CompileOptions options = options_.profile.compile_options;
  if (!hints.empty()) options.specialize.enable_specialization = true;
  // Hints arrive most-frequent-last (AddLikelyValue keeps most-recent last
  // and speculation takes values from the back).
  for (auto& hint : hints) options.likely_dim_values.push_back(std::move(hint));
  const bool has_hints = !options.likely_dim_values.empty();

  if (service_ == nullptr) {
    DISC_ASSIGN_OR_RETURN(std::unique_ptr<Executable> compiled,
                          DiscCompiler::Compile(*graph_, labels_, options));
    CompileJobOutcome outcome;
    outcome.executable = std::move(compiled);
    AdoptNow(outcome, has_hints);
    return Status::OK();
  }

  CompileJobRequest request;
  request.model_name = graph_->name();
  request.graph = graph_.get();
  request.labels = labels_;
  request.options = std::move(options);
  request.priority = priority;
  // Quarantine refusal: a poisoned CacheKey must never be recompiled — not
  // in this process and not after a warm restart. The engine keeps serving
  // on the fallback leg instead (the operator clears the quarantine).
  CacheKey key = CacheKey::Make(*graph_, request.labels, request.options);
  if (service_->cache().IsPoisoned(key)) {
    ++poisoned_skips_;
    CountMetric("engine.poisoned_skip");
    pending_has_hints_ = false;
    return Status::OK();
  }
  pending_has_hints_ = has_hints;
  pending_submit_sim_us_ = sim_now_us_;
  pending_job_ = service_->Submit(std::move(request));
  return Status::OK();
}

Status DynamicCompilerEngine::Respecialize(
    const std::vector<std::vector<int64_t>>& input_dims) {
  feedback_.Observe(labels_, input_dims);
  return RespecializeIfConfident();
}

Status DynamicCompilerEngine::RespecializeIfConfident() {
  // Profile feedback: watch the traffic; when the hot-value profile is
  // confident (or has shifted), compile with the hot values as hints. The
  // profile keeps watching afterwards, so a shifted distribution
  // respecializes again. One pending job at a time — the profile keeps
  // aggregating meanwhile (a pending shadow validation counts as pending
  // work: its candidate must resolve before the next respecialization
  // makes sense).
  if (pending_job_.valid() || pending_validation_.valid() ||
      !slot_.has_executable()) {
    return Status::OK();
  }
  std::optional<LikelyDimValues> hints = feedback_.MaybeRespecialize();
  if (!hints.has_value()) return Status::OK();
  return Compile(JobPriority::kRespecialize, std::move(*hints));
}

Status DynamicCompilerEngine::NoteKernelRegret(
    const std::vector<std::vector<int64_t>>& input_dims, double regret_us) {
  if (options_.profile.feedback_after <= 0 || regret_us <= 0.0) {
    return Status::OK();
  }
  // The sighting counts regret_observation_weight observations, and no
  // more: the query that saw it was observed on its own path.
  feedback_.NoteRegret(labels_, input_dims, regret_us);
  // The per-query path: adopt any finished job first, then re-evaluate the
  // armed profile (regret bypasses the recheck cadence inside the
  // feedback).
  MaybeAdopt(false, nullptr);
  return RespecializeIfConfident();
}

void DynamicCompilerEngine::MaybeAdopt(bool sync_wait,
                                       double* waited_gate_us) {
  // A validation in flight resolves first — it may install its candidate
  // (pass) or reject it (caught) before the next compile outcome lands.
  MaybeResolveValidation(sync_wait);
  if (!pending_job_.valid()) return;

  const double gate_compile = options_.simulated_compile_latency_us;
  const double gate_load = options_.simulated_cache_load_latency_us;
  const CompileJobOutcome* outcome = nullptr;
  double charged_gate = 0.0;

  if (sync_wait) {
    // Blocking mode: resolve now and charge the full simulated latency of
    // whatever the job turned out to be (compile vs disk restore) as a
    // stall on the caller's query.
    outcome = &pending_job_.Wait();
    charged_gate = outcome->from_disk_cache
                       ? std::max(0.0, gate_load)
                       : std::max(0.0, gate_compile);
  } else if (gate_compile < 0.0) {
    // Opportunistic: adopt the moment the worker is done.
    outcome = pending_job_.TryGet();
  } else {
    // Deterministic: past the earliest possible gate the outcome decides
    // which gate actually applies. Wait() may block on the wall clock (the
    // worker is slower than its simulated deadline) — charged to no query,
    // exactly like the fallback chain's fixed compile_stall_us.
    if (sim_now_us_ >=
        pending_submit_sim_us_ + std::min(gate_compile, gate_load)) {
      const CompileJobOutcome& o = pending_job_.Wait();
      double gate = o.from_disk_cache ? gate_load : gate_compile;
      if (sim_now_us_ >= pending_submit_sim_us_ + gate) outcome = &o;
    }
  }
  if (outcome == nullptr) return;

  if (waited_gate_us != nullptr) *waited_gate_us = charged_gate;
  bool had_hints = pending_has_hints_;
  CompileJobOutcome adopted = *outcome;  // copy before dropping the handle
  pending_job_ = CompileJobHandle();
  pending_has_hints_ = false;
  if (!adopted.status.ok() || adopted.executable == nullptr) {
    // Failed/cancelled/expired job: keep serving on whatever we have (the
    // fallback leg or the previous executable). A later miss resubmits.
    return;
  }

  if (options_.validate_adoptions) {
    // Admission gate: the candidate is NOT installed yet. It replays the
    // probe set against the incumbent (or reference evaluator) on a
    // low-priority worker first; installation happens when the validation
    // resolves with a pass.
    StartValidation(std::move(adopted), had_hints);
    if (sync_wait) MaybeResolveValidation(true);
    return;
  }
  AdoptNow(adopted, had_hints);
}

void DynamicCompilerEngine::AdoptNow(const CompileJobOutcome& adopted,
                                     bool had_hints) {
  // Hot-swap: the outgoing executable's launch plans encode its own buffer
  // sizes and variants; Swap clears them. Service mode keeps the outgoing
  // executable as the rollback generation for a later kDataLoss. Inline
  // mode never rolls back (RunInstalled hands its kDataLoss to the
  // caller), so the outgoing executable and its pooled Run buffer go now.
  const bool keep_history = service_ != nullptr;
  slot_.Swap(adopted.executable, keep_history);
  if (keep_history) previous_key_ = std::exchange(current_key_, adopted.key);
  CountMetric("engine.hot_swap");
  if (adopted.from_disk_cache) {
    ++disk_restores_;
  } else {
    CountCompilation(adopted.executable->report().compile_ms);
  }
  // CUDA-graph captures are per-executable state, like launch plans.
  captured_signatures_.clear();
  if (first_executable_sim_us_ < 0.0) {
    first_executable_sim_us_ = sim_now_us_;
  }
  if (had_hints && first_specialized_sim_us_ < 0.0) {
    first_specialized_sim_us_ = sim_now_us_;
  }
}

void DynamicCompilerEngine::StartValidation(CompileJobOutcome adopted,
                                            bool had_hints) {
  ShadowValidator validator(options_.validation);
  std::vector<std::vector<std::vector<int64_t>>> observed(
      recent_observed_dims_.begin(), recent_observed_dims_.end());
  LikelyDimValues hot = feedback_.TopValues(3);
  std::vector<std::string> outlier_signatures;
  for (const FlightRecord& record : FlightRecorder::Global().Snapshot()) {
    outlier_signatures.push_back(record.signature);
  }
  std::vector<ProbeBinding> probes = validator.BuildProbes(
      *adopted.executable, labels_, observed, hot, outlier_signatures);

  // Everything the worker touches is captured by value / shared ownership
  // so the task stays safe even if the engine dies while it is queued.
  std::shared_ptr<const Executable> candidate = adopted.executable;
  std::shared_ptr<const Executable> incumbent = slot_.Acquire();
  std::shared_ptr<const Graph> reference_graph = graph_->Clone();
  auto report = std::make_shared<ValidationReport>();
  std::string model = graph_->name();
  std::string key_id = adopted.key.ToId();

  validation_candidate_ = std::move(adopted);
  validation_had_hints_ = had_hints;
  validation_submit_sim_us_ = sim_now_us_;
  validation_inflight_report_ = report;
  CountMetric("engine.validation.submitted");
  pending_validation_ = service_->SubmitTask(
      model + ":shadow-validate", JobPriority::kValidate,
      [validator, candidate, incumbent, reference_graph, probes, report,
       model, key_id]() {
        *report = validator.Validate(*candidate, incumbent.get(),
                                     *reference_graph, probes, model, key_id);
        CompileJobOutcome outcome;
        if (!report->passed) {
          outcome.status =
              Status::DataLoss("shadow validation caught candidate: " +
                               report->Summary());
        }
        return outcome;
      });
}

void DynamicCompilerEngine::MaybeResolveValidation(bool sync_wait) {
  if (!pending_validation_.valid()) return;

  const double gate = std::max(0.0, options_.simulated_validation_latency_us);
  const CompileJobOutcome* done = nullptr;
  if (sync_wait) {
    done = &pending_validation_.Wait();
  } else if (options_.simulated_compile_latency_us < 0.0) {
    done = pending_validation_.TryGet();
  } else if (sim_now_us_ >= validation_submit_sim_us_ + gate) {
    // Deterministic mode: same charge-free Wait as the compile gate.
    done = &pending_validation_.Wait();
  }
  if (done == nullptr) return;

  Status task_status = done->status;  // copy before dropping the handle
  pending_validation_ = CompileJobHandle();
  ++validations_run_;
  CountMetric("engine.validation.run");
  std::shared_ptr<ValidationReport> report =
      std::move(validation_inflight_report_);
  CompileJobOutcome candidate = std::move(validation_candidate_);
  validation_candidate_ = CompileJobOutcome();
  bool had_hints = validation_had_hints_;
  validation_had_hints_ = false;
  if (report != nullptr) last_validation_report_ = report;

  if (report != nullptr && report->passed && task_status.ok()) {
    AdoptNow(candidate, had_hints);
    return;
  }
  // Caught: the incumbent keeps serving, and the candidate's key goes to
  // the persisted quarantine so neither this process nor a warm restart
  // re-adopts the artifact.
  ++validations_caught_;
  CountMetric("engine.validation.caught");
  std::string reason =
      report != nullptr ? report->Summary() : task_status.ToString();
  Status poison = service_->cache().Poison(
      candidate.key, "shadow validation: " + reason);
  if (!poison.ok()) {
    DISC_LOG(Warning) << "poison failed for " << candidate.key.ToId() << ": "
                      << poison.ToString();
  }
  DISC_LOG(Warning) << "admission gate rejected " << candidate.key.ToId()
                    << ": " << reason;
}

void DynamicCompilerEngine::NoteServed(
    std::vector<std::vector<int64_t>> input_dims) {
  recent_observed_dims_.push_back(std::move(input_dims));
  while (recent_observed_dims_.size() > kMaxRecentObserved) {
    recent_observed_dims_.pop_front();
  }
}

template <typename RunFn>
Result<RunResult> DynamicCompilerEngine::RunInstalled(
    std::shared_ptr<const Executable>* exe, const RunFn& run) {
  Result<RunResult> result = run(**exe);
  if (service_ == nullptr || !IsDataLoss(result)) return result;
  // The installed executable is provably bad at this binding (guard
  // violation / corruption). Poison it, roll back to the previous
  // generation, and retry there; no previous generation (or the previous
  // one is bad too) means the fallback leg serves it.
  OnDataLoss(result.status());
  *exe = slot_.Acquire();
  if (*exe == nullptr) return result;
  result = run(**exe);
  if (IsDataLoss(result)) {
    OnDataLoss(result.status());
    *exe = nullptr;
  }
  return result;
}

void DynamicCompilerEngine::OnDataLoss(const Status& status) {
  ++data_loss_events_;
  CountMetric("engine.data_loss");
  TraceScope rollback_scope(name_, "engine.rollback");
  if (rollback_scope.active()) {
    rollback_scope.AddArg("reason", status.message());
  }
  if (current_key_.has_value()) {
    Status poison = service_->cache().Poison(
        *current_key_, "runtime data loss: " + status.message());
    if (!poison.ok()) {
      DISC_LOG(Warning) << "poison failed for " << current_key_->ToId()
                        << ": " << poison.ToString();
    }
  }
  if (slot_.Rollback()) {
    CountMetric("engine.rollback");
    current_key_ = std::exchange(previous_key_, std::nullopt);
  } else {
    // Nothing to roll back to: empty the slot entirely (retaining the bad
    // executable as rollback history would defeat the quarantine) and let
    // the fallback leg serve.
    slot_.Clear();
    current_key_.reset();
    previous_key_.reset();
    CountMetric("engine.slot_clear");
  }
  // Plan caches were cleared by the slot; CUDA-graph captures are
  // per-executable state too.
  captured_signatures_.clear();
  DISC_LOG(Warning) << name_ << ": data loss while serving — "
                    << status.message();
}

Result<EngineTiming> DynamicCompilerEngine::Query(
    const std::vector<std::vector<int64_t>>& input_dims,
    const DeviceSpec& device) {
  if (graph_ == nullptr) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  TraceScope query_scope(name_, "engine.query");
  if (query_scope.active()) {
    query_scope.AddArg("trace_id",
                       std::to_string(RequestContext::CurrentTraceId()));
  }
  CountQuery();
  if (options_.validate_adoptions) NoteServed(input_dims);

  double stall_us = 0.0;
  MaybeAdopt(options_.sync_compile && !slot_.has_executable(), &stall_us);
  if (options_.profile.feedback_after > 0) {
    DISC_RETURN_IF_ERROR(Respecialize(input_dims));
  }

  std::shared_ptr<const Executable> exe = slot_.Acquire();
  // Not compiled yet: degrade to the fallback leg, never block. Announce
  // the miss at foreground priority if the service job vanished (failed or
  // cancelled) so the next swap still arrives — unless a shadow validation
  // is already deciding a candidate's fate. Inline mode never retries a
  // failed Prepare.
  if (exe == nullptr && service_ != nullptr && !pending_job_.valid() &&
      !pending_validation_.valid()) {
    DISC_RETURN_IF_ERROR(Compile(JobPriority::kForegroundMiss, {}));
  }
  auto serve_fallback = [&]() -> Result<EngineTiming> {
    if (fallback_ == nullptr) return NothingInstalled();
    DISC_ASSIGN_OR_RETURN(EngineTiming timing,
                          fallback_->Query(input_dims, device));
    ++stats_.fallback_queries;
    CountMetric("engine.fallback.queries");
    timing.compile_us += stall_us;
    timing.total_us += stall_us;
    return timing;
  };
  if (exe == nullptr) return serve_fallback();

  RunOptions options;
  options.device = device;
  options.use_launch_plan_cache = options_.profile.use_plan_cache;
  options.memory_mode = options_.profile.memory_mode;
  options.memory_limit_bytes = options_.profile.memory_limit_bytes;
  if (options_.profile.use_cuda_graph) {
    // CUDA-graph capture keys on the same input dims as the launch-plan
    // cache (spelled as their ShapeSignature): replay only an
    // already-captured signature; capture this one for next time
    // (capture itself runs at normal launch cost).
    options.batch_launches =
        !captured_signatures_.insert(ShapeSignature(input_dims)).second;
  }
  Result<RunResult> run =
      RunInstalled(&exe, [&](const Executable& installed) {
        return installed.RunWithShapes(input_dims, options);
      });
  if (exe == nullptr) return serve_fallback();
  if (!run.ok()) return run.status();
  const RunProfile& profile = run->profile;
  if (options_.profile.use_plan_cache) {
    CountPlanLookup(profile.launch_plan_hit);
  }
  if (query_scope.active()) {
    query_scope.AddArg("plan", profile.launch_plan_hit ? "hit" : "miss");
  }
  return TimingOf(options_.profile, profile, stall_us);
}

Result<std::vector<Tensor>> DynamicCompilerEngine::Execute(
    const std::vector<Tensor>& inputs) {
  if (graph_ == nullptr) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  if (options_.validate_adoptions) {
    std::vector<std::vector<int64_t>> input_dims;
    input_dims.reserve(inputs.size());
    for (const Tensor& t : inputs) input_dims.push_back(t.dims());
    NoteServed(std::move(input_dims));
  }
  MaybeAdopt(options_.sync_compile && !slot_.has_executable(), nullptr);
  std::shared_ptr<const Executable> exe = slot_.Acquire();
  if (exe != nullptr) {
    Result<RunResult> run =
        RunInstalled(&exe, [&](const Executable& installed) {
          return installed.Run(inputs);
        });
    if (exe != nullptr) {
      if (!run.ok()) return run.status();
      return std::move(run->outputs);
    }
  }
  if (fallback_ == nullptr) return NothingInstalled();
  ++stats_.fallback_queries;
  CountMetric("engine.fallback.queries");
  return fallback_->Execute(inputs);
}

Result<int64_t> DynamicCompilerEngine::PredictPeakBytes(
    const std::vector<std::vector<int64_t>>& input_dims) {
  if (graph_ == nullptr) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  // Whatever serves the next Query answers: the installed executable's
  // peak formula, or the fallback leg while nothing is installed.
  std::shared_ptr<const Executable> exe = slot_.Acquire();
  if (exe == nullptr) {
    if (fallback_ == nullptr) return NothingInstalled();
    return fallback_->PredictPeakBytes(input_dims);
  }
  DISC_ASSIGN_OR_RETURN(int64_t predicted, exe->PredictPeakBytes(input_dims));
  CountMemoryPrediction(predicted);
  return predicted;
}

void DynamicCompilerEngine::SetSimulatedTimeUs(double now_us) {
  sim_now_us_ = now_us;
  if (fallback_ != nullptr) fallback_->SetSimulatedTimeUs(now_us);
}

}  // namespace disc
