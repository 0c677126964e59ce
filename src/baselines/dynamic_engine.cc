#include "baselines/dynamic_engine.h"

#include <algorithm>

#include "runtime/launch_plan.h"
#include "support/blame.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace disc {

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

Status DynamicCompilerEngine::Prepare(
    const Graph& graph, std::vector<std::vector<std::string>> labels) {
  DISC_RETURN_IF_ERROR(PrepareCommon(graph, labels));
  DISC_ASSIGN_OR_RETURN(
      std::unique_ptr<Executable> compiled,
      DiscCompiler::Compile(graph, std::move(labels),
                            profile_.compile_options));
  executable_ = std::shared_ptr<const Executable>(std::move(compiled));
  CountCompilation(executable_->report().compile_ms);
  if (profile_.feedback_after > 0) {
    ShapeProfileOptions feedback_options;
    feedback_options.min_observations = profile_.feedback_after;
    feedback_ = ShapeProfileFeedback(feedback_options);
  }
  return Status::OK();
}

Result<EngineTiming> DynamicCompilerEngine::Query(
    const std::vector<std::vector<int64_t>>& input_dims,
    const DeviceSpec& device) {
  if (executable_ == nullptr) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  TraceScope query_scope(profile_.name, "engine.query");
  CountQuery();

  // Shape-speculation feedback: aggregate observed dim values per label
  // and respecialize with the hot values as hints — through the compile
  // service when one is attached (truly off the query thread), else
  // synchronously in place. The profile keeps watching afterwards, so a
  // shifted hot-value distribution respecializes again.
  if (profile_.feedback_after > 0) {
    DISC_RETURN_IF_ERROR(MaybeRespecialize(input_dims));
  }

  RunOptions options;
  options.device = device;
  options.use_launch_plan_cache = profile_.use_plan_cache;
  options.memory_mode = profile_.memory_mode;
  options.memory_limit_bytes = profile_.memory_limit_bytes;
  if (profile_.use_cuda_graph) {
    // CUDA-graph capture keys on the same input dims as the launch-plan
    // cache (spelled as their ShapeSignature): replay only an
    // already-captured signature; capture this one for next time
    // (capture itself runs at normal launch cost).
    options.batch_launches =
        !captured_signatures_.insert(ShapeSignature(input_dims)).second;
  }
  DISC_ASSIGN_OR_RETURN(RunResult result,
                        executable_->RunWithShapes(input_dims, options));
  if (profile_.use_plan_cache) {
    CountPlanLookup(result.profile.launch_plan_hit);
  }
  EngineTiming timing;
  timing.device_us = result.profile.device_time_us;
  timing.kernel_launches =
      result.profile.kernel_launches + result.profile.library_calls;
  timing.bytes_moved =
      result.profile.bytes_read + result.profile.bytes_written;
  timing.peak_memory_bytes = result.profile.peak_memory_bytes;
  // A replayed plan skips the per-query host shape program; only the
  // signature lookup (and any per-launch dispatch) remains.
  double per_query_host = result.profile.launch_plan_hit
                              ? profile_.plan_hit_host_us
                              : profile_.per_query_host_us;
  timing.host_us = per_query_host +
                   profile_.per_launch_host_us *
                       static_cast<double>(timing.kernel_launches);
  timing.alloc_us = profile_.per_alloc_host_us *
                    static_cast<double>(result.profile.alloc_calls);
  timing.total_us = timing.device_us + timing.host_us + timing.alloc_us;
  if (query_scope.active()) {
    query_scope.AddArg("trace_id",
                       std::to_string(RequestContext::CurrentTraceId()));
    query_scope.AddArg("plan", result.profile.launch_plan_hit ? "hit"
                                                              : "miss");
  }
  return timing;
}

Status DynamicCompilerEngine::MaybeRespecialize(
    const std::vector<std::vector<int64_t>>& input_dims) {
  // Adopt a finished background respecialization before anything else, so
  // this query already runs on the better kernels.
  if (pending_job_.valid()) {
    if (const CompileJobOutcome* done = pending_job_.TryGet()) {
      CompileJobOutcome outcome = *done;
      pending_job_ = CompileJobHandle();
      if (outcome.status.ok() && outcome.executable != nullptr) {
        // Hot-swap: the outgoing executable's launch plans encode its own
        // buffer sizes/variants and must not survive it.
        if (executable_ != nullptr) executable_->ClearPlanCache();
        executable_ = std::move(outcome.executable);
        captured_signatures_.clear();
        if (!outcome.from_disk_cache) {
          CountCompilation(executable_->report().compile_ms);
        }
      }
      // A failed job keeps the current executable; the profile re-emits on
      // the next shift.
    }
  }

  feedback_.Observe(labels_, input_dims);
  if (pending_job_.valid()) return Status::OK();  // one job at a time
  auto hints = feedback_.MaybeRespecialize();
  if (!hints.has_value()) return Status::OK();

  if (service_ != nullptr && !profile_.sync_compile_fallback) {
    CompileJobRequest request;
    request.model_name = graph_->name();
    request.graph = graph_.get();
    request.labels = labels_;
    request.options = profile_.compile_options;
    // A hint set exists to mint speculative variants; leaving a
    // no-specialization base config in place would silently discard it.
    request.options.specialize.enable_specialization = true;
    request.options.likely_dim_values = std::move(*hints);
    request.priority = JobPriority::kRespecialize;
    pending_job_ = service_->Submit(std::move(request));
    return Status::OK();
  }
  return RecompileWithFeedback(*hints);
}

Status DynamicCompilerEngine::NoteKernelRegret(
    const std::vector<std::vector<int64_t>>& input_dims, double regret_us) {
  if (profile_.feedback_after <= 0 || regret_us <= 0.0) return Status::OK();
  feedback_.NoteRegret(labels_, input_dims, regret_us);
  // Reuse the per-query path: it adopts any finished background job first,
  // then re-evaluates the armed profile (regret bypasses the recheck
  // cadence inside the feedback) and routes the recompile sync or async.
  return MaybeRespecialize(input_dims);
}

Status DynamicCompilerEngine::RecompileWithFeedback(
    const LikelyDimValues& hints) {
  CompileOptions options = profile_.compile_options;
  // Same override as the service path: hints are a request for speculative
  // variants, so respecialization always compiles with specialization on.
  options.specialize.enable_specialization = true;
  // Hints arrive most-frequent-last (AddLikelyValue keeps most-recent last
  // and speculation takes values from the back).
  for (const auto& hint : hints) options.likely_dim_values.push_back(hint);
  DISC_ASSIGN_OR_RETURN(std::unique_ptr<Executable> compiled,
                        DiscCompiler::Compile(*graph_, labels_, options));
  executable_ = std::shared_ptr<const Executable>(std::move(compiled));
  captured_signatures_.clear();
  CountCompilation(executable_->report().compile_ms);
  return Status::OK();
}

Result<int64_t> DynamicCompilerEngine::PredictPeakBytes(
    const std::vector<std::vector<int64_t>>& input_dims) {
  if (executable_ == nullptr) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  DISC_ASSIGN_OR_RETURN(int64_t predicted,
                        executable_->PredictPeakBytes(input_dims));
  CountMemoryPrediction(predicted);
  return predicted;
}

Result<std::vector<Tensor>> DynamicCompilerEngine::Execute(
    const std::vector<Tensor>& inputs) {
  if (executable_ == nullptr) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  DISC_ASSIGN_OR_RETURN(RunResult result, executable_->Run(inputs));
  return result.outputs;
}

}  // namespace disc
