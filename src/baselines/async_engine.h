// AsyncCompileEngine: serves through the background CompileService.
//
// The deployment-shaped DISC engine. Prepare never compiles on the caller:
// it consults the persistent artifact cache (via a service job) and starts
// serving immediately. Queries that arrive before the executable is ready
// route through the fallback engine (interpreter leg — slower per query,
// zero stall); once the service finishes, the executable is hot-swapped in
// atomically and later queries run compiled. Profile feedback keeps
// watching observed dims and submits background respecialization jobs, so
// the installed executable follows the traffic.
//
// Determinism: compiled-vs-ready is a wall-clock race, useless for gated
// benchmarks. With `simulated_compile_latency_us >= 0` adoption is gated
// on the *simulated* clock instead — the executable is adopted at
// submit_sim_time + latency (disk restores at + cache_load latency),
// independent of real worker speed (we Wait on the wall clock if the
// worker is slower than its simulated deadline, charging no query). The
// same pattern as the fallback chain's fixed compile_stall_us. The
// default -1 adopts as soon as the worker finishes (production mode).
#ifndef DISC_BASELINES_ASYNC_ENGINE_H_
#define DISC_BASELINES_ASYNC_ENGINE_H_

#include <deque>
#include <memory>
#include <set>
#include <string>

#include "baselines/dynamic_engine.h"
#include "baselines/engine.h"
#include "compile_service/compile_service.h"
#include "compile_service/profile_feedback.h"
#include "compile_service/shadow_validate.h"

namespace disc {

struct AsyncEngineOptions {
  /// Compile options, per-query host costs and memory settings (mode and
  /// limit) of the compiled path.
  DynamicProfile profile = DynamicProfile::Disc();
  /// Shape-profile feedback (active when profile.feedback_after > 0, which
  /// overrides min_observations).
  ShapeProfileOptions feedback;
  /// Old blocking behavior for comparison (F10's "sync" column): the first
  /// query waits for the service job and is charged the full compile (or
  /// cache-load) latency as a stall.
  bool sync_compile = false;
  /// >= 0: adopt the compiled executable once the simulated clock passes
  /// submit + this many us (deterministic). < 0: adopt when the worker
  /// finishes (wall clock).
  double simulated_compile_latency_us = -1.0;
  /// Adoption latency when the job was restored from the persistent cache
  /// instead of compiled. Only meaningful with
  /// simulated_compile_latency_us >= 0.
  double simulated_cache_load_latency_us = 0.0;
  /// Differential admission gate: every candidate executable (compile,
  /// respecialization, or disk restore) is shadow-validated off-thread
  /// before Swap() may install it. A caught candidate is rejected and its
  /// CacheKey poisoned in the persistent quarantine. Off by default — the
  /// gate adds one validation job per adoption and delays installs by
  /// `simulated_validation_latency_us`, which perturbs adoption-time
  /// baselines (F10) that predate it.
  bool validate_adoptions = false;
  ShadowValidateOptions validation;
  /// Simulated-clock delay between validation submit and adoption (the
  /// off-thread probe-replay time). Only meaningful with
  /// simulated_compile_latency_us >= 0; the serving thread is never
  /// charged.
  double simulated_validation_latency_us = 0.0;
};

class AsyncCompileEngine : public Engine {
 public:
  /// `service` outlives the engine and is shared across engines (one
  /// worker pool per process). `fallback` serves while nothing is
  /// compiled; it must compute identical math (any Engine does).
  AsyncCompileEngine(CompileService* service, std::unique_ptr<Engine> fallback,
                     AsyncEngineOptions options = {});

  const std::string& name() const override { return name_; }

  /// \brief Submits the initial compile job (a prefetch — nothing is
  /// waiting yet) and returns without blocking. With sync_compile the job
  /// is still submitted here but awaited on the first query.
  Status Prepare(const Graph& graph,
                 std::vector<std::vector<std::string>> labels) override;

  Result<EngineTiming> Query(const std::vector<std::vector<int64_t>>& input_dims,
                             const DeviceSpec& device) override;

  Result<std::vector<Tensor>> Execute(
      const std::vector<Tensor>& inputs) override;

  /// \brief The installed executable's symbolic peak formula for this
  /// signature, or the fallback engine's prediction while none is
  /// installed.
  Result<int64_t> PredictPeakBytes(
      const std::vector<std::vector<int64_t>>& input_dims) override;

  void SetSimulatedTimeUs(double now_us) override;

  /// Simulated time at which the first executable (any) / the first
  /// hint-specialized executable was adopted; -1 = not yet. F10's
  /// time-to-first-specialized-kernel.
  double first_executable_sim_us() const { return first_executable_sim_us_; }
  double first_specialized_sim_us() const { return first_specialized_sim_us_; }
  int64_t swaps() const { return slot_.generation(); }
  int64_t disk_restores() const { return disk_restores_; }
  const ExecutableSlot& slot() const { return slot_; }
  ShapeProfileFeedback& feedback() { return feedback_; }

  /// Admission-gate observability. `last_validation_report` is null until
  /// the first validation resolves; it reflects the most recent one (pass
  /// or caught).
  int64_t validations_run() const { return validations_run_; }
  int64_t validations_caught() const { return validations_caught_; }
  int64_t rollbacks() const { return slot_.rollbacks(); }
  /// Runtime kDataLoss events (guard violations / corruption detected
  /// while serving) — each triggers poison + rollback (or slot clear).
  int64_t data_loss_events() const { return data_loss_events_; }
  /// Compile submissions refused because the CacheKey is quarantined.
  int64_t poisoned_skips() const { return poisoned_skips_; }
  const ValidationReport* last_validation_report() const {
    return last_validation_report_ ? last_validation_report_.get() : nullptr;
  }

 private:
  /// Submits a compile job carrying `hints` (empty = plain compile).
  /// Refuses (counting poisoned_skips_) when the resulting CacheKey is
  /// quarantined — a warm restart must never recompile a poisoned key.
  void SubmitJob(JobPriority priority, LikelyDimValues hints);
  /// Adopts a finished job if its simulated-clock gate has passed.
  /// `waited_gate_us` (nullable) receives the stall charged when called on
  /// the sync path. With validate_adoptions the finished job is handed to
  /// StartValidation instead of being installed directly.
  void MaybeAdopt(bool sync_wait, double* waited_gate_us);
  /// Installs a validated (or validation-exempt) candidate: Swap + swap
  /// bookkeeping + adopted-key tracking.
  void AdoptNow(const CompileJobOutcome& adopted, bool had_hints);
  /// Submits the kValidate shadow job for `adopted` (probe build happens
  /// on the serving thread — cheap; replay happens on the worker).
  void StartValidation(CompileJobOutcome adopted, bool had_hints);
  /// Resolves a finished validation job: adopt on pass, poison + reject on
  /// caught.
  void MaybeResolveValidation(bool sync_wait);
  /// kDataLoss while serving: poison the installed key, roll back to the
  /// previous generation (or clear the slot when there is none).
  void OnDataLoss(const Status& status);

  CompileService* service_;
  std::unique_ptr<Engine> fallback_;
  AsyncEngineOptions options_;
  std::string name_;

  ExecutableSlot slot_;
  CompileJobHandle pending_job_;
  double pending_submit_sim_us_ = 0.0;
  bool pending_has_hints_ = false;
  double sim_now_us_ = 0.0;

  /// In-flight shadow validation (at most one, like pending_job_).
  CompileJobHandle pending_validation_;
  CompileJobOutcome validation_candidate_;
  bool validation_had_hints_ = false;
  double validation_submit_sim_us_ = 0.0;
  /// Written by the worker task before it finishes; read only after the
  /// job resolves (the handle's done-latch orders the accesses).
  std::shared_ptr<ValidationReport> validation_inflight_report_;
  std::shared_ptr<ValidationReport> last_validation_report_;

  /// CacheKeys of the installed / previous-generation executables, so a
  /// runtime kDataLoss can poison the offending artifact.
  CacheKey current_key_;
  CacheKey previous_key_;
  bool has_current_key_ = false;
  bool has_previous_key_ = false;

  /// Recently served bindings (most recent last), probe fodder for the
  /// validator. Bounded; only maintained when validate_adoptions is on.
  std::deque<std::vector<std::vector<int64_t>>> recent_observed_dims_;

  ShapeProfileFeedback feedback_;
  double first_executable_sim_us_ = -1.0;
  double first_specialized_sim_us_ = -1.0;
  int64_t disk_restores_ = 0;
  int64_t validations_run_ = 0;
  int64_t validations_caught_ = 0;
  int64_t data_loss_events_ = 0;
  int64_t poisoned_skips_ = 0;
  std::set<std::string> captured_signatures_;
};

}  // namespace disc

#endif  // DISC_BASELINES_ASYNC_ENGINE_H_
