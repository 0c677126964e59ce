// Dynamic-shape compiler engines: DISC (the paper's system) and a Torch
// Inductor (dynamic-shapes mode) archetype.
//
// Both compile once ahead of time and serve any shape. They differ in the
// compiler configuration and the per-query host cost:
//   * DISC: full pipeline (symbolic fusion incl. kStitch, multi-version
//     specialization), negligible host cost — launch-dim computation is a
//     handful of integer expressions.
//   * Inductor-dynamic: fusion without stitching, single generic variant
//     per kernel, plus a per-query guard-evaluation overhead (Python-side
//     guards re-checked on every call) — the overheads the paper measures
//     on Inductor's dynamic mode.
//
// One engine serves both archetypes in two modes. The installed executable
// lives in an ExecutableSlot either way:
//   * inline (built from a DynamicProfile): Prepare and profile-feedback
//     respecialization compile on the caller, so the query that trips the
//     feedback already runs on the new executable. The displaced one is
//     released at once: inline mode never rolls back.
//   * service (built with a CompileService and a fallback engine): the
//     deployment shape. Prepare never compiles on the caller: it submits a
//     prefetch job (the service consults its persistent artifact cache)
//     and serving starts at once. Queries that arrive before an executable
//     is installed route through the fallback engine (slower per query,
//     zero stall); a finished job is hot-swapped in on a later query, and
//     respecialization jobs run on the service's workers.
//
// Determinism (service mode): compiled-vs-ready is a wall-clock race,
// useless for gated benchmarks. With `simulated_compile_latency_us >= 0`
// adoption is gated on the *simulated* clock instead — the executable is
// adopted at submit_sim_time + latency (disk restores at + cache_load
// latency), independent of real worker speed (we Wait on the wall clock if
// the worker is slower than its simulated deadline, charging no query).
// The same pattern as the fallback chain's fixed compile_stall_us. The
// default -1 adopts as soon as the worker finishes (production mode).
#ifndef DISC_BASELINES_DYNAMIC_ENGINE_H_
#define DISC_BASELINES_DYNAMIC_ENGINE_H_

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "baselines/engine.h"
#include "compile_service/compile_service.h"
#include "compile_service/profile_feedback.h"
#include "compile_service/shadow_validate.h"
#include "compiler/compiler.h"

namespace disc {

struct DynamicProfile {
  std::string name = "DISC";
  CompileOptions compile_options;
  /// Host cost per query (guard re-evaluation etc.) when the launch plan
  /// must be built — i.e. on a plan-cache miss or with the cache disabled.
  double per_query_host_us = 1.0;
  /// Host cost per query when a memoized launch plan is replayed: the
  /// symbol solve / guard eval / buffer planning is skipped, leaving a
  /// signature hash lookup.
  double plan_hit_host_us = 0.1;
  /// Additional host cost per kernel launch.
  double per_launch_host_us = 0.0;
  /// Host cost per device-allocator call, reported separately as
  /// EngineTiming::alloc_us so the serving ledger can blame allocator
  /// traffic. Default 0 keeps every committed baseline byte-stable; the
  /// F12 blame bench prices it to make the alloc phase visible (arena-mode
  /// runs then show it collapsing to one call).
  double per_alloc_host_us = 0.0;
  /// Memoize launch plans per shape signature in the Executable (off for
  /// archetypes that re-check guards on every call, e.g. Inductor).
  bool use_plan_cache = true;
  /// When > 0: after this many queries, feed the observed dim-value
  /// frequencies back into a recompilation so hot shapes get exact-shape
  /// speculative kernels (BladeDISC's shape speculation). The feedback is
  /// continuous: a later shift of the hot-value profile triggers a fresh
  /// respecialization.
  int64_t feedback_after = 0;
  /// CUDA-Graph capture: repeated shape signatures replay a captured graph,
  /// paying the driver launch latency once per query. Shape-static by
  /// nature — a fresh signature always takes the normal launch path.
  bool use_cuda_graph = false;
  /// Memory-planning strategy per Run (see RunOptions::memory_mode). The
  /// default keeps the caching allocator so existing gated baselines stay
  /// byte-stable; DiscArena() opts into the single-allocation arena.
  MemoryMode memory_mode = MemoryMode::kCachingAllocator;
  /// Device-memory capacity forwarded to every Run (0 = unlimited).
  int64_t memory_limit_bytes = 0;

  static DynamicProfile Disc();
  /// DISC with runtime shape-speculation feedback enabled.
  static DynamicProfile DiscWithSpeculation();
  /// DISC running on the symbolic arena plan: one allocator call per Run,
  /// footprint predictable before execution.
  static DynamicProfile DiscArena();
  static DynamicProfile TorchInductorDynamic();
};

/// Service-mode configuration. Inline mode uses only `profile` (and
/// `feedback`, left at its defaults).
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

class DynamicCompilerEngine : public Engine {
 public:
  /// Inline mode: compiles on the caller, no fallback engine.
  explicit DynamicCompilerEngine(DynamicProfile profile);
  /// Service mode. `service` outlives the engine and is shared across
  /// engines (one worker pool per process). `fallback` (optional) serves
  /// while nothing is installed; it must compute identical math (any
  /// Engine does).
  DynamicCompilerEngine(CompileService* service,
                        std::unique_ptr<Engine> fallback,
                        AsyncEngineOptions options = {});

  const std::string& name() const override { return name_; }

  /// \brief Inline mode compiles and installs the executable. Service mode
  /// submits the initial compile job (a prefetch — nothing is waiting yet)
  /// and returns without blocking; with sync_compile the job is awaited on
  /// the first query.
  Status Prepare(const Graph& graph,
                 std::vector<std::vector<std::string>> labels) override;

  Result<EngineTiming> Query(const std::vector<std::vector<int64_t>>& input_dims,
                             const DeviceSpec& device) override;

  /// \brief Numeric execution through the installed executable (not the
  /// reference evaluator) — exercises the real kernels.
  Result<std::vector<Tensor>> Execute(
      const std::vector<Tensor>& inputs) override;

  /// \brief The installed executable's symbolic peak formula for this
  /// signature (memoized launch plans answer without size arithmetic), or
  /// the fallback engine's prediction while none is installed.
  Result<int64_t> PredictPeakBytes(
      const std::vector<std::vector<int64_t>>& input_dims) override;

  void SetSimulatedTimeUs(double now_us) override;

  /// The installed executable; null until one is installed.
  std::shared_ptr<const Executable> executable() const {
    return slot_.Acquire();
  }
  /// Hint sets acted on so far; at least 1 after the first feedback
  /// application, more after profile shifts.
  int64_t respecializations() const { return feedback_.respecializations(); }
  /// Observations in the shape profile: one per query, and
  /// regret_observation_weight per NoteKernelRegret sighting.
  int64_t profile_observations() const { return feedback_.observations(); }

  /// \brief Kernel-observatory back-channel: the regret audit proved the
  /// compiled variant choice at `input_dims` is leaving device time on the
  /// table. Feeds the shape into the profile with regret weighting and
  /// immediately takes the respecialization step (inline compile or
  /// service job). No-op unless the profile enables feedback.
  Status NoteKernelRegret(const std::vector<std::vector<int64_t>>& input_dims,
                          double regret_us);

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
  /// The one compile: the profile's options with `hints` appended. A hint
  /// set exists to mint speculative variants, so hints force
  /// specialization on (a no-specialization base config would silently
  /// discard them). Inline mode compiles on the caller and installs the
  /// result; service mode submits a job with `priority`, refused
  /// (counting poisoned_skips_) when its CacheKey is quarantined — a warm
  /// restart must never recompile a poisoned key.
  Status Compile(JobPriority priority, LikelyDimValues hints);
  /// Observes `input_dims` in the shape profile (feedback on), then
  /// RespecializeIfConfident.
  Status Respecialize(const std::vector<std::vector<int64_t>>& input_dims);
  /// When no job or validation is pending and an executable is installed,
  /// compiles with the hot values once the profile is confident or has
  /// shifted.
  Status RespecializeIfConfident();
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
  /// Retains `input_dims` as probe fodder for the shadow validator (only
  /// with validate_adoptions).
  void NoteServed(std::vector<std::vector<int64_t>> input_dims);
  /// Runs `run` on the installed executable `*exe`. In service mode a
  /// kDataLoss poisons the installed key and rolls back (or clears) the
  /// slot, then retries once on what is left; `*exe` comes back null when
  /// nothing is left and the fallback must serve. Inline mode returns the
  /// error to the caller.
  template <typename RunFn>
  Result<RunResult> RunInstalled(std::shared_ptr<const Executable>* exe,
                                 const RunFn& run);
  /// kDataLoss while serving: poison the installed key, roll back to the
  /// previous generation (or clear the slot when there is none).
  void OnDataLoss(const Status& status);

  CompileService* service_ = nullptr;
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
  /// runtime kDataLoss can poison the offending artifact (service mode
  /// only: inline mode keeps neither keys nor a previous generation).
  std::optional<CacheKey> current_key_;
  std::optional<CacheKey> previous_key_;

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
  // Shape signatures with a captured CUDA graph.
  std::set<std::string> captured_signatures_;
};

}  // namespace disc

#endif  // DISC_BASELINES_DYNAMIC_ENGINE_H_
