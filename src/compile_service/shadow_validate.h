// ShadowValidator: differential admission gate for candidate executables.
//
// Every executable the system adopts — a foreground compile, a
// profile-guided respecialization, a PersistentArtifactCache warm load —
// is today one Swap() away from serving traffic. A miscompiled kernel or
// an unsound guard in that candidate silently serves wrong tensors; the
// paper's multi-version codegen argument assumes guard soundness at every
// runtime binding. The validator makes adoption conditional on evidence:
//
//   1. Assemble a probe set of input-shape bindings from what traffic
//      actually does: the engine's recently observed shapes, the
//      ShapeProfileFeedback histogram's hot values, flight-recorder
//      outlier signatures, padded with guard-boundary bindings derived
//      from each kernel variant's predicates (operand-1/operand/operand+1
//      around every DivisibleBy/LessEqual/... threshold — exactly where a
//      wrong guard flips).
//   2. Replay each probe through the candidate AND a reference — the
//      incumbent executable when one exists (bitwise comparison: a
//      respecialization must not change numerics), else the IR reference
//      evaluator (tolerance comparison).
//   3. Re-evaluate every kernel's variant selection at each probe binding
//      and assert the selected variant's guard actually admits it.
//
// The gate runs as a low-priority CompileService task (JobPriority::
// kValidate) so serving threads never block on it, and emits a
// deterministic ValidationReport (validation_report.json) for CI to parse.
// A failed validation keeps the incumbent serving, and the caller poisons
// the candidate's CacheKey in the artifact cache's persisted quarantine
// list so neither this process nor a warm restart re-adopts it.
#ifndef DISC_COMPILE_SERVICE_SHADOW_VALIDATE_H_
#define DISC_COMPILE_SERVICE_SHADOW_VALIDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "compile_service/profile_feedback.h"
#include "runtime/executable.h"
#include "support/json.h"

namespace disc {

struct ShadowValidateOptions {
  /// Probe-set size cap. Guard-boundary probes get a reserved share so a
  /// long observed-shape history cannot crowd out the bindings most likely
  /// to expose a wrong guard.
  int max_probes = 12;
  /// Comparison vs the reference evaluator. It runs the original graph,
  /// which opt passes may have reassociated, so bitwise equality is not
  /// expected there.
  double rtol = 1e-4;
  double atol = 1e-5;
  /// Candidate vs incumbent executables run the same kernels-on-CPU mode,
  /// so their outputs must agree bit-for-bit; set false to compare with
  /// rtol/atol instead (e.g. when options change numerics intentionally).
  bool bitwise_vs_incumbent = true;
  /// Seed for deterministic probe-input synthesis.
  uint64_t input_seed = 0x5eed;
  bool include_guard_boundaries = true;
};

/// One input-shape binding to replay, tagged with where it came from.
struct ProbeBinding {
  std::vector<std::vector<int64_t>> input_dims;
  /// "observed" | "profile" | "outlier" | "boundary".
  std::string source;
};

/// Per-probe result row of the report.
struct ProbeOutcome {
  std::string signature;  // ShapeSignature of the probe
  std::string source;
  /// "match" | "divergence" | "guard-violation" | "error" | "unbindable".
  std::string outcome;
  std::string detail;
};

/// Deterministic validation verdict; serialized as validation_report.json.
struct ValidationReport {
  std::string model;
  std::string key_id;
  /// "incumbent" | "reference-evaluator".
  std::string reference;
  bool passed = true;
  int64_t probes = 0;  // probes actually replayed (unbindable excluded)
  int64_t divergences = 0;
  int64_t guard_violations = 0;
  int64_t probe_errors = 0;
  std::vector<ProbeOutcome> outcomes;

  const char* verdict() const { return passed ? "pass" : "caught"; }
  JsonValue ToJson() const;
  Status WriteJsonFile(const std::string& path) const;
  /// One greppable line: "validation=pass probes=N ...".
  std::string Summary() const;
};

class ShadowValidator {
 public:
  explicit ShadowValidator(ShadowValidateOptions options = {})
      : options_(options) {}

  /// \brief Assembles the probe set for `candidate`. `labels` is the
  /// engine's per-input per-dim label list (parallel to graph inputs);
  /// `observed_dims` are recently served bindings (most recent last);
  /// `profile_hot_values` comes from ShapeProfileFeedback::TopValues();
  /// `outlier_signatures` are flight-recorder ShapeSignatures. Guard
  /// boundaries are derived from the candidate's own variant predicates.
  /// Deduplicated by signature, capped at max_probes with a reserved
  /// share for boundary probes.
  std::vector<ProbeBinding> BuildProbes(
      const Executable& candidate,
      const std::vector<std::vector<std::string>>& labels,
      const std::vector<std::vector<std::vector<int64_t>>>& observed_dims,
      const LikelyDimValues& profile_hot_values,
      const std::vector<std::string>& outlier_signatures) const;

  /// \brief Replays `probes` through candidate and reference and renders
  /// the verdict. `incumbent` null = compare against the IR reference
  /// evaluator over `reference_graph` (the engine's unoptimized clone).
  /// Never returns an error for a *caught* candidate — a bad candidate is
  /// a passed=false report; errors are reserved for misuse (no graph).
  ValidationReport Validate(const Executable& candidate,
                            const Executable* incumbent,
                            const Graph& reference_graph,
                            const std::vector<ProbeBinding>& probes,
                            const std::string& model_name,
                            const std::string& key_id) const;

  const ShadowValidateOptions& options() const { return options_; }

 private:
  ShadowValidateOptions options_;
};

}  // namespace disc

#endif  // DISC_COMPILE_SERVICE_SHADOW_VALIDATE_H_
