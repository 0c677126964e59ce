#include "compile_service/shadow_validate.h"

#include <algorithm>
#include <set>

#include "ir/eval.h"
#include "support/artifact_dump.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace disc {
namespace {

/// Deterministic probe inputs: uniform f32 in [-1, 1), zeros for integral
/// dtypes (always in range for gather indices / select predicates). Seeded
/// per probe so every validation of the same probe set sees identical data.
std::vector<Tensor> SynthesizeInputs(
    const Graph& graph, const std::vector<std::vector<int64_t>>& input_dims,
    uint64_t seed) {
  std::vector<Tensor> inputs;
  inputs.reserve(input_dims.size());
  Rng rng(seed);
  for (size_t i = 0; i < input_dims.size() && i < graph.inputs().size();
       ++i) {
    Tensor t(graph.inputs()[i]->dtype(), input_dims[i]);
    if (t.dtype() == DType::kF32) {
      float* data = t.f32_data();
      for (int64_t e = 0; e < t.num_elements(); ++e) {
        data[e] = rng.Uniform(-1.0f, 1.0f);
      }
    }
    // Integral dtypes stay zero-initialized.
    inputs.push_back(std::move(t));
  }
  return inputs;
}

/// Dims of every labeled dimension substituted with `value` where the
/// label matches. Returns false when the label appears nowhere.
bool SubstituteLabel(const std::vector<std::vector<std::string>>& labels,
                     const std::string& label, int64_t value,
                     std::vector<std::vector<int64_t>>* dims) {
  bool found = false;
  for (size_t i = 0; i < labels.size() && i < dims->size(); ++i) {
    for (size_t d = 0; d < labels[i].size() && d < (*dims)[i].size(); ++d) {
      if (!labels[i][d].empty() && labels[i][d] == label) {
        (*dims)[i][d] = value;
        found = true;
      }
    }
  }
  return found;
}

}  // namespace

JsonValue ValidationReport::ToJson() const {
  JsonValue::Object o;
  o["model"] = JsonValue(model);
  o["key_id"] = JsonValue(key_id);
  o["reference"] = JsonValue(reference);
  o["verdict"] = JsonValue(std::string(verdict()));
  o["passed"] = JsonValue(passed);
  o["probes"] = JsonValue(probes);
  o["divergences"] = JsonValue(divergences);
  o["guard_violations"] = JsonValue(guard_violations);
  o["probe_errors"] = JsonValue(probe_errors);
  JsonValue::Array rows;
  for (const ProbeOutcome& po : outcomes) {
    JsonValue::Object row;
    row["signature"] = JsonValue(po.signature);
    row["source"] = JsonValue(po.source);
    row["outcome"] = JsonValue(po.outcome);
    row["detail"] = JsonValue(po.detail);
    rows.push_back(JsonValue(std::move(row)));
  }
  o["probe_outcomes"] = JsonValue(std::move(rows));
  return JsonValue(std::move(o));
}

Status ValidationReport::WriteJsonFile(const std::string& path) const {
  return WriteStringToFile(path, ToJson().SerializePretty());
}

std::string ValidationReport::Summary() const {
  return StrFormat(
      "validation=%s probes=%lld divergences=%lld guard_violations=%lld "
      "probe_errors=%lld reference=%s",
      verdict(), static_cast<long long>(probes),
      static_cast<long long>(divergences),
      static_cast<long long>(guard_violations),
      static_cast<long long>(probe_errors), reference.c_str());
}

std::vector<ProbeBinding> ShadowValidator::BuildProbes(
    const Executable& candidate,
    const std::vector<std::vector<std::string>>& labels,
    const std::vector<std::vector<std::vector<int64_t>>>& observed_dims,
    const LikelyDimValues& profile_hot_values,
    const std::vector<std::string>& outlier_signatures) const {
  std::vector<ProbeBinding> regular;   // observed / profile / outlier
  std::vector<ProbeBinding> boundary;  // guard-boundary bindings
  std::set<std::string> seen;
  auto add = [&](std::vector<std::vector<int64_t>> dims,
                 const char* source, std::vector<ProbeBinding>* into) {
    std::string signature = ShapeSignature(dims);
    if (!seen.insert(signature).second) return;
    into->push_back(ProbeBinding{std::move(dims), source});
  };

  // Observed bindings, most recent first (the shapes traffic takes right
  // now are the ones a wrong candidate would corrupt first).
  for (auto it = observed_dims.rbegin(); it != observed_dims.rend(); ++it) {
    add(*it, "observed", &regular);
  }
  // Base shape for substitution probes: the most recent observed binding.
  const std::vector<std::vector<int64_t>>* base =
      observed_dims.empty() ? nullptr : &observed_dims.back();

  if (base != nullptr) {
    // Histogram hot values: one probe per (label, value).
    for (const auto& [label, values] : profile_hot_values) {
      for (int64_t value : values) {
        if (value < 1) continue;
        std::vector<std::vector<int64_t>> dims = *base;
        if (SubstituteLabel(labels, label, value, &dims)) {
          add(std::move(dims), "profile", &regular);
        }
      }
    }
  }

  // Flight-recorder outliers: signatures of the requests that behaved
  // strangely in production — exactly the bindings worth re-checking.
  for (const std::string& signature : outlier_signatures) {
    auto dims = ParseShapeSignature(signature);
    if (dims.ok() && dims->size() == labels.size()) {
      add(std::move(*dims), "outlier", &regular);
    }
  }

  if (base != nullptr && options_.include_guard_boundaries) {
    // Guard boundaries: every variant predicate's threshold +/- 1. A wrong
    // guard flips exactly at these values, so each labeled dim gets probed
    // there. Collected sorted for determinism.
    std::set<int64_t> thresholds;
    for (const auto& kernel : candidate.kernels()) {
      for (const KernelVariant& variant : kernel->variants()) {
        for (const DimPredicate& predicate : variant.guard.predicates) {
          for (int64_t delta : {-1, 0, 1}) {
            int64_t v = predicate.operand + delta;
            if (v >= 1) thresholds.insert(v);
          }
        }
      }
    }
    std::set<std::string> distinct_labels;
    for (const auto& per_input : labels) {
      for (const std::string& label : per_input) {
        if (!label.empty()) distinct_labels.insert(label);
      }
    }
    for (const std::string& label : distinct_labels) {
      for (int64_t value : thresholds) {
        std::vector<std::vector<int64_t>> dims = *base;
        if (SubstituteLabel(labels, label, value, &dims)) {
          add(std::move(dims), "boundary", &boundary);
        }
      }
    }
  }

  // Cap: boundary probes keep a reserved half so observation history can
  // never crowd out the bindings most likely to expose a wrong guard.
  size_t cap = static_cast<size_t>(std::max(1, options_.max_probes));
  size_t boundary_quota = std::min(boundary.size(), cap / 2);
  size_t regular_quota = std::min(regular.size(), cap - boundary_quota);
  // Unused regular slots go back to boundaries.
  boundary_quota = std::min(boundary.size(), cap - regular_quota);

  std::vector<ProbeBinding> probes;
  probes.reserve(regular_quota + boundary_quota);
  for (size_t i = 0; i < regular_quota; ++i) {
    probes.push_back(std::move(regular[i]));
  }
  for (size_t i = 0; i < boundary_quota; ++i) {
    probes.push_back(std::move(boundary[i]));
  }
  return probes;
}

ValidationReport ShadowValidator::Validate(
    const Executable& candidate, const Executable* incumbent,
    const Graph& reference_graph, const std::vector<ProbeBinding>& probes,
    const std::string& model_name, const std::string& key_id) const {
  TraceScope scope("shadow-validate", "compile_service");
  scope.AddArg("model", model_name);
  scope.AddArg("probes", std::to_string(probes.size()));

  ValidationReport report;
  report.model = model_name;
  report.key_id = key_id;
  report.reference =
      incumbent != nullptr ? "incumbent" : "reference-evaluator";

  RunOptions run_options;
  // Probe runs must not warm or skew the candidate's launch-plan cache
  // stats; validation is observational until the swap.
  run_options.use_launch_plan_cache = false;

  uint64_t probe_seed = options_.input_seed;
  for (const ProbeBinding& probe : probes) {
    ++probe_seed;
    ProbeOutcome row;
    row.signature = ShapeSignature(probe.input_dims);
    row.source = probe.source;

    // 1. Bind. Substituted probes can violate the model's shape
    // constraints (e.g. a boundary value breaking a divisibility the
    // graph requires); those are skipped, not held against the candidate.
    auto bindings = candidate.analysis().BindInputs(probe.input_dims);
    if (!bindings.ok()) {
      row.outcome = "unbindable";
      row.detail = bindings.status().ToString();
      report.outcomes.push_back(std::move(row));
      continue;
    }
    ++report.probes;

    // 2. Guard admissibility: the variant the candidate would dispatch at
    // this binding must be admitted by its own guard.
    bool guard_ok = true;
    for (const auto& kernel : candidate.kernels()) {
      auto index = kernel->SelectVariantIndex(*bindings);
      if (!index.ok()) {
        guard_ok = false;
        row.detail = kernel->name() + ": " + index.status().ToString();
        break;
      }
      const Guard& guard = kernel->variants()[*index].guard;
      auto admitted = guard.Evaluate(*bindings);
      if (!admitted.ok() || !*admitted) {
        guard_ok = false;
        row.detail = StrFormat(
            "kernel %s dispatched variant %d ('%s') whose guard rejects "
            "this binding",
            kernel->name().c_str(), *index,
            kernel->variants()[*index].name.c_str());
        break;
      }
    }
    if (!guard_ok) {
      row.outcome = "guard-violation";
      ++report.guard_violations;
      report.passed = false;
      report.outcomes.push_back(std::move(row));
      continue;
    }

    // 3. Differential replay.
    std::vector<Tensor> inputs =
        SynthesizeInputs(reference_graph, probe.input_dims, probe_seed);
    auto candidate_run = candidate.Run(inputs, run_options);
    if (!candidate_run.ok()) {
      // kDataLoss from the runtime's own guard verification is the same
      // catch, surfaced one layer lower.
      if (candidate_run.status().code() == StatusCode::kDataLoss) {
        row.outcome = "guard-violation";
        ++report.guard_violations;
      } else {
        row.outcome = "error";
        ++report.probe_errors;
      }
      row.detail = candidate_run.status().ToString();
      report.passed = false;
      report.outcomes.push_back(std::move(row));
      continue;
    }

    std::vector<Tensor> expected;
    bool bitwise = false;
    if (incumbent != nullptr) {
      auto incumbent_run = incumbent->Run(inputs, run_options);
      if (incumbent_run.ok()) {
        expected = std::move(incumbent_run->outputs);
        bitwise = options_.bitwise_vs_incumbent;
      }
    }
    if (expected.empty()) {
      // No incumbent (or it failed at this probe — its problem, not the
      // candidate's): fall back to the IR reference evaluator.
      auto evaluated = EvaluateGraph(reference_graph, inputs);
      if (!evaluated.ok()) {
        row.outcome = "error";
        row.detail = "reference failed: " + evaluated.status().ToString();
        ++report.probe_errors;
        // A probe with no working reference proves nothing either way;
        // it does not fail the candidate.
        report.outcomes.push_back(std::move(row));
        continue;
      }
      expected = std::move(*evaluated);
      bitwise = false;
    }

    const std::vector<Tensor>& got = candidate_run->outputs;
    if (got.size() != expected.size()) {
      row.outcome = "divergence";
      row.detail = StrFormat("output count %zu vs reference %zu", got.size(),
                             expected.size());
      ++report.divergences;
      report.passed = false;
      report.outcomes.push_back(std::move(row));
      continue;
    }
    bool diverged = false;
    for (size_t i = 0; i < got.size(); ++i) {
      bool close = bitwise
                       ? Tensor::AllClose(got[i], expected[i], 0.0, 0.0)
                       : Tensor::AllClose(got[i], expected[i], options_.rtol,
                                          options_.atol);
      if (!close) {
        diverged = true;
        row.detail = StrFormat("output %zu differs (%s comparison)", i,
                               bitwise ? "bitwise" : "tolerance");
        break;
      }
    }
    if (diverged) {
      row.outcome = "divergence";
      ++report.divergences;
      report.passed = false;
    } else {
      row.outcome = "match";
    }
    report.outcomes.push_back(std::move(row));
  }

  CountMetric(report.passed ? "compile_service.validate.pass"
                            : "compile_service.validate.caught");
  if (!report.passed) {
    DISC_LOG(Warning) << "shadow validation caught candidate " << key_id
                      << " for " << model_name << ": " << report.Summary();
  }
  return report;
}

}  // namespace disc
