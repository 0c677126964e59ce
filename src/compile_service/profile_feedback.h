// ShapeProfileFeedback: observed-dim histograms that drive profile-guided
// respecialization.
//
// BladeDISC's shape speculation needs a feedback signal: which concrete
// values do the dynamic dims actually take in production? This class
// aggregates, per input-dim label, a value -> count histogram fed from the
// engines' per-query observed shapes (the same data RunProfile sees), and
// turns it into `likely_dim_values` hint sets once the distribution is
// confident enough. Unlike the old one-shot `feedback_applied_` flag in
// DynamicCompilerEngine, the feedback is continuous: when the hot-value
// profile *shifts* (yesterday's hot batch size is no longer today's), a
// fresh hint set is emitted and the engine respecializes again — inline,
// or as a job on its CompileService — so the compiled executable follows
// the traffic.
//
// The hint ordering contract matters: SymbolicDimManager::AddLikelyValue
// keeps values unique with the most recent last, and the speculative
// variant builder takes values from the back. Hint sets are therefore
// emitted in ascending frequency order so that, under
// `max_speculative_variants` truncation, the MOST frequent values win
// (asserted in tests/speculation_test.cpp).
#ifndef DISC_COMPILE_SERVICE_PROFILE_FEEDBACK_H_
#define DISC_COMPILE_SERVICE_PROFILE_FEEDBACK_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace disc {

/// Per-label likely runtime values, the CompileOptions::likely_dim_values
/// shape (label -> values, ascending frequency, most frequent last).
using LikelyDimValues =
    std::vector<std::pair<std::string, std::vector<int64_t>>>;

struct ShapeProfileOptions {
  /// Observations (queries) before the first hint set may be emitted.
  int64_t min_observations = 8;
  /// A label contributes hints only when its most frequent value covers at
  /// least this fraction of the label's observations — a flat distribution
  /// is not worth speculating on.
  double confidence = 0.5;
  /// Top-k values per label in a hint set (the compiler additionally caps
  /// variants via SpecializeOptions::max_speculative_variants).
  int max_values_per_label = 2;
  /// After the first emission, re-evaluate the profile only every this
  /// many observations (cheap steady state).
  int64_t recheck_interval = 8;
  /// Weight of one high-regret sighting (NoteRegret) relative to a plain
  /// observation: the kernel observatory proved the compiled variant
  /// choice is costing device time at this shape, so it pulls the
  /// histogram toward the offending values that much harder.
  int64_t regret_observation_weight = 4;
};

/// \brief Aggregates observed dynamic-dim values and emits hint sets when
/// the hot-value profile becomes confident or shifts. Not thread-safe; the
/// owning engine serializes access (one instance per engine).
class ShapeProfileFeedback {
 public:
  explicit ShapeProfileFeedback(ShapeProfileOptions options = {})
      : options_(options) {}

  /// \brief Records one query's observed dims. `labels` is parallel to the
  /// engine's inputs (one label per dim, "" = anonymous/static).
  void Observe(const std::vector<std::vector<std::string>>& labels,
               const std::vector<std::vector<int64_t>>& input_dims);

  /// \brief The kernel observatory's respecialization trigger: records a
  /// shape whose selected kernel variant carries positive audited regret.
  /// Counts as `regret_observation_weight` observations of these dims and
  /// arms the next MaybeRespecialize to bypass the recheck interval — a
  /// proven misprediction should not wait out the steady-state cadence.
  /// Non-positive regret is a no-op.
  void NoteRegret(const std::vector<std::vector<std::string>>& labels,
                  const std::vector<std::vector<int64_t>>& input_dims,
                  double regret_us);

  /// \brief Returns a fresh hint set when (a) enough observations exist,
  /// (b) at least one label passes the confidence bar, and (c) the
  /// resulting set differs from the last one emitted. Otherwise nullopt.
  /// The caller owns acting on it (sync recompile or service submission).
  std::optional<LikelyDimValues> MaybeRespecialize();

  int64_t observations() const { return observations_; }
  /// Canonical signature of the last emitted hint set ("" before the
  /// first); respecialization count == number of signature changes.
  const std::string& active_signature() const { return active_signature_; }
  int64_t respecializations() const { return respecializations_; }

  /// \brief Canonical text of a hint set, e.g. "B:8,512;S:1024" — used for
  /// shift detection and exposed for tests/introspection.
  static std::string Signature(const LikelyDimValues& hints);

  /// \brief Top `k` observed values per label, most frequent first (ties:
  /// smaller value first, deterministic). The shadow validator turns these
  /// into probe bindings: the shapes traffic actually takes are exactly
  /// where a candidate executable must agree with the incumbent.
  LikelyDimValues TopValues(int k) const {
    LikelyDimValues out;
    for (const auto& [label, histogram] : histograms_) {
      std::vector<std::pair<int64_t, int64_t>> ranked(histogram.begin(),
                                                      histogram.end());
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const auto& a, const auto& b) {
                         return a.second > b.second;
                       });
      std::vector<int64_t> values;
      for (const auto& [value, count] : ranked) {
        if (static_cast<int>(values.size()) >= k) break;
        values.push_back(value);
      }
      if (!values.empty()) out.emplace_back(label, std::move(values));
    }
    return out;
  }

 private:
  ShapeProfileOptions options_;
  // label -> value -> observation count.
  std::map<std::string, std::map<int64_t, int64_t>> histograms_;
  int64_t observations_ = 0;
  int64_t last_checked_at_ = 0;
  /// Set by NoteRegret; the next MaybeRespecialize skips the recheck-
  /// interval gate (min_observations still applies).
  bool regret_pending_ = false;
  std::string active_signature_;
  int64_t respecializations_ = 0;
};

}  // namespace disc

#endif  // DISC_COMPILE_SERVICE_PROFILE_FEEDBACK_H_
