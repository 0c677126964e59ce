// Kernel-level performance observatory.
//
// Request-level observability (metrics, blame ledgers, the flight
// recorder) stops at the Run boundary; below it the system was a black
// box: nothing recorded which KernelVariant each fused kernel actually
// ran under real traffic, what it cost, or whether the compile-time
// choice was right for the shapes that actually arrived. This ledger is
// that ground truth — the measurement substrate shape-generic
// auto-tuning (ROADMAP item 3) and codegen-vs-library selection (item 5)
// will be judged against.
//
// Executable::ExecutePlan feeds one KernelLaunchObservation per generated
// kernel launch (variant index + the full KernelCost decomposition) and
// flushes them with ONE lock acquisition per Run. The ledger aggregates
// per (kernel, variant, shape-signature) with streaming totals, bounded
// at max_entries (new keys beyond the bound are counted dropped, never
// resized). When disabled, the launch path pays exactly one relaxed
// atomic load — the same discipline as the flight recorder.
//
// On top of the ledger sits a counterfactual variant-regret audit: for
// every retained entry, re-evaluate EVERY variant the kernel would have
// under a reference SpecializeOptions at the observed bindings through
// the DeviceModel, and report
//
//   regret = modeled(selected variant) - min over admissible variants
//
// joined against the compile-time preference order (variant rank) so a
// misprediction names the decision that caused it: `best_compiled=false`
// means the winning variant was denied at compile time (specialization
// disabled, missing hint), `best_rank < selected rank` with
// `best_compiled=true` means the guard ordering itself mispredicted.
// Fusion-group ids join entries to fusion_decisions.json.
#ifndef DISC_SUPPORT_KERNEL_PROFILE_H_
#define DISC_SUPPORT_KERNEL_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "sim/device.h"
#include "support/json.h"

namespace disc {

/// One generated-kernel launch as ExecutePlan saw it. Buffered locally
/// per Run and flushed to the ledger in one batch.
struct KernelLaunchObservation {
  /// Non-owning; the regret audit re-runs guards and stats through this
  /// pointer. Entries are dropped automatically when their owning
  /// Executable is destroyed (Forget), so the pointer never dangles.
  const FusedKernel* kernel = nullptr;
  int variant_index = 0;
  /// The full KernelCost decomposition for this launch.
  double time_us = 0.0;
  double body_us = 0.0;
  bool memory_bound = false;
  double utilization = 0.0;
  /// Traffic + arithmetic of the launch (from the planned KernelStats).
  int64_t bytes = 0;
  int64_t flops = 0;
};

/// Streaming aggregate for one (kernel, variant, signature) key.
struct KernelProfileEntry {
  std::string kernel;       // FusedKernel::name(), e.g. "loop_fusion_0"
  int group = -1;           // fusion-group id (joins fusion_decisions.json)
  std::string fusion_kind;  // FusionKindName: "kLoop"|"kInput"|"kStitch"
  std::string variant;      // selected variant name
  int variant_index = 0;    // rank in the compiled preference order
  int num_variants = 0;     // size of the compiled variant list
  std::string signature;    // shape signature of the Runs that fed this

  int64_t launches = 0;
  double total_time_us = 0.0;  // launch + body
  double total_body_us = 0.0;  // body only
  double min_time_us = 0.0;
  double max_time_us = 0.0;
  int64_t memory_bound_launches = 0;
  double utilization_sum = 0.0;
  int64_t total_bytes = 0;
  int64_t total_flops = 0;

  double avg_time_us() const {
    return launches > 0 ? total_time_us / static_cast<double>(launches) : 0.0;
  }
  double mean_utilization() const {
    return launches > 0 ? utilization_sum / static_cast<double>(launches)
                        : 0.0;
  }
  /// Driver/dispatch share of this entry's device time.
  double launch_overhead_us() const { return total_time_us - total_body_us; }

  std::string ToString() const;
};

/// One variant's standing in a counterfactual audit.
struct VariantAssessment {
  std::string variant;
  /// Rank in the reference preference order (0 = tried first).
  int rank = 0;
  /// Guard verdict at the observed bindings.
  bool admissible = false;
  /// Present in the actually-compiled variant list (by name).
  bool compiled = false;
  /// The variant the launches actually used.
  bool selected = false;
  /// DeviceModel cost at the observed bindings (0 when not admissible —
  /// an inadmissible variant has no defined cost).
  double modeled_us = 0.0;
};

/// Regret verdict for one ledger entry: what the selected variant cost
/// versus the best variant the kernel could have had.
struct KernelRegret {
  std::string kernel;
  int group = -1;
  std::string fusion_kind;
  std::string signature;
  int64_t launches = 0;

  std::string selected_variant;
  double selected_us = 0.0;  // modeled per-launch cost of the selection
  std::string best_variant;
  double best_us = 0.0;
  /// Rank of the best variant in the reference preference order.
  int best_rank = 0;
  /// False when the best variant does not exist in the compiled kernel —
  /// it was denied at compile time (the decision to blame).
  bool best_compiled = true;

  double regret_us = 0.0;        // selected_us - best_us, per launch
  double total_regret_us = 0.0;  // regret_us * launches
  /// Fraction of this entry's selected device time that was avoidable.
  double regret_share = 0.0;

  /// Every reference variant's verdict, in preference order.
  std::vector<VariantAssessment> candidates;

  std::string ToString() const;
};

/// \brief Process-global bounded ledger of kernel launches. Feeding is
/// thread-safe; when disabled it costs one relaxed atomic load.
class KernelProfileLedger {
 public:
  struct Options {
    /// Aggregation keys retained; new keys past the bound are dropped
    /// (counted in Stats::entries_dropped).
    size_t max_entries = 1024;
    /// Per-Run records retained for the trace-id join (serving Runs with
    /// a minted trace id only); oldest drop first.
    size_t run_capacity = 256;
  };

  struct Stats {
    int64_t launches_observed = 0;
    int64_t runs_observed = 0;
    int64_t entries = 0;
    int64_t entries_dropped = 0;
    int64_t runs_retained = 0;
    int64_t runs_dropped = 0;  // retained run records evicted by the ring
  };

  /// Per-kernel slice of one Run, retained for the flight-recorder join:
  /// an outlier's trace id finds the kernel breakdown of its batch here.
  struct RunKernelSlice {
    std::string kernel;
    std::string variant;
    int64_t launches = 0;
    double time_us = 0.0;
  };
  struct RunRecord {
    uint64_t trace_id = 0;
    std::string signature;
    double device_time_us = 0.0;  // whole Run (library calls included)
    int64_t kernel_launches = 0;
    std::vector<RunKernelSlice> kernels;

    std::string ToString() const;
  };

  static KernelProfileLedger& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// \brief Replaces the bounds (existing entries stay).
  void Configure(const Options& options);

  /// \brief Flushes one Run's launches: one lock, one map accumulate per
  /// distinct (kernel, variant) in the batch. `owner` tags the entries
  /// with the Executable that owns the observed kernels, so its
  /// destructor can Forget them (see below). `bindings` are the Run's
  /// solved symbol values — retained once per new entry as the regret
  /// audit's input. `trace_id` 0 = no serving context (no run record
  /// retained). No-op when disabled.
  void ObserveRun(const void* owner, const std::string& signature,
                  const SymbolBindings& bindings, uint64_t trace_id,
                  double run_device_time_us,
                  const std::vector<KernelLaunchObservation>& launches);

  /// \brief Drops every entry observed through `owner` (an Executable
  /// address). Called by Executable's destructor as the automatic
  /// lifetime fence: a feedback-driven hot swap can destroy an observed
  /// executable mid-traffic, and without this the audit would chase
  /// dangling kernel pointers. Run records survive (they hold no
  /// pointers). Near-free when the ledger has never aggregated anything.
  void Forget(const void* owner);

  /// \brief Aggregated entries, sorted by key (kernel, variant,
  /// signature) — deterministic across runs.
  std::vector<KernelProfileEntry> Snapshot() const;

  /// \brief Retained run records for one trace id, oldest first (a trace
  /// id can appear once per Run its batch issued).
  std::vector<RunRecord> RunsForTrace(uint64_t trace_id) const;

  /// \brief The counterfactual audit: for every entry, evaluate all
  /// variants the kernel would have under `reference` (default: full
  /// specialization) at the entry's observed bindings, cost the
  /// admissible ones through DeviceModel on `device`, and report regret.
  /// Sorted by total_regret_us descending (key ascending on ties).
  /// Entries whose Executable died were already Forgotten, so the audit
  /// only ever sees live kernels.
  std::vector<KernelRegret> AuditRegret(
      const DeviceSpec& device, const SpecializeOptions& reference = {}) const;

  Stats stats() const;

  /// \brief Drops every entry and run record (enabled flag and options
  /// untouched). Test/bench isolation helper.
  void Clear();

 private:
  struct EntryState {
    KernelProfileEntry entry;
    const FusedKernel* kernel = nullptr;
    /// The Executable the kernel lives in (Forget key).
    const void* owner = nullptr;
    /// Representative bindings (first Run observed) — the audit's input.
    SymbolBindings bindings;
  };

  KernelProfileLedger() = default;

  std::atomic<bool> enabled_{false};
  /// Fast path for Forget(): every Executable destructor calls it, and
  /// programs that never enable the ledger should not pay a lock there.
  std::atomic<bool> any_entries_{false};
  mutable std::mutex mu_;
  Options options_;
  Stats stats_;
  /// Key "kernel|variant|signature" -> state; std::map keeps snapshots
  /// deterministically ordered.
  std::map<std::string, EntryState> entries_;
  std::deque<RunRecord> runs_;  // oldest at front
};

/// \brief kernel_profile.json: schema_version, ledger stats, aggregated
/// entries, and (optionally empty) regret audit — written through the
/// deterministic JSON writer, parse-validated by the CI hotspot smoke.
JsonValue KernelProfileJson(const std::vector<KernelProfileEntry>& entries,
                            const std::vector<KernelRegret>& regrets,
                            const KernelProfileLedger::Stats& stats);

/// \brief Serializes KernelProfileJson to `path` (pretty, deterministic).
Status WriteKernelProfileJson(const std::string& path,
                              const std::vector<KernelProfileEntry>& entries,
                              const std::vector<KernelRegret>& regrets,
                              const KernelProfileLedger::Stats& stats);

}  // namespace disc

#endif  // DISC_SUPPORT_KERNEL_PROFILE_H_
