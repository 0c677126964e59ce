#include "support/kernel_profile.h"

#include <algorithm>
#include <sstream>

#include "support/artifact_dump.h"
#include "support/string_util.h"

namespace disc {

std::string KernelProfileEntry::ToString() const {
  return StrFormat(
      "%s/%s @%s: %lld launches, %.1fus total (%.1fus avg, %.1fus launch "
      "overhead), %lld mem-bound, util %.2f",
      kernel.c_str(), variant.c_str(), signature.c_str(),
      static_cast<long long>(launches), total_time_us, avg_time_us(),
      launch_overhead_us(), static_cast<long long>(memory_bound_launches),
      mean_utilization());
}

std::string KernelRegret::ToString() const {
  std::ostringstream out;
  out << StrFormat(
      "%s @%s: selected %s (%.2fus) vs best %s (%.2fus, rank %d%s) -> "
      "regret %.2fus/launch, %.1fus total over %lld launches (share %.2f)",
      kernel.c_str(), signature.c_str(), selected_variant.c_str(), selected_us,
      best_variant.c_str(), best_us, best_rank,
      best_compiled ? "" : ", NOT COMPILED", regret_us, total_regret_us,
      static_cast<long long>(launches), regret_share);
  return out.str();
}

std::string KernelProfileLedger::RunRecord::ToString() const {
  std::ostringstream out;
  out << StrFormat("trace=%llu sig=%s device=%.1fus kernels=%lld:",
                   static_cast<unsigned long long>(trace_id),
                   signature.c_str(), device_time_us,
                   static_cast<long long>(kernel_launches));
  for (const RunKernelSlice& s : kernels) {
    out << StrFormat(" %s/%s=%.1fus", s.kernel.c_str(), s.variant.c_str(),
                     s.time_us);
  }
  return out.str();
}

KernelProfileLedger& KernelProfileLedger::Global() {
  static KernelProfileLedger* ledger = new KernelProfileLedger();
  return *ledger;
}

void KernelProfileLedger::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  while (runs_.size() > options_.run_capacity) {
    runs_.pop_front();
    ++stats_.runs_dropped;
  }
}

void KernelProfileLedger::ObserveRun(
    const void* owner, const std::string& signature,
    const SymbolBindings& bindings, uint64_t trace_id,
    double run_device_time_us,
    const std::vector<KernelLaunchObservation>& launches) {
  if (!enabled() || launches.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.runs_observed;
  stats_.launches_observed += static_cast<int64_t>(launches.size());

  for (const KernelLaunchObservation& obs : launches) {
    const KernelVariant& variant = obs.kernel->variants()[obs.variant_index];
    std::string key = obs.kernel->name() + "|" + variant.name + "|" + signature;
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (entries_.size() >= options_.max_entries) {
        ++stats_.entries_dropped;
        continue;
      }
      EntryState state;
      state.kernel = obs.kernel;
      state.owner = owner;
      state.bindings = bindings;
      any_entries_.store(true, std::memory_order_relaxed);
      KernelProfileEntry& e = state.entry;
      e.kernel = obs.kernel->name();
      e.group = obs.kernel->group().id;
      e.fusion_kind = FusionKindName(obs.kernel->kind());
      e.variant = variant.name;
      e.variant_index = obs.variant_index;
      e.num_variants = static_cast<int>(obs.kernel->variants().size());
      e.signature = signature;
      e.min_time_us = obs.time_us;
      e.max_time_us = obs.time_us;
      it = entries_.emplace(std::move(key), std::move(state)).first;
    }
    KernelProfileEntry& e = it->second.entry;
    e.launches += 1;
    e.total_time_us += obs.time_us;
    e.total_body_us += obs.body_us;
    e.min_time_us = std::min(e.min_time_us, obs.time_us);
    e.max_time_us = std::max(e.max_time_us, obs.time_us);
    if (obs.memory_bound) e.memory_bound_launches += 1;
    e.utilization_sum += obs.utilization;
    e.total_bytes += obs.bytes;
    e.total_flops += obs.flops;
  }

  if (trace_id == 0) return;
  RunRecord record;
  record.trace_id = trace_id;
  record.signature = signature;
  record.device_time_us = run_device_time_us;
  record.kernel_launches = static_cast<int64_t>(launches.size());
  // Aggregate the batch per (kernel, variant), preserving launch order of
  // first appearance — small vectors, linear scan beats a map here.
  for (const KernelLaunchObservation& obs : launches) {
    const std::string& variant =
        obs.kernel->variants()[obs.variant_index].name;
    RunKernelSlice* slice = nullptr;
    for (RunKernelSlice& s : record.kernels) {
      if (s.kernel == obs.kernel->name() && s.variant == variant) {
        slice = &s;
        break;
      }
    }
    if (slice == nullptr) {
      record.kernels.push_back({obs.kernel->name(), variant, 0, 0.0});
      slice = &record.kernels.back();
    }
    slice->launches += 1;
    slice->time_us += obs.time_us;
  }
  runs_.push_back(std::move(record));
  ++stats_.runs_retained;
  while (runs_.size() > options_.run_capacity) {
    runs_.pop_front();
    ++stats_.runs_dropped;
    --stats_.runs_retained;
  }
}

std::vector<KernelProfileEntry> KernelProfileLedger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<KernelProfileEntry> entries;
  entries.reserve(entries_.size());
  for (const auto& [key, state] : entries_) entries.push_back(state.entry);
  return entries;
}

std::vector<KernelProfileLedger::RunRecord> KernelProfileLedger::RunsForTrace(
    uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RunRecord> records;
  for (const RunRecord& r : runs_) {
    if (r.trace_id == trace_id) records.push_back(r);
  }
  return records;
}

std::vector<KernelRegret> KernelProfileLedger::AuditRegret(
    const DeviceSpec& device, const SpecializeOptions& reference) const {
  std::vector<EntryState> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    states.reserve(entries_.size());
    for (const auto& [key, state] : entries_) states.push_back(state);
  }

  DeviceModel model(device);
  std::vector<KernelRegret> regrets;
  for (const EntryState& state : states) {
    const FusedKernel& kernel = *state.kernel;
    KernelRegret r;
    r.kernel = state.entry.kernel;
    r.group = state.entry.group;
    r.fusion_kind = state.entry.fusion_kind;
    r.signature = state.entry.signature;
    r.launches = state.entry.launches;
    r.selected_variant = state.entry.variant;

    // Modeled cost of the actually-selected variant at the observed
    // bindings (modeled, not averaged-measured, so the audit is a pure
    // function of (bindings, device) and byte-stable).
    const KernelVariant& selected =
        kernel.variants()[state.entry.variant_index];
    Result<ShapeTable> shapes =
        kernel.analysis().EvaluateShapes(state.bindings);
    if (!shapes.ok()) continue;  // bindings went stale; skip
    const KernelStats selected_stats = kernel.ComputeStats(*shapes, selected);
    r.selected_us = model.EstimateGenerated(selected_stats, selected).time_us;

    // The counterfactual variant set: what this kernel WOULD have under
    // the reference options (full specialization by default).
    std::vector<KernelVariant> candidates = kernel.VariantsUnder(reference);
    bool have_best = false;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const KernelVariant& candidate = candidates[i];
      VariantAssessment a;
      a.variant = candidate.name;
      a.rank = static_cast<int>(i);
      a.selected = candidate.name == r.selected_variant;
      for (const KernelVariant& compiled : kernel.variants()) {
        if (compiled.name == candidate.name) a.compiled = true;
      }
      auto admitted = candidate.guard.Evaluate(state.bindings);
      a.admissible = admitted.ok() && *admitted;
      if (a.admissible) {
        const KernelStats stats = kernel.ComputeStats(*shapes, candidate);
        a.modeled_us = model.EstimateGenerated(stats, candidate).time_us;
        if (!have_best || a.modeled_us < r.best_us) {
          have_best = true;
          r.best_us = a.modeled_us;
          r.best_variant = a.variant;
          r.best_rank = a.rank;
          r.best_compiled = a.compiled;
        }
      }
      r.candidates.push_back(std::move(a));
    }
    if (!have_best) continue;  // no admissible candidate: nothing to judge

    r.regret_us = r.selected_us - r.best_us;
    r.total_regret_us = r.regret_us * static_cast<double>(r.launches);
    const double selected_total =
        r.selected_us * static_cast<double>(r.launches);
    r.regret_share = selected_total > 0.0 ? r.total_regret_us / selected_total
                                          : 0.0;
    regrets.push_back(std::move(r));
  }

  std::sort(regrets.begin(), regrets.end(),
            [](const KernelRegret& a, const KernelRegret& b) {
              if (a.total_regret_us != b.total_regret_us) {
                return a.total_regret_us > b.total_regret_us;
              }
              if (a.kernel != b.kernel) return a.kernel < b.kernel;
              if (a.signature != b.signature) return a.signature < b.signature;
              return a.selected_variant < b.selected_variant;
            });
  return regrets;
}

KernelProfileLedger::Stats KernelProfileLedger::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.entries = static_cast<int64_t>(entries_.size());
  return stats;
}

void KernelProfileLedger::Forget(const void* owner) {
  // Every Executable destructor comes through here; programs that never
  // fed the ledger must not pay the lock.
  if (!any_entries_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.owner == owner) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  if (entries_.empty()) {
    any_entries_.store(false, std::memory_order_relaxed);
  }
}

void KernelProfileLedger::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  runs_.clear();
  stats_ = Stats();
  any_entries_.store(false, std::memory_order_relaxed);
}

JsonValue KernelProfileJson(const std::vector<KernelProfileEntry>& entries,
                            const std::vector<KernelRegret>& regrets,
                            const KernelProfileLedger::Stats& stats) {
  JsonValue::Object doc;
  doc.emplace("schema_version", JsonValue(static_cast<int64_t>(1)));

  JsonValue::Object stats_obj;
  stats_obj.emplace("launches_observed",
                    JsonValue(stats.launches_observed));
  stats_obj.emplace("runs_observed", JsonValue(stats.runs_observed));
  stats_obj.emplace("entries", JsonValue(stats.entries));
  stats_obj.emplace("entries_dropped", JsonValue(stats.entries_dropped));
  stats_obj.emplace("runs_retained", JsonValue(stats.runs_retained));
  stats_obj.emplace("runs_dropped", JsonValue(stats.runs_dropped));
  doc.emplace("stats", JsonValue(std::move(stats_obj)));

  JsonValue::Array entry_array;
  for (const KernelProfileEntry& e : entries) {
    JsonValue::Object o;
    o.emplace("kernel", JsonValue(e.kernel));
    o.emplace("group", JsonValue(static_cast<int64_t>(e.group)));
    o.emplace("fusion_kind", JsonValue(e.fusion_kind));
    o.emplace("variant", JsonValue(e.variant));
    o.emplace("variant_index", JsonValue(static_cast<int64_t>(e.variant_index)));
    o.emplace("num_variants", JsonValue(static_cast<int64_t>(e.num_variants)));
    o.emplace("signature", JsonValue(e.signature));
    o.emplace("launches", JsonValue(e.launches));
    o.emplace("total_time_us", JsonValue(e.total_time_us));
    o.emplace("total_body_us", JsonValue(e.total_body_us));
    o.emplace("avg_time_us", JsonValue(e.avg_time_us()));
    o.emplace("min_time_us", JsonValue(e.min_time_us));
    o.emplace("max_time_us", JsonValue(e.max_time_us));
    o.emplace("launch_overhead_us", JsonValue(e.launch_overhead_us()));
    o.emplace("memory_bound_launches", JsonValue(e.memory_bound_launches));
    o.emplace("mean_utilization", JsonValue(e.mean_utilization()));
    o.emplace("total_bytes", JsonValue(e.total_bytes));
    o.emplace("total_flops", JsonValue(e.total_flops));
    entry_array.push_back(JsonValue(std::move(o)));
  }
  doc.emplace("entries", JsonValue(std::move(entry_array)));

  JsonValue::Array regret_array;
  for (const KernelRegret& r : regrets) {
    JsonValue::Object o;
    o.emplace("kernel", JsonValue(r.kernel));
    o.emplace("group", JsonValue(static_cast<int64_t>(r.group)));
    o.emplace("fusion_kind", JsonValue(r.fusion_kind));
    o.emplace("signature", JsonValue(r.signature));
    o.emplace("launches", JsonValue(r.launches));
    o.emplace("selected_variant", JsonValue(r.selected_variant));
    o.emplace("selected_us", JsonValue(r.selected_us));
    o.emplace("best_variant", JsonValue(r.best_variant));
    o.emplace("best_us", JsonValue(r.best_us));
    o.emplace("best_rank", JsonValue(static_cast<int64_t>(r.best_rank)));
    o.emplace("best_compiled", JsonValue(r.best_compiled));
    o.emplace("regret_us", JsonValue(r.regret_us));
    o.emplace("total_regret_us", JsonValue(r.total_regret_us));
    o.emplace("regret_share", JsonValue(r.regret_share));
    JsonValue::Array candidates;
    for (const VariantAssessment& a : r.candidates) {
      JsonValue::Object c;
      c.emplace("variant", JsonValue(a.variant));
      c.emplace("rank", JsonValue(static_cast<int64_t>(a.rank)));
      c.emplace("admissible", JsonValue(a.admissible));
      c.emplace("compiled", JsonValue(a.compiled));
      c.emplace("selected", JsonValue(a.selected));
      c.emplace("modeled_us", JsonValue(a.modeled_us));
      candidates.push_back(JsonValue(std::move(c)));
    }
    o.emplace("candidates", JsonValue(std::move(candidates)));
    regret_array.push_back(JsonValue(std::move(o)));
  }
  doc.emplace("regret", JsonValue(std::move(regret_array)));
  return JsonValue(std::move(doc));
}

Status WriteKernelProfileJson(const std::string& path,
                              const std::vector<KernelProfileEntry>& entries,
                              const std::vector<KernelRegret>& regrets,
                              const KernelProfileLedger::Stats& stats) {
  return WriteStringToFile(
      path, KernelProfileJson(entries, regrets, stats).SerializePretty());
}

}  // namespace disc
