#include "runtime/executable.h"

#include <chrono>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "ir/eval.h"
#include "kernel/library.h"
#include "support/blame.h"
#include "support/kernel_profile.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/metrics.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace disc {

namespace {
// Per-node cost of replaying a captured CUDA graph (vs a full driver
// launch): the GPU still schedules each kernel, the host does not.
constexpr double kGraphReplayPerNodeUs = 0.4;

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The registry metrics a Run reports, resolved once. The registry keeps
// every metric for the process lifetime (ResetCountersForTest only zeroes
// counters), so the pointers stay valid.
struct RunMetrics {
  Counter* runs;
  Counter* plan_hits;
  Counter* plan_misses;
  Histogram* host_plan_us;
  Histogram* kernel_utilization;
  Counter* alloc_calls;
  Counter* alloc_cache_hits;
  Counter* alloc_rounding_waste;
  Counter* memory_bound;
  Counter* launches;

  static const RunMetrics& Get() {
    static const RunMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      return RunMetrics{
          registry.GetCounter("runtime.run.count"),
          registry.GetCounter("runtime.plan_cache.hit"),
          registry.GetCounter("runtime.plan_cache.miss"),
          registry.GetHistogram("runtime.host_plan_us"),
          // Utilization is a fraction, hence the non-default bounds.
          registry.GetHistogram(
              "runtime.kernel.utilization",
              {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}),
          registry.GetCounter("runtime.alloc.calls"),
          registry.GetCounter("runtime.alloc.cache_hits"),
          registry.GetCounter("runtime.alloc.bytes_rounding_waste"),
          registry.GetCounter("runtime.kernel.memory_bound"),
          registry.GetCounter("runtime.kernel.launches"),
      };
    }();
    return metrics;
  }
};

// Runs the caching allocator's size-class bookkeeping over one signature's
// schedule (see AllocationTape). `values` lists every value a Run allocates
// with its byte size, in Run order; `values_end[s]` is one past step s's
// last. `arena_bytes >= 0` records arena mode: that one allocation first
// (when nonzero), and no arena resident. Only the bookkeeping runs here:
// the allocator's checks (the runtime.alloc failpoint, the memory limit)
// belong to each Run, which makes them against the tape.
Result<AllocationTape> RecordAllocationTape(
    const MemoryPlan& memory_plan,
    const std::vector<std::pair<const Value*, int64_t>>& values,
    const std::vector<size_t>& values_end, int64_t arena_bytes) {
  const size_t num_steps = values_end.size();
  AllocationTape tape;
  CachingAllocator allocator;
  std::unordered_map<const Value*, int64_t> block_of;
  const bool arena = arena_bytes >= 0;
  if (!arena) tape.allocs.reserve(values.size());
  if (arena_bytes > 0) {
    tape.allocs.push_back({arena_bytes, 0});
    DISC_RETURN_IF_ERROR(allocator.Reserve(arena_bytes).status());
  }
  tape.step_begin.reserve(num_steps + 1);
  size_t v = 0;
  for (size_t s = 0; s < num_steps; ++s) {
    tape.step_begin.push_back(static_cast<uint32_t>(tape.allocs.size()));
    for (; v < values_end[s]; ++v) {
      const auto& [value, bytes] = values[v];
      // Arena residents (constants included) live at their offsets in the
      // arena; they never enter block_of, so the release loop skips them.
      if (arena && memory_plan.slot_of.count(value)) continue;
      tape.allocs.push_back({bytes, allocator.stats().bytes_in_use});
      if (bytes < 0) {
        // Every Run fails this call's check and makes no later one: end
        // the tape here.
        tape.has_negative = true;
        tape.step_begin.resize(num_steps + 1,
                               static_cast<uint32_t>(tape.allocs.size()));
        return tape;
      }
      DISC_ASSIGN_OR_RETURN(block_of[value], allocator.Reserve(bytes));
    }
    for (const Value* dead : memory_plan.release_after_step[s]) {
      auto it = block_of.find(dead);
      if (it != block_of.end()) {
        DISC_RETURN_IF_ERROR(allocator.Free(it->second));
        block_of.erase(it);
      }
    }
  }
  tape.step_begin.push_back(static_cast<uint32_t>(tape.allocs.size()));
  tape.stats = allocator.stats();
  return tape;
}
}  // namespace

Executable::~Executable() {
  KernelProfileLedger::Global().Forget(this);
}

std::string RunProfile::ToString() const {
  std::ostringstream out;
  out << StrFormat(
      "device=%.1fus launches=%lld lib_calls=%lld bytes=%.2fMB peak=%.2fMB",
      device_time_us, static_cast<long long>(kernel_launches),
      static_cast<long long>(library_calls),
      (bytes_read + bytes_written) / 1e6, peak_memory_bytes / 1e6);
  out << (launch_plan_hit ? " plan=hit" : " plan=miss");
  if (variant_counts != nullptr && !variant_counts->empty()) {
    out << " variants{";
    bool first = true;
    for (const auto& [name, count] : *variant_counts) {
      if (!first) out << ", ";
      out << name << ":" << count;
      first = false;
    }
    out << "}";
  }
  return out.str();
}

std::string CompileReport::ToString() const {
  return StrFormat(
      "compile=%.1fms nodes %lld->%lld, %lld kernels (%lld variants), "
      "groups: %lld loop / %lld input / %lld stitch, symbols %lld->%lld "
      "classes",
      compile_ms, static_cast<long long>(num_nodes_before),
      static_cast<long long>(num_nodes_after),
      static_cast<long long>(num_kernels),
      static_cast<long long>(num_variants),
      static_cast<long long>(fusion.num_loop_groups),
      static_cast<long long>(fusion.num_input_groups),
      static_cast<long long>(fusion.num_stitch_groups),
      static_cast<long long>(shapes.num_symbols),
      static_cast<long long>(shapes.num_classes));
}

std::string CompileReport::PhaseBreakdown() const {
  std::ostringstream out;
  for (const auto& [name, ms] : phase_ms) {
    out << StrFormat("  %-18s %8.3fms (%2.0f%%)\n", name.c_str(), ms,
                     compile_ms > 0 ? 100.0 * ms / compile_ms : 0.0);
  }
  return out.str();
}

Result<RunResult> Executable::Run(const std::vector<Tensor>& inputs,
                                  const RunOptions& options) const {
  std::vector<std::vector<int64_t>> dims;
  dims.reserve(inputs.size());
  for (const Tensor& t : inputs) dims.push_back(t.dims());
  return RunInternal(dims, options.execute_data ? &inputs : nullptr, options);
}

Result<RunResult> Executable::RunWithShapes(
    const std::vector<std::vector<int64_t>>& input_dims,
    const RunOptions& options) const {
  RunOptions timing_only = options;
  timing_only.execute_data = false;
  return RunInternal(input_dims, nullptr, timing_only);
}

void Executable::MarkOwnedOutputs() {
  // Constants and host shape-step results belong to the executable (plans
  // record host results and replay them), so Run copies such outputs.
  std::unordered_set<const Value*> owned;
  for (const Step& step : steps_) {
    if (step.kind == Step::Kind::kConstant || step.kind == Step::Kind::kHost) {
      owned.insert(step.node->outputs().begin(), step.node->outputs().end());
    }
  }
  copy_output_.clear();
  for (const Value* out : graph_->outputs()) {
    copy_output_.push_back(owned.count(out) > 0);
  }
}

Status Executable::BindKernels(LaunchPlan* plan) const {
  for (size_t s = 0; s < steps_.size(); ++s) {
    if (steps_[s].kind != Step::Kind::kKernel) continue;
    DISC_ASSIGN_OR_RETURN(plan->steps[s].binding,
                          steps_[s].kernel->Bind(plan->bindings));
  }
  return Status::OK();
}

Result<LaunchPlan> Executable::BuildLaunchPlan(
    const std::vector<std::vector<int64_t>>& input_dims, bool bind) const {
  DISC_TRACE_SCOPE("plan-build", "runtime");
  LaunchPlan plan;
  // Host-side shape computation: solve every symbolic dim once per
  // signature.
  DISC_ASSIGN_OR_RETURN(plan.bindings, analysis_->BindInputs(input_dims));
  plan.steps.resize(steps_.size());
  auto variant_counts = std::make_shared<VariantCounts>();
  // Every value the Run allocates with its byte size, in Run order;
  // values_end[s] is one past step s's last.
  std::vector<std::pair<const Value*, int64_t>> values;
  values.reserve(static_cast<size_t>(memory_plan_.num_values));
  std::vector<size_t> values_end;
  values_end.reserve(steps_.size());

  for (size_t s = 0; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    PlannedStep& ps = plan.steps[s];
    auto record_alloc = [&](const Value* v) -> Status {
      DISC_ASSIGN_OR_RETURN(std::vector<int64_t> dims,
                            analysis_->EvaluateShape(v, plan.bindings));
      values.emplace_back(v, Product(dims) * DTypeSize(v->dtype()));
      return Status::OK();
    };
    switch (step.kind) {
      case Step::Kind::kConstant:
        DISC_RETURN_IF_ERROR(record_alloc(step.node->output(0)));
        break;
      case Step::Kind::kHost:
        break;  // results are data, recorded by the first data-mode run
      case Step::Kind::kLibrary: {
        DISC_ASSIGN_OR_RETURN(
            ps.library_stats,
            ComputeLibraryStats(*step.node, *analysis_, plan.bindings));
        plan.library_calls += 1;
        plan.bytes_read += ps.library_stats.bytes_read;
        plan.bytes_written += ps.library_stats.bytes_written;
        for (const Value* out : step.node->outputs()) {
          DISC_RETURN_IF_ERROR(record_alloc(out));
        }
        break;
      }
      case Step::Kind::kKernel: {
        const FusedKernel& kernel = *step.kernel;
        DISC_ASSIGN_OR_RETURN(ps.variant_index,
                              kernel.SelectVariantIndex(plan.bindings));
        const KernelVariant& variant = kernel.variants()[ps.variant_index];
        // Guard soundness check: the selected variant's guard must admit
        // these bindings. Dispatch normally guarantees this (guards are
        // evaluated in order), so a violation here means the dispatch
        // itself is miscompiled — surface it as kDataLoss so the engine
        // rolls back instead of retrying the same broken artifact.
        DISC_ASSIGN_OR_RETURN(bool admitted,
                              variant.guard.Evaluate(plan.bindings));
        if (!admitted) {
          return Status::DataLoss(StrFormat(
              "guard violation: kernel %s selected variant %d ('%s') whose "
              "guard rejects the bound shapes",
              kernel.name().c_str(), ps.variant_index,
              variant.name.c_str()));
        }
        DISC_ASSIGN_OR_RETURN(ps.kernel_stats,
                              kernel.ComputeStats(plan.bindings, variant));
        plan.kernel_launches += 1;
        plan.bytes_read += ps.kernel_stats.bytes_read;
        plan.bytes_written += ps.kernel_stats.bytes_written;
        (*variant_counts)[kernel.name() + "/" + variant.name] += 1;
        for (const Value* out : kernel.group().outputs) {
          DISC_RETURN_IF_ERROR(record_alloc(out));
        }
        break;
      }
    }
    values_end.push_back(values.size());
  }
  plan.variant_counts = std::move(variant_counts);

  // Memoize the arena size for this signature: the peak formula evaluated
  // once. Mode-independent and cheap, so a single cached plan serves every
  // MemoryMode (and admission control).
  if (memory_plan_.planned && memory_plan_.peak_bytes.valid()) {
    DISC_ASSIGN_OR_RETURN(
        plan.arena_bytes,
        analysis_->EvaluateDim(memory_plan_.peak_bytes, plan.bindings));
  }
  DISC_ASSIGN_OR_RETURN(
      plan.caching_tape,
      RecordAllocationTape(memory_plan_, values, values_end, -1));
  if (memory_plan_.planned) {
    DISC_ASSIGN_OR_RETURN(plan.arena_tape,
                          RecordAllocationTape(memory_plan_, values,
                                               values_end, plan.arena_bytes));
  }
  if (bind) DISC_RETURN_IF_ERROR(BindKernels(&plan));
  return plan;
}

Result<int64_t> Executable::PredictPeakBytes(
    const std::vector<std::vector<int64_t>>& input_dims) const {
  if (!memory_plan_.planned || !memory_plan_.peak_bytes.valid()) return 0;
  // A hot signature answers straight from the memoized plan; Peek leaves
  // the cache stats and LRU order untouched (prediction is observational).
  if (std::shared_ptr<const LaunchPlan> plan = plan_cache_.Peek(input_dims)) {
    return plan->arena_bytes;
  }
  DISC_ASSIGN_OR_RETURN(SymbolBindings bindings,
                        analysis_->BindInputs(input_dims));
  return analysis_->EvaluateDim(memory_plan_.peak_bytes, bindings);
}

Result<RunResult> Executable::RunInternal(
    const std::vector<std::vector<int64_t>>& input_dims,
    const std::vector<Tensor>* inputs, const RunOptions& options) const {
  auto start = std::chrono::steady_clock::now();
  const RunMetrics& metrics = RunMetrics::Get();
  const bool execute_data = inputs != nullptr;
  TraceScope run_scope("executable-run", "runtime");
  metrics.runs->Increment();

  std::shared_ptr<const LaunchPlan> cached;
  if (options.use_launch_plan_cache) cached = plan_cache_.Lookup(input_dims);
  const bool hit = cached != nullptr;

  // Only plans that serve data-mode runs bind their kernels: a timing-only
  // run never executes them.
  LaunchPlan fresh;
  const LaunchPlan* plan = cached.get();
  LaunchPlan* record_host = nullptr;
  if (!hit) {
    DISC_ASSIGN_OR_RETURN(fresh, BuildLaunchPlan(input_dims, execute_data));
    plan = &fresh;
    if (execute_data && options.use_launch_plan_cache) record_host = &fresh;
  } else if (execute_data && !cached->bound) {
    // The cached plan was built by a timing-only run; upgrade it once: bind
    // its kernels and record the host shape-step results this run is about
    // to compute.
    fresh = *cached;
    DISC_RETURN_IF_ERROR(BindKernels(&fresh));
    plan = &fresh;
    record_host = &fresh;
  }
  const double host_plan_us = ElapsedUs(start);
  if (options.use_launch_plan_cache) {
    (hit ? metrics.plan_hits : metrics.plan_misses)->Increment();
  }
  metrics.host_plan_us->Observe(host_plan_us);
  if (run_scope.active()) {
    run_scope.AddArg("plan", options.use_launch_plan_cache
                                 ? (hit ? "hit" : "miss")
                                 : "cache-off");
    run_scope.AddArg("signature", ShapeSignature(input_dims));
    run_scope.AddArg("mode", execute_data ? "data" : "timing-only");
    // Causal link back to the serving request that issued this Run (0
    // outside a serving context).
    const uint64_t trace_id = RequestContext::CurrentTraceId();
    if (trace_id != 0) {
      run_scope.AddArg("trace_id", std::to_string(trace_id));
    }
  }

  // The observatory keys entries by shape signature; only a ledger-enabled
  // Run spells it out.
  std::string signature;
  if (KernelProfileLedger::Global().enabled()) {
    signature = ShapeSignature(input_dims);
  }
  DISC_ASSIGN_OR_RETURN(
      RunResult result,
      ExecutePlan(*plan, inputs, options, signature, record_host));
  result.profile.launch_plan_hit = hit;
  result.profile.host_plan_us = host_plan_us;

  // Publish only after a successful run, so failures never poison the
  // cache; re-publishing an upgraded hit replaces the entry in place. A
  // failed insertion (fault-injected here; allocation failure in a real
  // runtime) is not an error — the run already succeeded, the signature
  // just stays uncached and later runs rebuild the plan.
  if (options.use_launch_plan_cache && (!hit || record_host != nullptr)) {
    if (Status inject = CheckFailpoint("runtime.plan_cache.insert");
        !inject.ok()) {
      CountMetric("runtime.plan_cache.insert_dropped");
    } else {
      plan_cache_.Insert(
          input_dims, std::make_shared<const LaunchPlan>(std::move(fresh)));
    }
  }
  return result;
}

Result<RunResult> Executable::ExecutePlan(const LaunchPlan& plan,
                                          const std::vector<Tensor>* inputs,
                                          const RunOptions& options,
                                          const std::string& signature,
                                          LaunchPlan* record_host) const {
  DISC_TRACE_SCOPE("plan-execute", "runtime");
  const RunMetrics& metrics = RunMetrics::Get();
  const SymbolBindings& bindings = plan.bindings;
  DeviceModel model(options.device);
  RunResult result;
  RunProfile& profile = result.profile;
  // One relaxed atomic load decides whether this Run feeds the kernel
  // observatory; launches are buffered locally and flushed in ONE
  // ObserveRun (one lock) after the step loop.
  KernelProfileLedger& kernel_ledger = KernelProfileLedger::Global();
  const bool profile_kernels = kernel_ledger.enabled();
  std::vector<KernelLaunchObservation> kernel_observations;
  const bool execute_data = inputs != nullptr;
  const bool use_arena =
      options.memory_mode == MemoryMode::kArena && memory_plan_.planned;

  // The plan's allocation tape stands in for the allocator: the Run makes
  // each recorded call's checks, in the order the calls would come, and
  // skips them when none can fail. Arena mode's one call comes before any
  // step executes, so its limit check (and any armed runtime.alloc
  // failpoint) fires there, never mid-Run.
  const AllocationTape& tape = use_arena ? plan.arena_tape : plan.caching_tape;
  auto check_allocs = [&](uint32_t begin, uint32_t end) -> Status {
    if (!FailpointRegistry::AnyArmed() && options.memory_limit_bytes <= 0 &&
        !tape.has_negative) {
      return Status::OK();
    }
    for (uint32_t i = begin; i < end; ++i) {
      DISC_RETURN_IF_ERROR(CachingAllocator::CheckAllocation(
          tape.allocs[i].bytes, tape.allocs[i].in_use_before,
          options.memory_limit_bytes));
    }
    return Status::OK();
  };
  DISC_RETURN_IF_ERROR(check_allocs(0, tape.step_begin[0]));
  if (use_arena) profile.arena_bytes = plan.arena_bytes;

  std::unordered_map<const Value*, Tensor> env;
  if (execute_data) {
    for (size_t i = 0; i < graph_->inputs().size(); ++i) {
      env.emplace(graph_->inputs()[i], (*inputs)[i]);
    }
  }

  for (size_t s = 0; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    const PlannedStep& ps = plan.steps[s];
    switch (step.kind) {
      case Step::Kind::kConstant: {
        // Weights are resident on device for the module's lifetime.
        DISC_RETURN_IF_ERROR(
            check_allocs(tape.step_begin[s], tape.step_begin[s + 1]));
        if (execute_data) env.emplace(step.node->output(0), *step.constant);
        break;
      }
      case Step::Kind::kHost: {
        // Shape computation runs on the host CPU alongside kernel
        // launches; it contributes no device time. Results are a pure
        // function of the shape signature, so a plan that recorded them
        // shares them instead of re-evaluating the node (nothing writes to
        // a Run's values, and outputs that are host results get copied).
        if (!execute_data) break;
        TraceScope step_scope("host-shape-op", "runtime.step");
        if (step_scope.active()) {
          step_scope.AddArg("op", OpName(step.node->kind()));
          step_scope.AddArg("replayed",
                            ps.has_host_results ? "true" : "false");
        }
        if (ps.has_host_results) {
          for (size_t i = 0; i < ps.host_results.size(); ++i) {
            env.emplace(step.node->output(static_cast<int>(i)),
                        ps.host_results[i]);
          }
          break;
        }
        std::vector<Tensor> operand_values;
        for (const Value* operand : step.node->operands()) {
          operand_values.push_back(env.at(operand));
        }
        DISC_ASSIGN_OR_RETURN(std::vector<Tensor> values,
                              EvaluateNode(*step.node, operand_values));
        if (record_host != nullptr) {
          PlannedStep& recorded = record_host->steps[s];
          recorded.host_results = values;
          recorded.has_host_results = true;
        }
        for (size_t i = 0; i < values.size(); ++i) {
          env.emplace(step.node->output(static_cast<int>(i)),
                      std::move(values[i]));
        }
        break;
      }
      case Step::Kind::kLibrary: {
        TraceScope step_scope(OpName(step.node->kind()), "runtime.step");
        if (step_scope.active()) step_scope.AddArg("kind", "library-call");
        KernelCost cost =
            model.EstimateLibrary(ps.library_stats, options.library_efficiency);
        profile.device_time_us += options.batch_launches
                                      ? cost.body_us + kGraphReplayPerNodeUs
                                      : cost.time_us;
        if (cost.memory_bound) profile.memory_bound_launches += 1;
        DISC_RETURN_IF_ERROR(
            check_allocs(tape.step_begin[s], tape.step_begin[s + 1]));
        if (execute_data) {
          std::vector<Tensor> operand_values;
          for (const Value* operand : step.node->operands()) {
            operand_values.push_back(env.at(operand));
          }
          if (step_scope.active()) {
            step_scope.AddArg("variant",
                              ContractionIsaName(SelectContraction(
                                  *step.node, operand_values[0])));
          }
          DISC_ASSIGN_OR_RETURN(std::vector<Tensor> values,
                                EvaluateNode(*step.node, operand_values));
          for (size_t i = 0; i < values.size(); ++i) {
            env.emplace(step.node->output(static_cast<int>(i)),
                        std::move(values[i]));
          }
        }
        break;
      }
      case Step::Kind::kKernel: {
        // Fault seam: a kernel launch failing at runtime (sticky device
        // error, watchdog kill) surfaces as a Status the serving layer can
        // retry or degrade on — never an abort.
        DISC_INJECT_FAILPOINT("runtime.kernel");
        const FusedKernel& kernel = *step.kernel;
        const KernelVariant& variant = kernel.variants()[ps.variant_index];
        const KernelStats& stats = ps.kernel_stats;
        TraceScope step_scope(kernel.name(), "runtime.step");
        if (step_scope.active()) {
          step_scope.AddArg("kind", "kernel-launch");
          step_scope.AddArg("variant", variant.name);
          step_scope.AddArg("isa",
                            ContractionIsaName(kernel.RowIsa(ps.binding)));
        }
        KernelCost cost = model.EstimateGenerated(stats, variant);
        profile.device_time_us += options.batch_launches
                                      ? cost.body_us + kGraphReplayPerNodeUs
                                      : cost.time_us;
        if (cost.memory_bound) profile.memory_bound_launches += 1;
        if (profile_kernels) {
          KernelLaunchObservation obs;
          obs.kernel = &kernel;
          obs.variant_index = ps.variant_index;
          obs.time_us = cost.time_us;
          obs.body_us = cost.body_us;
          obs.memory_bound = cost.memory_bound;
          obs.utilization = cost.utilization;
          obs.bytes = stats.total_bytes();
          obs.flops = stats.flops;
          kernel_observations.push_back(obs);
        }
        // KernelCost.utilization was computed and dropped before; the
        // histogram makes the launch-bound/memory-bound story visible
        // without enabling the ledger.
        metrics.kernel_utilization->Observe(cost.utilization);
        DISC_RETURN_IF_ERROR(
            check_allocs(tape.step_begin[s], tape.step_begin[s + 1]));
        if (execute_data) {
          DISC_RETURN_IF_ERROR(kernel.Execute(ps.binding, &env));
        }
        break;
      }
    }
  }

  if (record_host != nullptr) record_host->bound = true;

  if (options.batch_launches) {
    // One driver submission for the whole captured graph.
    profile.device_time_us += model.launch_overhead_us();
  }
  // Everything else in the profile is a pure function of the signature:
  // the plan's totals and its tape's final allocator stats.
  profile.kernel_launches = plan.kernel_launches;
  profile.library_calls = plan.library_calls;
  profile.bytes_read = plan.bytes_read;
  profile.bytes_written = plan.bytes_written;
  profile.variant_counts = plan.variant_counts;
  profile.peak_memory_bytes = tape.stats.peak_bytes_in_use;
  profile.alloc_calls = tape.stats.alloc_calls;
  profile.alloc_cache_hits = tape.stats.cache_hits;
  profile.alloc_rounding_waste = tape.stats.bytes_rounding_waste;
  // The registry mirrors the per-run allocator counters so profile fields
  // and global metrics can never disagree (asserted in metrics_test).
  metrics.alloc_calls->Increment(profile.alloc_calls);
  metrics.alloc_cache_hits->Increment(profile.alloc_cache_hits);
  metrics.alloc_rounding_waste->Increment(profile.alloc_rounding_waste);
  // Same mirror discipline for the memory-bound verdict the device model
  // computes per launch (generated kernels and library calls both count).
  metrics.memory_bound->Increment(profile.memory_bound_launches);
  metrics.launches->Increment(profile.kernel_launches);

  if (profile_kernels && !kernel_observations.empty()) {
    kernel_ledger.ObserveRun(this, signature, bindings,
                             RequestContext::CurrentTraceId(),
                             profile.device_time_us, kernel_observations);
  }

  if (execute_data) {
    const std::vector<Value*>& outputs = graph_->outputs();
    result.outputs.reserve(outputs.size());
    for (size_t i = 0; i < outputs.size(); ++i) {
      auto it = env.find(outputs[i]);
      if (it == env.end()) {
        return Status::Internal("graph output %" +
                                std::to_string(outputs[i]->id()) +
                                " was not produced");
      }
      result.outputs.push_back(copy_output_[i] ? it->second.Clone()
                                               : it->second);
    }
  }
  return result;
}

std::string Executable::ToString() const {
  std::ostringstream out;
  out << "executable for graph '" << graph_->name() << "' — "
      << report_.ToString() << "\n";
  for (const auto& kernel : kernels_) out << kernel->ToString();
  return out.str();
}

}  // namespace disc
