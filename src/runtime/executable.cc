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
  if (!variant_counts.empty()) {
    out << " variants{";
    bool first = true;
    for (const auto& [name, count] : variant_counts) {
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

  for (size_t s = 0; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    PlannedStep& ps = plan.steps[s];
    auto record_alloc = [&](const Value* v) -> Status {
      DISC_ASSIGN_OR_RETURN(std::vector<int64_t> dims,
                            analysis_->EvaluateShape(v, plan.bindings));
      ps.alloc_bytes.push_back(Product(dims) * DTypeSize(v->dtype()));
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
        for (const Value* out : step.node->outputs()) {
          DISC_RETURN_IF_ERROR(record_alloc(out));
        }
        break;
      }
      case Step::Kind::kKernel: {
        const FusedKernel& kernel = *step.kernel;
        DISC_ASSIGN_OR_RETURN(ps.variant_index,
                              kernel.SelectVariantIndex(plan.bindings));
        // Guard soundness check: the selected variant's guard must admit
        // these bindings. Dispatch normally guarantees this (guards are
        // evaluated in order), so a violation here means the dispatch
        // itself is miscompiled — surface it as kDataLoss so the engine
        // rolls back instead of retrying the same broken artifact.
        {
          const Guard& guard = kernel.variants()[ps.variant_index].guard;
          DISC_ASSIGN_OR_RETURN(bool admitted, guard.Evaluate(plan.bindings));
          if (!admitted) {
            return Status::DataLoss(StrFormat(
                "guard violation: kernel %s selected variant %d ('%s') whose "
                "guard rejects the bound shapes",
                kernel.name().c_str(), ps.variant_index,
                kernel.variants()[ps.variant_index].name.c_str()));
          }
        }
        DISC_ASSIGN_OR_RETURN(
            ps.kernel_stats,
            kernel.ComputeStats(plan.bindings,
                                kernel.variants()[ps.variant_index]));
        for (const Value* out : kernel.group().outputs) {
          DISC_RETURN_IF_ERROR(record_alloc(out));
        }
        break;
      }
    }
  }

  // Memoize the arena size for this signature: the peak formula evaluated
  // once. Mode-independent and cheap, so a single cached plan serves every
  // MemoryMode (and admission control) and a plan hit performs no size
  // arithmetic at all.
  if (memory_plan_.planned && memory_plan_.peak_bytes.valid()) {
    DISC_ASSIGN_OR_RETURN(
        plan.arena_bytes,
        analysis_->EvaluateDim(memory_plan_.peak_bytes, plan.bindings));
  }
  if (bind) DISC_RETURN_IF_ERROR(BindKernels(&plan));
  return plan;
}

Result<int64_t> Executable::PredictPeakBytes(
    const std::vector<std::vector<int64_t>>& input_dims) const {
  if (!memory_plan_.planned || !memory_plan_.peak_bytes.valid()) return 0;
  // A hot signature answers straight from the memoized plan; Peek leaves
  // the cache stats and LRU order untouched (prediction is observational).
  if (std::shared_ptr<const LaunchPlan> plan =
          plan_cache_.Peek(ShapeSignature(input_dims))) {
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
  const bool execute_data = inputs != nullptr;
  TraceScope run_scope("executable-run", "runtime");
  CountMetric("runtime.run.count");

  std::string signature;
  std::shared_ptr<const LaunchPlan> cached;
  if (options.use_launch_plan_cache) {
    signature = ShapeSignature(input_dims);
    cached = plan_cache_.Lookup(signature);
  }
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
    CountMetric(hit ? "runtime.plan_cache.hit" : "runtime.plan_cache.miss");
  }
  ObserveMetric("runtime.host_plan_us", host_plan_us);
  if (run_scope.active()) {
    run_scope.AddArg("plan", options.use_launch_plan_cache
                                 ? (hit ? "hit" : "miss")
                                 : "cache-off");
    run_scope.AddArg("signature", signature.empty()
                                      ? ShapeSignature(input_dims)
                                      : signature);
    run_scope.AddArg("mode", execute_data ? "data" : "timing-only");
    // Causal link back to the serving request that issued this Run (0
    // outside a serving context).
    const uint64_t trace_id = RequestContext::CurrentTraceId();
    if (trace_id != 0) {
      run_scope.AddArg("trace_id", std::to_string(trace_id));
    }
  }

  // The observatory keys entries by shape signature; reuse the cache key
  // when it exists, compute it only for ledger-enabled cache-off runs.
  if (signature.empty() && KernelProfileLedger::Global().enabled()) {
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
          signature, std::make_shared<const LaunchPlan>(std::move(fresh)));
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
  CachingAllocator allocator(options.memory_limit_bytes);
  const bool execute_data = inputs != nullptr;
  const bool use_arena =
      options.memory_mode == MemoryMode::kArena && memory_plan_.planned;

  // Arena mode allocates the whole Run's footprint in ONE call against the
  // memoized peak formula: the limit check (and any armed runtime.alloc
  // failpoint) fires here, before any step executes, never mid-Run.
  if (use_arena) {
    if (plan.arena_bytes > 0) {
      DISC_RETURN_IF_ERROR(allocator.Allocate(plan.arena_bytes).status());
    }
    profile.arena_bytes = plan.arena_bytes;
  }

  std::unordered_map<const Value*, Tensor> env;
  if (execute_data) {
    for (size_t i = 0; i < graph_->inputs().size(); ++i) {
      env.emplace(graph_->inputs()[i], (*inputs)[i]);
    }
  }

  std::unordered_map<const Value*, int64_t> block_of;
  for (size_t s = 0; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    const PlannedStep& ps = plan.steps[s];
    size_t next_alloc = 0;
    auto allocate_value = [&](const Value* v) -> Status {
      const int64_t bytes = ps.alloc_bytes[next_alloc++];
      // Arena residents (constants included) live at their offsets in the
      // pre-allocated arena. They never enter block_of, so the release
      // loop naturally skips them.
      if (use_arena && memory_plan_.slot_of.count(v)) return Status::OK();
      DISC_ASSIGN_OR_RETURN(block_of[v], allocator.Allocate(bytes));
      return Status::OK();
    };
    switch (step.kind) {
      case Step::Kind::kConstant: {
        // Weights are resident on device for the module's lifetime.
        DISC_RETURN_IF_ERROR(allocate_value(step.node->output(0)));
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
        step_scope.AddArg("op", OpName(step.node->kind()));
        step_scope.AddArg("replayed", ps.has_host_results ? "true" : "false");
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
        step_scope.AddArg("kind", "library-call");
        const LibraryCallStats& stats = ps.library_stats;
        KernelCost cost =
            model.EstimateLibrary(stats, options.library_efficiency);
        profile.device_time_us += options.batch_launches
                                      ? cost.body_us + kGraphReplayPerNodeUs
                                      : cost.time_us;
        profile.library_calls += 1;
        profile.bytes_read += stats.bytes_read;
        profile.bytes_written += stats.bytes_written;
        if (cost.memory_bound) profile.memory_bound_launches += 1;
        for (const Value* out : step.node->outputs()) {
          DISC_RETURN_IF_ERROR(allocate_value(out));
        }
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
        step_scope.AddArg("kind", "kernel-launch");
        step_scope.AddArg("variant", variant.name);
        KernelCost cost = model.EstimateGenerated(stats, variant);
        profile.device_time_us += options.batch_launches
                                      ? cost.body_us + kGraphReplayPerNodeUs
                                      : cost.time_us;
        profile.kernel_launches += 1;
        profile.bytes_read += stats.bytes_read;
        profile.bytes_written += stats.bytes_written;
        profile.variant_counts[kernel.name() + "/" + variant.name] += 1;
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
        // without enabling the ledger. Pointer cached: stable for the
        // process lifetime, and the non-default bounds (utilization is a
        // fraction) only apply on first registration anyway.
        static Histogram* utilization_hist =
            MetricsRegistry::Global().GetHistogram(
                "runtime.kernel.utilization",
                {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
        utilization_hist->Observe(cost.utilization);
        for (const Value* out : kernel.group().outputs) {
          DISC_RETURN_IF_ERROR(allocate_value(out));
        }
        if (execute_data) {
          DISC_RETURN_IF_ERROR(kernel.Execute(ps.binding, &env));
        }
        break;
      }
    }
    for (const Value* dead : memory_plan_.release_after_step[s]) {
      auto it = block_of.find(dead);
      if (it != block_of.end()) {
        DISC_RETURN_IF_ERROR(allocator.Free(it->second));
        block_of.erase(it);
      }
    }
  }

  if (record_host != nullptr) record_host->bound = true;

  if (options.batch_launches) {
    // One driver submission for the whole captured graph.
    profile.device_time_us += model.launch_overhead_us();
  }
  profile.peak_memory_bytes = allocator.stats().peak_bytes_in_use;
  profile.alloc_calls = allocator.stats().alloc_calls;
  profile.alloc_cache_hits = allocator.stats().cache_hits;
  profile.alloc_rounding_waste = allocator.stats().bytes_rounding_waste;
  // The registry mirrors the per-run allocator counters so profile fields
  // and global metrics can never disagree (asserted in metrics_test).
  CountMetric("runtime.alloc.calls", profile.alloc_calls);
  CountMetric("runtime.alloc.cache_hits", profile.alloc_cache_hits);
  CountMetric("runtime.alloc.bytes_rounding_waste",
              profile.alloc_rounding_waste);
  // Same mirror discipline for the memory-bound verdict the device model
  // computes per launch (generated kernels and library calls both count).
  CountMetric("runtime.kernel.memory_bound", profile.memory_bound_launches);
  CountMetric("runtime.kernel.launches", profile.kernel_launches);

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
