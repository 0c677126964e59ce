#include "runtime/executable.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <unordered_map>

#if defined(__SANITIZE_ADDRESS__)
#define DISC_ADDRESS_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DISC_ADDRESS_SANITIZER 1
#endif
#endif
#if defined(DISC_ADDRESS_SANITIZER)
#include <sanitizer/asan_interface.h>
#endif

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

// Adds one priced step to a Run's device totals.
void AddStepCost(const KernelCost& cost, DeviceTotals* totals) {
  totals->direct_us += cost.time_us;
  totals->graph_us += cost.body_us + kGraphReplayPerNodeUs;
  if (cost.memory_bound) totals->memory_bound += 1;
}

// Run buffers are aligned to a cache line; arena offsets are multiples of
// kArenaAlignment and the regions past the arena multiples of this.
constexpr int64_t kBufferAlignment = 64;

// Stands in for the null buffer of an empty tensor: every value a step
// touches gets a valid pointer, even when it has no elements.
alignas(kBufferAlignment) std::byte kEmptyBuffer[kBufferAlignment];

void* NonNull(const void* data) {
  return const_cast<void*>(data != nullptr ? data : kEmptyBuffer);
}

// Bytes of `v` in host storage at the dims `shapes` holds: float for f32,
// int64_t for i64 and i1 (Tensor's layout, which the kernels read).
int64_t HostBytes(const Value* v, const ShapeTable& shapes) {
  return shapes.num_elements(v) *
         static_cast<int64_t>(v->dtype() == DType::kF32 ? sizeof(float)
                                                        : sizeof(int64_t));
}

std::vector<int64_t> DimsVector(std::span<const int64_t> dims) {
  return {dims.begin(), dims.end()};
}

// Under AddressSanitizer a Run's buffer is unaddressable except for the
// values live at the current step and that step's scratch, so a loop that
// runs past its value fails as it would past a heap block of its own. No-ops
// otherwise.
void PoisonBytes([[maybe_unused]] const std::byte* p,
                 [[maybe_unused]] int64_t bytes) {
#if defined(DISC_ADDRESS_SANITIZER)
  ASAN_POISON_MEMORY_REGION(p, bytes);
#endif
}
void UnpoisonBytes([[maybe_unused]] const std::byte* p,
                   [[maybe_unused]] int64_t bytes) {
#if defined(DISC_ADDRESS_SANITIZER)
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
}
constexpr bool kPoisonRunBuffers =
#if defined(DISC_ADDRESS_SANITIZER)
    true;
#else
    false;
#endif

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The registry metrics a Run reports, resolved once. The registry never
// removes a metric, so the pointers stay valid for the process lifetime.
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
  return RunInternal(nullptr, &inputs, options);
}

Result<RunResult> Executable::RunWithShapes(
    const std::vector<std::vector<int64_t>>& input_dims,
    const RunOptions& options) const {
  return RunInternal(&input_dims, nullptr, options);
}

Status Executable::CheckInputs(const std::vector<Tensor>& inputs) const {
  const std::vector<Value*>& params = graph_->inputs();
  if (inputs.size() != params.size()) {
    return Status::InvalidArgument(
        StrFormat("Run got %zu inputs; graph '%s' takes %zu", inputs.size(),
                  graph_->name().c_str(), params.size()));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].dtype() != params[i]->dtype()) {
      return Status::InvalidArgument(StrFormat(
          "input %zu is %s; graph '%s' takes %s there", i,
          inputs[i].TypeString().c_str(), graph_->name().c_str(),
          params[i]->type().ToString().c_str()));
    }
  }
  return Status::OK();
}

Status Executable::IndexValues() {
  values_.clear();
  std::unordered_map<const Value*, int> index;
  auto define = [&](const Value* v, int step, int result) {
    index.emplace(v, static_cast<int>(values_.size()));
    values_.push_back({v, step, result, false});
    return static_cast<int>(values_.size()) - 1;
  };
  auto lookup = [&](const Value* v) -> Result<int> {
    auto it = index.find(v);
    if (it == index.end()) {
      return Status::Internal(StrFormat(
          "value %%%d is read before any step defines it", v->id()));
    }
    return it->second;
  };
  for (size_t i = 0; i < graph_->inputs().size(); ++i) {
    define(graph_->inputs()[i], -1, static_cast<int>(i));
  }
  step_values_.assign(steps_.size(), StepValues());
  for (size_t s = 0; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    StepValues& sv = step_values_[s];
    const bool kernel = step.kind == Step::Kind::kKernel;
    const std::vector<Value*>& reads =
        kernel ? step.kernel->group().inputs : step.node->operands();
    const std::vector<Value*>& writes =
        kernel ? step.kernel->group().outputs : step.node->outputs();
    for (const Value* v : reads) {
      DISC_ASSIGN_OR_RETURN(int r, lookup(v));
      sv.reads.push_back(r);
    }
    for (size_t w = 0; w < writes.size(); ++w) {
      sv.writes.push_back(
          define(writes[w], static_cast<int>(s), static_cast<int>(w)));
    }
  }
  for (size_t s = 0; s < steps_.size(); ++s) {
    for (const Value* v : memory_plan_.release_after_step[s]) {
      DISC_ASSIGN_OR_RETURN(int r, lookup(v));
      step_values_[s].releases.push_back(r);
    }
  }
  output_values_.clear();
  output_first_.clear();
  for (const Value* out : graph_->outputs()) {
    DISC_ASSIGN_OR_RETURN(int v, lookup(out));
    values_[v].graph_output = true;
    const auto first =
        std::find(output_values_.begin(), output_values_.end(), v);
    output_first_.push_back(static_cast<int>(first - output_values_.begin()));
    output_values_.push_back(v);
  }
  return Status::OK();
}

std::unique_ptr<Executable::RunBuffer> Executable::TakeRunBuffer(
    int64_t bytes) const {
  std::unique_ptr<RunBuffer> buffer;
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    if (!free_buffers_.empty()) {
      buffer = std::move(free_buffers_.back());
      free_buffers_.pop_back();
    }
  }
  if (buffer == nullptr) {
    buffer = std::make_unique<RunBuffer>();
    buffer->values.resize(values_.size());
  }
  if (buffer->capacity < bytes || buffer->base == nullptr) {
    // Not zero-filled: every loop writes what it later reads, and the
    // constants' arena slots are never touched, so their pages need not
    // become resident.
    const int64_t capacity = std::max(bytes, kBufferAlignment);
    buffer->storage.reset(new std::byte[capacity + kBufferAlignment - 1]);
    buffer->base = reinterpret_cast<std::byte*>(
        RoundUp(reinterpret_cast<intptr_t>(buffer->storage.get()),
                kBufferAlignment));
    buffer->capacity = capacity;
  }
  if (kPoisonRunBuffers) PoisonBytes(buffer->base, buffer->capacity);
  return buffer;
}

void Executable::ReturnRunBuffer(std::unique_ptr<RunBuffer> buffer) const {
  if (kPoisonRunBuffers) UnpoisonBytes(buffer->base, buffer->capacity);
  std::lock_guard<std::mutex> lock(buffer_mu_);
  free_buffers_.push_back(std::move(buffer));
}

Status Executable::BindData(const InputDims& input_dims,
                            LaunchPlan* plan) const {
  const SymbolBindings& bindings = plan->bindings;
  const ShapeTable& shapes = plan->shapes;
  plan->value_offsets.assign(values_.size(), -1);
  // Buffers read in place must be what the analysis predicts, since the
  // steps reading them are laid out from its dims.
  for (const ValueDef& def : values_) {
    const std::vector<int64_t>* actual = nullptr;
    if (def.step < 0) {
      actual = &input_dims[def.result];
    } else if (steps_[def.step].kind == Step::Kind::kConstant) {
      actual = &steps_[def.step].constant->dims();
    }
    if (actual != nullptr && !std::ranges::equal(*actual,
                                                 shapes.dims(def.value))) {
      return Status::Internal(StrFormat(
          "value %%%d is [%s]; the shape analysis predicts [%s]",
          def.value->id(), Join(*actual, "x").c_str(),
          Join(shapes.dims(def.value), "x").c_str()));
    }
  }

  // The arena slots' byte offsets under this signature: the prefix sums of
  // their sizes, which is what each MemoryPlan slot offset evaluates to.
  std::vector<int64_t> slot_bytes, slot_offset;
  int64_t arena_end = 0;
  for (const ArenaSlot& slot : memory_plan_.slots) {
    DISC_ASSIGN_OR_RETURN(int64_t bytes,
                          analysis_->EvaluateDim(slot.bytes, bindings));
    slot_bytes.push_back(bytes);
    slot_offset.push_back(arena_end);
    arena_end += bytes;
  }
  if (arena_end != plan->arena_bytes) {
    return Status::Internal(StrFormat(
        "arena slots sum to %lld bytes; the peak formula gives %lld",
        static_cast<long long>(arena_end),
        static_cast<long long>(plan->arena_bytes)));
  }

  int64_t end = arena_end;  // i1 results go past the arena
  int64_t scratch_bytes = 0;
  plan->data_steps.resize(steps_.size());
  for (size_t s = 0; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    const StepValues& sv = step_values_[s];
    PlannedStep& ps = plan->steps[s];
    DataStep& ds = plan->data_steps[s];
    if (step.kind == Step::Kind::kKernel) {
      DISC_ASSIGN_OR_RETURN(ps.binding, step.kernel->Bind(shapes));
      ds.scratch_bytes = step.kernel->ScratchBytes(ps.binding);
    } else if (step.kind == Step::Kind::kLibrary) {
      const Value* lhs = values_[sv.reads[0]].value;
      const Value* rhs = values_[sv.reads[1]].value;
      const Value* out = values_[sv.writes[0]].value;
      DISC_ASSIGN_OR_RETURN(
          ds.call,
          ResolveContraction(*step.node, lhs->dtype(),
                             DimsVector(shapes.dims(lhs)), rhs->dtype(),
                             DimsVector(shapes.dims(rhs))));
      if (ds.call.dtype != out->dtype() ||
          !std::ranges::equal(ds.call.out_dims, shapes.dims(out))) {
        return Status::Internal(StrFormat(
            "%s %%%d computes %s[%s]; the shape analysis predicts %s[%s]",
            OpName(step.node->kind()), out->id(), DTypeName(ds.call.dtype),
            Join(ds.call.out_dims, "x").c_str(), DTypeName(out->dtype()),
            Join(shapes.dims(out), "x").c_str()));
      }
      ds.scratch_bytes = ds.call.pack_bytes;
    } else {
      continue;  // constants and host results are read in place
    }
    scratch_bytes = std::max(scratch_bytes, ds.scratch_bytes);
    for (int w : sv.writes) {
      const ValueDef& def = values_[w];
      if (def.graph_output) continue;  // written into the returned tensor
      const int64_t bytes = HostBytes(def.value, shapes);
      if (def.value->dtype() == DType::kI1) {
        // Stored as int64_t, 8x the byte its arena slot books.
        plan->value_offsets[w] = end;
        end += RoundUp(bytes, kBufferAlignment);
        continue;
      }
      const int slot = memory_plan_.slot_of.at(def.value);
      if (bytes > slot_bytes[slot]) {
        return Status::Internal(StrFormat(
            "value %%%d needs %lld bytes; its arena slot %d holds %lld",
            def.value->id(), static_cast<long long>(bytes), slot,
            static_cast<long long>(slot_bytes[slot])));
      }
      plan->value_offsets[w] = slot_offset[slot];
    }
  }
  plan->scratch_offset = RoundUp(end, kBufferAlignment);
  plan->buffer_bytes = plan->scratch_offset + scratch_bytes;
  return Status::OK();
}

KernelCost Executable::PriceStep(size_t s, const PlannedStep& ps,
                                 const DeviceModel& model,
                                 double library_efficiency) const {
  const Step& step = steps_[s];
  if (step.kind == Step::Kind::kLibrary) {
    return model.EstimateLibrary(ps.library_stats, library_efficiency);
  }
  return model.EstimateGenerated(ps.kernel_stats,
                                 step.kernel->variants()[ps.variant_index]);
}

Result<LaunchPlan> Executable::BuildLaunchPlan(
    const std::vector<std::vector<int64_t>>& input_dims,
    const RunOptions& options, bool bind) const {
  DISC_TRACE_SCOPE("plan-build", "runtime");
  LaunchPlan plan;
  // Host-side shape computation: solve every symbolic dim once per
  // signature.
  DISC_ASSIGN_OR_RETURN(plan.bindings, analysis_->BindInputs(input_dims));
  DISC_ASSIGN_OR_RETURN(plan.shapes, analysis_->EvaluateShapes(plan.bindings));
  plan.steps.resize(steps_.size());
  const DeviceModel model(options.device);
  plan.priced_device = options.device;
  plan.priced_library_efficiency = options.library_efficiency;
  auto price = [&](size_t s) {
    PlannedStep& ps = plan.steps[s];
    ps.cost = PriceStep(s, ps, model, options.library_efficiency);
    AddStepCost(ps.cost, &plan.device_totals);
  };
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
    auto record_alloc = [&](const Value* v) {
      values.emplace_back(
          v, plan.shapes.num_elements(v) * DTypeSize(v->dtype()));
    };
    switch (step.kind) {
      case Step::Kind::kConstant:
        record_alloc(step.node->output(0));
        break;
      case Step::Kind::kHost:
        break;  // results are data, recorded by the first data-mode run
      case Step::Kind::kLibrary: {
        DISC_ASSIGN_OR_RETURN(ps.library_stats,
                              ComputeLibraryStats(*step.node, plan.shapes));
        price(s);
        plan.library_calls += 1;
        plan.bytes_read += ps.library_stats.bytes_read;
        plan.bytes_written += ps.library_stats.bytes_written;
        for (const Value* out : step.node->outputs()) record_alloc(out);
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
        ps.kernel_stats = kernel.ComputeStats(plan.shapes, variant);
        price(s);
        plan.kernel_utilizations.push_back(ps.cost.utilization);
        plan.kernel_launches += 1;
        plan.bytes_read += ps.kernel_stats.bytes_read;
        plan.bytes_written += ps.kernel_stats.bytes_written;
        (*variant_counts)[kernel.name() + "/" + variant.name] += 1;
        for (const Value* out : kernel.group().outputs) record_alloc(out);
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
  if (bind) DISC_RETURN_IF_ERROR(BindData(input_dims, &plan));
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
  // A signature whose shapes no Run accepts has no peak either.
  DISC_ASSIGN_OR_RETURN(SymbolBindings bindings,
                        analysis_->BindInputs(input_dims));
  DISC_RETURN_IF_ERROR(analysis_->EvaluateShapes(bindings).status());
  return analysis_->EvaluateDim(memory_plan_.peak_bytes, bindings);
}

Result<RunResult> Executable::RunInternal(const InputDims* input_dims,
                                          const std::vector<Tensor>* inputs,
                                          const RunOptions& options) const {
  auto start = std::chrono::steady_clock::now();
  const RunMetrics& metrics = RunMetrics::Get();
  const bool execute_data = inputs != nullptr;
  TraceScope run_scope("executable-run", "runtime");
  metrics.runs->Increment();
  // Steps read raw buffers, so nothing downstream would notice a mistyped
  // input.
  if (execute_data) DISC_RETURN_IF_ERROR(CheckInputs(*inputs));

  // A data-mode Run keys the cache on its inputs' dims and spells them out
  // only when it needs them as a list (plan build, traces, the ledger).
  InputDims own_dims;
  auto dims = [&]() -> const InputDims& {
    if (input_dims == nullptr) {
      own_dims.reserve(inputs->size());
      for (const Tensor& t : *inputs) own_dims.push_back(t.dims());
      input_dims = &own_dims;
    }
    return *input_dims;
  };

  std::shared_ptr<const LaunchPlan> cached;
  if (options.use_launch_plan_cache) {
    cached = input_dims != nullptr ? plan_cache_.Lookup(*input_dims)
                                   : plan_cache_.LookupInputs(*inputs);
  }
  const bool hit = cached != nullptr;

  // Only plans that serve data-mode runs lay out the data path: a
  // timing-only run never executes it.
  LaunchPlan fresh;
  const LaunchPlan* plan = cached.get();
  LaunchPlan* record = nullptr;
  if (!hit) {
    DISC_ASSIGN_OR_RETURN(fresh,
                          BuildLaunchPlan(dims(), options, execute_data));
    plan = &fresh;
    if (execute_data) record = &fresh;
  } else if (execute_data && !cached->bound) {
    // The cached plan was built by a timing-only run; upgrade it once: lay
    // out its data path and record the host shape-step results this run is
    // about to compute.
    fresh = *cached;
    DISC_RETURN_IF_ERROR(BindData(dims(), &fresh));
    plan = &fresh;
    record = &fresh;
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
    run_scope.AddArg("signature", ShapeSignature(dims()));
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
    signature = ShapeSignature(dims());
  }
  // The data-mode buffer goes back to the pool whatever the outcome.
  std::unique_ptr<RunBuffer> buffer;
  if (execute_data) buffer = TakeRunBuffer(plan->buffer_bytes);
  Result<RunResult> result =
      ExecutePlan(*plan, inputs, options, signature, record, buffer.get());
  if (buffer != nullptr) ReturnRunBuffer(std::move(buffer));
  if (!result.ok()) return result;
  result->profile.launch_plan_hit = hit;
  result->profile.host_plan_us = host_plan_us;

  // Publish only after a successful run, so failures never poison the
  // cache; re-publishing an upgraded hit replaces the entry in place. A
  // failed insertion (fault-injected here; allocation failure in a real
  // runtime) is not an error — the run already succeeded, the signature
  // just stays uncached and later runs rebuild the plan.
  if (options.use_launch_plan_cache && (!hit || record != nullptr)) {
    if (Status inject = CheckFailpoint("runtime.plan_cache.insert");
        !inject.ok()) {
      CountMetric("runtime.plan_cache.insert_dropped");
    } else {
      plan_cache_.Insert(dims(),
                         std::make_shared<const LaunchPlan>(std::move(fresh)));
    }
  }
  return result;
}

Tensor Executable::HostOperand(int value, const LaunchPlan& plan,
                               const std::vector<Tensor>& inputs,
                               const RunBuffer& buffer) const {
  const ValueDef& def = values_[value];
  if (def.step < 0) return inputs[def.result];
  const Step& step = steps_[def.step];
  if (step.kind == Step::Kind::kConstant) return *step.constant;
  if (step.kind == Step::Kind::kHost) {
    return plan.steps[def.step].host_results[def.result];
  }
  Tensor copy(def.value->dtype(), DimsVector(plan.shapes.dims(def.value)));
  const int64_t bytes = HostBytes(def.value, plan.shapes);
  if (bytes > 0) std::memcpy(copy.raw_data(), buffer.values[value], bytes);
  return copy;
}

void Executable::StartData(const LaunchPlan& plan,
                           const std::vector<Tensor>& inputs,
                           RunBuffer* buffer,
                           std::vector<Tensor>* outputs) const {
  void** values = buffer->values.data();
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[i] = NonNull(inputs[i].raw_data());
  }
  outputs->reserve(output_values_.size());
  for (size_t i = 0; i < output_values_.size(); ++i) {
    const int v = output_values_[i];
    const ValueDef& def = values_[v];
    const bool computed =
        def.step >= 0 && (steps_[def.step].kind == Step::Kind::kKernel ||
                          steps_[def.step].kind == Step::Kind::kLibrary);
    if (!computed || output_first_[i] != static_cast<int>(i)) {
      outputs->emplace_back();  // FinishData fills it in
      continue;
    }
    outputs->emplace_back(def.value->dtype(),
                          DimsVector(plan.shapes.dims(def.value)));
    values[v] = NonNull(outputs->back().raw_data());
  }
}

Status Executable::RunStepData(size_t s, const LaunchPlan& plan,
                               const std::vector<Tensor>& inputs,
                               LaunchPlan* record, RunBuffer* buffer) const {
  const Step& step = steps_[s];
  const StepValues& sv = step_values_[s];
  const PlannedStep& ps = plan.steps[s];
  void** values = buffer->values.data();
  std::byte* scratch = buffer->base + plan.scratch_offset;
  const int64_t scratch_bytes = plan.data_steps[s].scratch_bytes;
  // Point the step's arena results at their places; under
  // AddressSanitizer also open them and the step's scratch.
  for (int w : sv.writes) {
    const int64_t offset = plan.value_offsets[w];
    if (offset < 0) continue;
    values[w] = buffer->base + offset;
    if (kPoisonRunBuffers) {
      UnpoisonBytes(buffer->base + offset,
                    HostBytes(values_[w].value, plan.shapes));
    }
  }
  if (kPoisonRunBuffers) UnpoisonBytes(scratch, scratch_bytes);

  switch (step.kind) {
    case Step::Kind::kConstant:
      values[sv.writes[0]] = NonNull(step.constant->raw_data());
      break;
    case Step::Kind::kHost:
      if (!ps.has_host_results) {
        // The recording Run: only here do operands become tensors.
        DISC_CHECK(record != nullptr) << "bound plan without host results";
        std::vector<Tensor> operands;
        for (int r : sv.reads) {
          operands.push_back(HostOperand(r, plan, inputs, *buffer));
        }
        DISC_ASSIGN_OR_RETURN(std::vector<Tensor> results,
                              EvaluateNode(*step.node, operands));
        for (size_t i = 0; i < results.size(); ++i) {
          const Value* w = values_[sv.writes[i]].value;
          if (results[i].dtype() != w->dtype() ||
              !std::ranges::equal(results[i].dims(), plan.shapes.dims(w))) {
            return Status::Internal(StrFormat(
                "host step result %%%d is %s; the shape analysis predicts "
                "%s[%s]",
                w->id(), results[i].TypeString().c_str(),
                DTypeName(w->dtype()), Join(plan.shapes.dims(w), "x").c_str()));
          }
        }
        PlannedStep& recorded = record->steps[s];
        recorded.host_results = std::move(results);
        recorded.has_host_results = true;
      }
      for (size_t i = 0; i < sv.writes.size(); ++i) {
        values[sv.writes[i]] = NonNull(ps.host_results[i].raw_data());
      }
      break;
    case Step::Kind::kLibrary:
      RunContraction(plan.data_steps[s].call, values[sv.reads[0]],
                     values[sv.reads[1]], values[sv.writes[0]], scratch);
      break;
    case Step::Kind::kKernel:
      DISC_RETURN_IF_ERROR(step.kernel->Execute(
          ps.binding,
          KernelBuffers{values, sv.reads.data(), sv.writes.data(), scratch}));
      break;
  }

  if (kPoisonRunBuffers) {
    // Close the scratch and every value whose last use this was.
    PoisonBytes(scratch, scratch_bytes);
    for (int r : sv.releases) {
      const int64_t offset = plan.value_offsets[r];
      if (offset < 0) continue;
      PoisonBytes(buffer->base + offset,
                  HostBytes(values_[r].value, plan.shapes));
    }
  }
  return Status::OK();
}

void Executable::FinishData(const LaunchPlan& plan,
                            const std::vector<Tensor>& inputs,
                            std::vector<Tensor>* outputs) const {
  // The outputs not written in place: inputs are shared, constants and
  // host results (which the executable keeps) copied, and a repeated
  // result shares its first tensor.
  for (size_t i = 0; i < output_values_.size(); ++i) {
    const ValueDef& def = values_[output_values_[i]];
    Tensor& out = (*outputs)[i];
    if (def.step < 0) {
      out = inputs[def.result];
    } else if (steps_[def.step].kind == Step::Kind::kConstant) {
      out = steps_[def.step].constant->Clone();
    } else if (steps_[def.step].kind == Step::Kind::kHost) {
      out = plan.steps[def.step].host_results[def.result].Clone();
    } else if (output_first_[i] != static_cast<int>(i)) {
      out = (*outputs)[output_first_[i]];
    }
  }
}

Result<RunResult> Executable::ExecutePlan(const LaunchPlan& plan,
                                          const std::vector<Tensor>* inputs,
                                          const RunOptions& options,
                                          const std::string& signature,
                                          LaunchPlan* record,
                                          RunBuffer* buffer) const {
  DISC_TRACE_SCOPE("plan-execute", "runtime");
  const RunMetrics& metrics = RunMetrics::Get();
  RunResult result;
  RunProfile& profile = result.profile;
  // One relaxed atomic load decides whether this Run feeds the kernel
  // observatory; launches are buffered locally and flushed in ONE
  // ObserveRun (one lock) after the step loop.
  KernelProfileLedger& kernel_ledger = KernelProfileLedger::Global();
  const bool profile_kernels = kernel_ledger.enabled();
  std::vector<KernelLaunchObservation> kernel_observations;
  const bool execute_data = buffer != nullptr;
  const bool use_arena =
      options.memory_mode == MemoryMode::kArena && memory_plan_.planned;

  // The plan's allocation tape stands in for the allocator: the Run makes
  // each recorded call's checks, in the order the calls would come, and
  // skips them when none can fail. Arena mode's one call comes before any
  // step executes, so its limit check (and any armed runtime.alloc
  // failpoint) fires there, never mid-Run.
  const AllocationTape& tape = use_arena ? plan.arena_tape : plan.caching_tape;
  const bool check_tape =
      FailpointRegistry::AnyArmed() || options.memory_limit_bytes > 0;
  auto check_allocs = [&](uint32_t begin, uint32_t end) -> Status {
    if (!check_tape) return Status::OK();
    for (uint32_t i = begin; i < end; ++i) {
      DISC_RETURN_IF_ERROR(CachingAllocator::CheckAllocation(
          tape.allocs[i].bytes, tape.allocs[i].in_use_before,
          options.memory_limit_bytes));
    }
    return Status::OK();
  };
  if (use_arena) profile.arena_bytes = plan.arena_bytes;

  // Under the plan's pricing key the Run's device time is the plan's, and
  // each step's cost is read from it. Under another key each step is
  // priced here, by the same function, and summed in the same order.
  const bool priced = options.device == plan.priced_device &&
                      options.library_efficiency ==
                          plan.priced_library_efficiency;
  std::optional<DeviceModel> model;
  if (!priced) model.emplace(options.device);
  DeviceTotals repriced;
  auto step_cost = [&](size_t s, const PlannedStep& ps) {
    if (priced) return ps.cost;
    const KernelCost cost =
        PriceStep(s, ps, *model, options.library_efficiency);
    AddStepCost(cost, &repriced);
    return cost;
  };

  // A Run with nothing to observe step by step walks no step: timing-only,
  // priced by the plan, with no failpoint site that can fire, no
  // allocation check that can fail, and no trace span or ledger
  // observation to record. Its profile is the plan's.
  const bool walk_steps = execute_data || !priced || check_tape ||
                          TraceSession::Global().enabled() || profile_kernels;
  if (!walk_steps) {
    metrics.kernel_utilization->ObserveAll(plan.kernel_utilizations);
  } else {
    DISC_RETURN_IF_ERROR(check_allocs(0, tape.step_begin[0]));
    if (execute_data) StartData(plan, *inputs, buffer, &result.outputs);
  }

  for (size_t s = 0; walk_steps && s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    const PlannedStep& ps = plan.steps[s];
    switch (step.kind) {
      case Step::Kind::kConstant: {
        // Weights are resident on device for the module's lifetime.
        DISC_RETURN_IF_ERROR(
            check_allocs(tape.step_begin[s], tape.step_begin[s + 1]));
        if (execute_data) {
          DISC_RETURN_IF_ERROR(RunStepData(s, plan, *inputs, record, buffer));
        }
        break;
      }
      case Step::Kind::kHost: {
        // Shape computation runs on the host CPU alongside kernel
        // launches; it contributes no device time. Results are a pure
        // function of the shape signature, so a plan that recorded them
        // shares them instead of re-evaluating the node (nothing writes to
        // them, and outputs that are host results get copied).
        if (!execute_data) break;
        TraceScope step_scope("host-shape-op", "runtime.step");
        if (step_scope.active()) {
          step_scope.AddArg("op", OpName(step.node->kind()));
          step_scope.AddArg("replayed",
                            ps.has_host_results ? "true" : "false");
        }
        DISC_RETURN_IF_ERROR(RunStepData(s, plan, *inputs, record, buffer));
        break;
      }
      case Step::Kind::kLibrary: {
        TraceScope step_scope(OpName(step.node->kind()), "runtime.step");
        if (step_scope.active()) step_scope.AddArg("kind", "library-call");
        step_cost(s, ps);
        DISC_RETURN_IF_ERROR(
            check_allocs(tape.step_begin[s], tape.step_begin[s + 1]));
        if (execute_data) {
          if (step_scope.active()) {
            step_scope.AddArg("variant", ContractionIsaName(
                                             plan.data_steps[s].call.isa));
          }
          DISC_RETURN_IF_ERROR(RunStepData(s, plan, *inputs, record, buffer));
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
        const KernelCost cost = step_cost(s, ps);
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
          DISC_RETURN_IF_ERROR(RunStepData(s, plan, *inputs, record, buffer));
        }
        break;
      }
    }
  }

  if (record != nullptr) record->bound = true;

  const DeviceTotals& totals = priced ? plan.device_totals : repriced;
  // With graph replay, one driver submission for the whole captured graph.
  profile.device_time_us =
      options.batch_launches
          ? totals.graph_us + options.device.kernel_launch_us
          : totals.direct_us;
  profile.memory_bound_launches = totals.memory_bound;
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
    kernel_ledger.ObserveRun(this, signature, plan.bindings,
                             RequestContext::CurrentTraceId(),
                             profile.device_time_us, kernel_observations);
  }

  if (execute_data) FinishData(plan, *inputs, &result.outputs);
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
