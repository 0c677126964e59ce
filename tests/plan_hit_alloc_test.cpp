// A timing-only launch-plan hit must not touch the heap: the plan holds
// every piece of per-Run bookkeeping that depends only on the signature
// (totals, variant counts, the allocation tape, the priced step costs),
// the cache keys on the dims themselves, and the metric handles are
// resolved once. A data-mode hit allocates only what it returns: the plan
// also holds the data layout, and the Run's buffer comes from the
// executable's pool. Both hold for a Run under another device or library
// efficiency than the plan was priced under, which prices each step
// instead of reading the plan's costs. The operator-new hook (alloc_hook.h,
// shared with trace_alloc_test and runtime_test) counts the bytes each call
// allocates.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "alloc_hook.h"
#include "baselines/dynamic_engine.h"
#include "compiler/compiler.h"
#include "ir/eval.h"
#include "models/models.h"
#include "support/failpoint.h"

namespace disc {
namespace {

// Bytes `fn` allocates, and whether it succeeded.
template <typename Fn>
int64_t AllocatedBytes(Fn&& fn, bool* ok) {
  StartCountingAllocations();
  *ok = fn();
  return StopCountingAllocations();
}

class PlanHitAllocTest : public ::testing::TestWithParam<bool> {};

TEST_P(PlanHitAllocTest, TimingOnlyHitsAllocateNothing) {
  const bool arena = GetParam();
  const DeviceSpec device = DeviceSpec::A10();
  for (const Model& model : {BuildBert(), BuildGptStepBatch()}) {
    DynamicCompilerEngine engine(arena ? DynamicProfile::DiscArena()
                                       : DynamicProfile::Disc());
    ASSERT_TRUE(engine.Prepare(*model.graph, model.input_dim_labels).ok());
    const Executable& exe = *engine.executable();
    RunOptions options;
    options.memory_mode =
        arena ? MemoryMode::kArena : MemoryMode::kCachingAllocator;
    // The engine's Queries build every plan under A10 at the default
    // library efficiency; a Run under another key prices each step itself.
    RunOptions other_key = options;
    other_key.device = DeviceSpec::T4();
    other_key.library_efficiency = 0.5;
    // Warm every signature of the trace once; each later call hits.
    for (const ShapeSet& shapes : model.trace) {
      ASSERT_TRUE(engine.Query(shapes, device).ok()) << model.name;
    }
    for (const ShapeSet& shapes : model.trace) {
      const std::string where = model.name + " " + ShapeSignature(shapes);
      bool ok = false;
      EXPECT_EQ(AllocatedBytes(
                    [&] {
                      auto r = exe.RunWithShapes(shapes, options);
                      return r.ok() && r->profile.launch_plan_hit;
                    },
                    &ok),
                0)
          << "RunWithShapes " << where;
      EXPECT_TRUE(ok) << where;
      EXPECT_EQ(AllocatedBytes(
                    [&] {
                      auto r = exe.RunWithShapes(shapes, other_key);
                      return r.ok() && r->profile.launch_plan_hit;
                    },
                    &ok),
                0)
          << "RunWithShapes under another key " << where;
      EXPECT_TRUE(ok) << where;
      EXPECT_EQ(AllocatedBytes(
                    [&] {
                      const int64_t hits = engine.stats().launch_plan_hits;
                      return engine.Query(shapes, device).ok() &&
                             engine.stats().launch_plan_hits == hits + 1;
                    },
                    &ok),
                0)
          << "Query " << where;
      EXPECT_TRUE(ok) << where;
      EXPECT_EQ(AllocatedBytes(
                    [&] { return engine.PredictPeakBytes(shapes).ok(); }, &ok),
                0)
          << "PredictPeakBytes " << where;
      EXPECT_TRUE(ok) << where;
    }

    // The hook sees a miss's allocations: plan build is not free.
    exe.ClearPlanCache();
    bool ok = false;
    EXPECT_GT(AllocatedBytes(
                  [&] {
                    auto r = exe.RunWithShapes(model.trace.front(), options);
                    return r.ok() && !r->profile.launch_plan_hit;
                  },
                  &ok),
              0)
        << model.name;
    EXPECT_TRUE(ok) << model.name;
  }
}

// The bytes that constructing `outputs`' tensors and a vector holding them
// allocates: all a data-mode hit may allocate.
int64_t OutputBytes(const std::vector<Tensor>& outputs) {
  bool ok = false;
  return AllocatedBytes(
      [&] {
        std::vector<Tensor> fresh;
        fresh.reserve(outputs.size());
        for (const Tensor& t : outputs) fresh.emplace_back(t.dtype(), t.dims());
        return true;
      },
      &ok);
}

TEST_P(PlanHitAllocTest, DataModeHitsAllocateOnlyTheirOutputs) {
  RunOptions options;
  options.memory_mode =
      GetParam() ? MemoryMode::kArena : MemoryMode::kCachingAllocator;
  // Hits under the key that priced the plan read its costs; hits under
  // another key price each step. Neither may collect anything per Run.
  RunOptions other_key = options;
  other_key.device = DeviceSpec::XeonCpu();
  other_key.library_efficiency = 0.5;
  std::vector<Model> models = BuildModelSuite();
  models.push_back(BuildGptStepBatch());
  for (const Model& model : models) {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
    std::vector<std::vector<Tensor>> inputs;
    for (const ShapeSet& shapes : model.trace) {
      inputs.push_back(model.make_inputs(shapes, inputs.size() + 1));
      auto warm = (*exe)->Run(inputs.back(), options);
      ASSERT_TRUE(warm.ok()) << model.name << ": " << warm.status().ToString();
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
      for (const RunOptions& key : {options, other_key}) {
        const std::string where =
            model.name + " " + ShapeSignature(model.trace[i]) + " on " +
            key.device.name;
        Result<RunResult> r = Status::Internal("not run");
        bool ok = false;
        const int64_t bytes = AllocatedBytes(
            [&] {
              r = (*exe)->Run(inputs[i], key);
              return r.ok() && r->profile.launch_plan_hit;
            },
            &ok);
        ASSERT_TRUE(ok) << where << ": " << r.status().ToString();
        EXPECT_LE(bytes, OutputBytes(r->outputs)) << where;
      }
    }
    bool ok = false;
    EXPECT_EQ(AllocatedBytes(
                  [&] {
                    return (*exe)->RunWithShapes(model.trace.back(), options)
                        .ok();
                  },
                  &ok),
              0)
        << model.name;
    EXPECT_TRUE(ok) << model.name;
  }
}

TEST_P(PlanHitAllocTest, FaultedRunsReturnTheirBuffer) {
  // A Run that fails part-way (a kernel fault, or an allocation check in
  // caching mode, after some steps have run) still returns its buffer to
  // the pool: the next hit allocates only its outputs, and its outputs are
  // bit-identical to the reference evaluator's.
  RunOptions options;
  options.memory_mode =
      GetParam() ? MemoryMode::kArena : MemoryMode::kCachingAllocator;
  Model model = BuildBert();
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  const std::vector<Tensor> inputs = model.make_inputs(model.trace[0], 5);
  auto want = EvaluateGraph(*model.graph, inputs);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE((*exe)->Run(inputs, options).ok());
  FailpointRegistry& registry = FailpointRegistry::Global();
  for (const char* failpoint : {"runtime.kernel", "runtime.alloc"}) {
    auto spec = FailpointSpec::Parse("every:3:code=unavailable");
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    registry.Arm(failpoint, *spec);
    bool failed = false;
    for (int i = 0; i < 3 && !failed; ++i) {
      failed = !(*exe)->Run(inputs, options).ok();
    }
    registry.DisarmAll();
    EXPECT_TRUE(failed) << failpoint;
    Result<RunResult> r = Status::Internal("not run");
    bool ok = false;
    const int64_t bytes = AllocatedBytes(
        [&] {
          r = (*exe)->Run(inputs, options);
          return r.ok() && r->profile.launch_plan_hit;
        },
        &ok);
    ASSERT_TRUE(ok) << failpoint << ": " << r.status().ToString();
    EXPECT_LE(bytes, OutputBytes(r->outputs)) << failpoint;
    ASSERT_EQ(r->outputs.size(), want->size());
    for (size_t o = 0; o < want->size(); ++o) {
      EXPECT_TRUE(Tensor::BitEqual(r->outputs[o], (*want)[o]))
          << failpoint << " output " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MemoryModes, PlanHitAllocTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Arena"
                                                          : "Caching");
                         });

TEST(PlanMissAllocTest, MissesStayWithinBudget) {
  // A plan miss evaluates each distinct dim expression once into the
  // signature's shape table, which every later step of plan build reads;
  // a consumer that evaluated dims itself again would show as a multiple
  // of these counts. Timing-only and data-mode misses (the cache off) at
  // each graph's mid-trace signature, after one warm-up Run; the budgets
  // are 1.25x the allocation calls measured when they were set.
  const std::map<std::string, std::pair<int64_t, int64_t>> measured = {
      {"bert", {157, 2202}},       {"seq2seq-step", {75, 609}},
      {"crnn", {60, 314}},         {"fastspeech2", {171, 2206}},
      {"dlrm", {90, 672}},         {"mlp", {38, 174}},
      {"gpt-step-batch", {83, 710}}};
  std::vector<Model> models = BuildModelSuite();
  models.push_back(BuildGptStepBatch());
  RunOptions off;
  off.use_launch_plan_cache = false;
  for (const Model& model : models) {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
    const ShapeSet& shapes = model.trace[model.trace.size() / 2];
    const std::vector<Tensor> inputs = model.make_inputs(shapes, 5);
    ASSERT_TRUE((*exe)->RunWithShapes(shapes, off).ok()) << model.name;
    ASSERT_TRUE((*exe)->Run(inputs, off).ok()) << model.name;
    StartCountingAllocations();
    const bool timing_ok = (*exe)->RunWithShapes(shapes, off).ok();
    StopCountingAllocations();
    const int64_t timing_calls = CountedAllocationCalls();
    StartCountingAllocations();
    const bool data_ok = (*exe)->Run(inputs, off).ok();
    StopCountingAllocations();
    const int64_t data_calls = CountedAllocationCalls();
    ASSERT_TRUE(timing_ok && data_ok) << model.name;
    auto it = measured.find(model.name);
    ASSERT_NE(it, measured.end()) << model.name;
    const auto [timing, data] = it->second;
    EXPECT_LE(timing_calls, timing + timing / 4)
        << model.name << " timing-only miss: " << timing_calls
        << " allocation calls; measured " << timing;
    EXPECT_LE(data_calls, data + data / 4)
        << model.name << " data-mode miss: " << data_calls
        << " allocation calls; measured " << data;
  }
}

}  // namespace
}  // namespace disc
