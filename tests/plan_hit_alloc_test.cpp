// A timing-only launch-plan hit must not touch the heap: the plan holds
// every piece of per-Run bookkeeping that depends only on the signature
// (totals, variant counts, the allocation tape), the cache keys on the
// dims themselves, and the metric handles are resolved once. The
// operator-new hook (alloc_hook.h, shared with trace_alloc_test) counts the
// bytes each call allocates.
#include <gtest/gtest.h>

#include "alloc_hook.h"
#include "baselines/dynamic_engine.h"
#include "models/models.h"

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

INSTANTIATE_TEST_SUITE_P(MemoryModes, PlanHitAllocTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Arena"
                                                          : "Caching");
                         });

}  // namespace
}  // namespace disc
