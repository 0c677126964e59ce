// Launch-plan cache: hit/miss accounting, LRU bounds over dims keys,
// observational equivalence of cached runs (bit-identical outputs, equal
// profiles, equal allocation failures), host-result replay, and concurrent
// Run safety.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "baselines/dynamic_engine.h"
#include "baselines/interpreter_engine.h"
#include "compiler/compiler.h"
#include "golden_digest.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "models/models.h"
#include "runtime/launch_plan.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace disc {
namespace {

Tensor RandomF32(Rng* rng, std::vector<int64_t> dims) {
  Tensor t(DType::kF32, std::move(dims));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.f32_data()[i] = rng->Normal();
  }
  return t;
}

// A model with every step kind: host shape program (Dim/Cast), a library
// call (MatMul), and fused kernels with specialization guards.
std::unique_ptr<Executable> CompileModel() {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 32});
  Tensor w(DType::kF32, {32, 32});
  Rng rng(7);
  for (int64_t i = 0; i < w.num_elements(); ++i) {
    w.f32_data()[i] = rng.Normal() * 0.1f;
  }
  Value* y = b.MatMul(x, b.Constant(w));
  Value* total = b.ReduceSum(y, {1});                // [B]
  Value* len = b.Cast(b.Dim(x, 0), DType::kF32);     // host shape value
  b.Output({b.Softmax(b.Relu(y)), b.Div(total, len), b.ShapeOf(x)});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}});
  EXPECT_TRUE(exe.ok()) << exe.status().ToString();
  return std::move(*exe);
}

// Every RunProfile field but the measured host_plan_us and the hit flag.
void ExpectSameProfile(const RunProfile& a, const RunProfile& b,
                       const std::string& where) {
  EXPECT_EQ(a.device_time_us, b.device_time_us) << where;
  EXPECT_EQ(a.kernel_launches, b.kernel_launches) << where;
  EXPECT_EQ(a.library_calls, b.library_calls) << where;
  EXPECT_EQ(a.memory_bound_launches, b.memory_bound_launches) << where;
  EXPECT_EQ(a.bytes_read, b.bytes_read) << where;
  EXPECT_EQ(a.bytes_written, b.bytes_written) << where;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << where;
  EXPECT_EQ(a.alloc_calls, b.alloc_calls) << where;
  EXPECT_EQ(a.alloc_cache_hits, b.alloc_cache_hits) << where;
  EXPECT_EQ(a.alloc_rounding_waste, b.alloc_rounding_waste) << where;
  EXPECT_EQ(a.arena_bytes, b.arena_bytes) << where;
  ASSERT_NE(a.variant_counts, nullptr) << where;
  ASSERT_NE(b.variant_counts, nullptr) << where;
  EXPECT_EQ(*a.variant_counts, *b.variant_counts) << where;
}

TEST(ShapeSignatureTest, CanonicalAndCollisionFree) {
  EXPECT_EQ(ShapeSignature({{2, 3}, {4, 5}}), "2x3;4x5;");
  EXPECT_EQ(ShapeSignature({}), "");
  EXPECT_EQ(ShapeSignature({{}}), ";");  // rank-0
  // Rank boundaries must not collide: [2,3],[4] vs [2],[3,4].
  EXPECT_NE(ShapeSignature({{2, 3}, {4}}), ShapeSignature({{2}, {3, 4}}));
}

TEST(ShapeSignatureTest, ParseRejectsDimsBeyondInt64) {
  auto max = ParseShapeSignature("9223372036854775807x2;");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(*max, (std::vector<std::vector<int64_t>>{
                      {std::numeric_limits<int64_t>::max(), 2}}));
  EXPECT_EQ(ShapeSignature(*max), "9223372036854775807x2;");
  for (const char* bad : {"9223372036854775808;", "99999999999999999999;"}) {
    auto parsed = ParseShapeSignature(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(LaunchPlanCacheTest, LruEvictsBeyondCapacity) {
  LaunchPlanCache cache(8);
  for (int64_t i = 0; i < 1000; ++i) {
    cache.Insert({{i}}, std::make_shared<const LaunchPlan>());
  }
  LaunchPlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 8);
  EXPECT_EQ(stats.insertions, 1000);
  EXPECT_EQ(stats.evictions, 992);
  // Most-recent 8 survive; older keys are gone.
  EXPECT_NE(cache.Lookup({{999}}), nullptr);
  EXPECT_NE(cache.Lookup({{992}}), nullptr);
  EXPECT_EQ(cache.Lookup({{991}}), nullptr);
  EXPECT_EQ(cache.Lookup({{0}}), nullptr);
}

TEST(LaunchPlanCacheTest, LookupRefreshesRecency) {
  LaunchPlanCache cache(2);
  cache.Insert({{1}}, std::make_shared<const LaunchPlan>());
  cache.Insert({{2}}, std::make_shared<const LaunchPlan>());
  ASSERT_NE(cache.Lookup({{1}}), nullptr);  // bump {{1}} to front
  cache.Insert({{3}}, std::make_shared<const LaunchPlan>());
  EXPECT_NE(cache.Lookup({{1}}), nullptr);
  EXPECT_EQ(cache.Lookup({{2}}), nullptr);  // {{2}} was LRU
  EXPECT_NE(cache.Lookup({{3}}), nullptr);
}

TEST(LaunchPlanCacheTest, ZeroCapacityDisables) {
  LaunchPlanCache cache(0);
  cache.Insert({{1}}, std::make_shared<const LaunchPlan>());
  EXPECT_EQ(cache.Lookup({{1}}), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(LaunchPlanCacheTest, SameNumbersInOtherRanksAreOtherEntries) {
  // The key is the dims themselves: the hash covers the input count and
  // every rank, and a hit is confirmed by an exact compare, so no two of
  // these can share an entry.
  const std::vector<std::vector<std::vector<int64_t>>> signatures = {
      {{2, 3}}, {{3, 2}}, {{2}, {3}}, {{6}}, {{}}, {}};
  LaunchPlanCache cache;
  for (size_t i = 0; i < signatures.size(); ++i) {
    auto plan = std::make_shared<LaunchPlan>();
    plan->arena_bytes = static_cast<int64_t>(i);
    cache.Insert(signatures[i], std::move(plan));
  }
  EXPECT_EQ(cache.stats().entries, 6);
  for (size_t i = 0; i < signatures.size(); ++i) {
    std::shared_ptr<const LaunchPlan> plan = cache.Lookup(signatures[i]);
    ASSERT_NE(plan, nullptr) << ShapeSignature(signatures[i]);
    EXPECT_EQ(plan->arena_bytes, static_cast<int64_t>(i))
        << ShapeSignature(signatures[i]);
    EXPECT_EQ(cache.Peek(signatures[i]), plan);
  }
  EXPECT_EQ(cache.Lookup({{2, 3}, {}}), nullptr);
  EXPECT_EQ(cache.stats().hits, 6);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(LaunchPlanTest, HitMissAccounting) {
  auto exe = CompileModel();
  auto miss = exe->RunWithShapes({{8, 32}});
  auto hit = exe->RunWithShapes({{8, 32}});
  auto other = exe->RunWithShapes({{16, 32}});
  ASSERT_TRUE(miss.ok() && hit.ok() && other.ok());
  EXPECT_FALSE(miss->profile.launch_plan_hit);
  EXPECT_TRUE(hit->profile.launch_plan_hit);
  EXPECT_FALSE(other->profile.launch_plan_hit);
  LaunchPlanCache::Stats stats = exe->plan_cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 2);
  // ToString surfaces the plan outcome for log scraping.
  EXPECT_NE(hit->profile.ToString().find("plan=hit"), std::string::npos);
  EXPECT_NE(miss->profile.ToString().find("plan=miss"), std::string::npos);
}

TEST(LaunchPlanTest, OptOutNeverTouchesTheCache) {
  auto exe = CompileModel();
  RunOptions off;
  off.use_launch_plan_cache = false;
  ASSERT_TRUE(exe->RunWithShapes({{8, 32}}, off).ok());
  ASSERT_TRUE(exe->RunWithShapes({{8, 32}}, off).ok());
  LaunchPlanCache::Stats stats = exe->plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 0);
  EXPECT_EQ(stats.entries, 0);
}

TEST(LaunchPlanTest, CachedRunsAreBitIdenticalOverRandomTrace) {
  // Two executables of the same model: one serves a repeat-heavy random
  // trace through its plan cache, the other runs every query cold. Outputs
  // must match bit-for-bit and simulated device time exactly.
  auto cached = CompileModel();
  auto cold = CompileModel();
  RunOptions with_cache;
  RunOptions no_cache;
  no_cache.use_launch_plan_cache = false;

  Rng rng(11);
  const std::vector<int64_t> batches = {1, 2, 5, 8};
  for (int i = 0; i < 32; ++i) {
    int64_t batch = batches[rng.Categorical({1, 1, 1, 1})];
    Tensor in = RandomF32(&rng, {batch, 32});
    auto a = cached->Run({in}, with_cache);
    auto b = cold->Run({in}, no_cache);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->outputs.size(), b->outputs.size());
    for (size_t o = 0; o < a->outputs.size(); ++o) {
      EXPECT_TRUE(Tensor::BitEqual(a->outputs[o], b->outputs[o]))
          << "output " << o << " diverged at query " << i;
    }
    EXPECT_DOUBLE_EQ(a->profile.device_time_us, b->profile.device_time_us);
    EXPECT_EQ(a->profile.kernel_launches, b->profile.kernel_launches);
    EXPECT_EQ(a->profile.bytes_read, b->profile.bytes_read);
    EXPECT_EQ(a->profile.peak_memory_bytes, b->profile.peak_memory_bytes);
  }
  EXPECT_GT(cached->plan_cache_stats().hits, 0);
}

TEST(LaunchPlanTest, HostResultsReplayCorrectlyOnHits) {
  // The graph's 2nd/3rd outputs come from the host shape program; a plan
  // hit replays recorded host tensors, which must still be correct and
  // must be fresh copies (mutating a returned output must not poison the
  // cache for the next hit).
  auto exe = CompileModel();
  Rng rng(13);
  Tensor in = RandomF32(&rng, {4, 32});
  auto first = exe->Run({in});
  ASSERT_TRUE(first.ok());
  auto second = exe->Run({in});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->profile.launch_plan_hit);
  EXPECT_TRUE(Tensor::BitEqual(first->outputs[2], second->outputs[2]));
  EXPECT_EQ(second->outputs[2].i64_data()[0], 4);  // ShapeOf(x)[0] == B
  // Corrupt the returned tensor; a further hit must be unaffected.
  second->outputs[2].i64_data()[0] = -1;
  auto third = exe->Run({in});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->outputs[2].i64_data()[0], 4);
}

TEST(LaunchPlanTest, OutputsNeverAliasTheExecutablesTensors) {
  // Outputs that are a constant or a host shape result belong to the
  // executable (plans replay host results); Run must return copies, so
  // writing into them changes nothing a later Run returns, hit or miss.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 2});
  b.Output({b.Relu(x), b.ShapeOf(x),
            b.Constant(Tensor::F32({2}, {1.5f, 2.5f}))});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}});
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  Rng rng(19);
  Tensor in = RandomF32(&rng, {3, 2});
  for (int i = 0; i < 3; ++i) {
    auto r = (*exe)->Run({in});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->profile.launch_plan_hit, i > 0);
    EXPECT_TRUE(Tensor::BitEqual(r->outputs[1], Tensor::I64({2}, {3, 2})))
        << "run " << i << ": " << r->outputs[1].ToString();
    EXPECT_TRUE(Tensor::BitEqual(r->outputs[2], Tensor::F32({2}, {1.5f, 2.5f})))
        << "run " << i << ": " << r->outputs[2].ToString();
    r->outputs[1].i64_data()[0] = -1;
    r->outputs[2].f32_data()[0] = -7.0f;
  }
}

TEST(LaunchPlanTest, TimingOnlyPlanUpgradesForDataRuns) {
  // A plan recorded by a timing-only run has no kernel bindings and no
  // host results; the first data-mode hit must bind it and still produce
  // outputs bit-identical to the reference evaluator (and upgrade the
  // cached plan in place rather than duplicating the entry).
  auto exe = CompileModel();
  ASSERT_TRUE(exe->RunWithShapes({{4, 32}}).ok());
  Rng rng(17);
  Tensor in = RandomF32(&rng, {4, 32});
  auto data = exe->Run({in});
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data->profile.launch_plan_hit);
  auto want = EvaluateGraph(exe->graph(), {in});
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(data->outputs.size(), want->size());
  for (size_t o = 0; o < want->size(); ++o) {
    EXPECT_TRUE(Tensor::BitEqual(data->outputs[o], (*want)[o]))
        << "output " << o;
  }
  EXPECT_EQ(data->outputs[2].i64_data()[0], 4);
  EXPECT_EQ(exe->plan_cache_stats().entries, 1);
  auto again = exe->Run({in});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outputs[2].i64_data()[0], 4);
}

TEST(LaunchPlanTest, CapacityBoundRespectedThroughExecutable) {
  auto exe = CompileModel();
  exe->set_plan_cache_capacity(8);
  for (int64_t batch = 1; batch <= 1000; ++batch) {
    ASSERT_TRUE(exe->RunWithShapes({{batch, 32}}).ok());
  }
  LaunchPlanCache::Stats stats = exe->plan_cache_stats();
  EXPECT_LE(stats.entries, 8);
  EXPECT_EQ(stats.misses, 1000);  // adversarial trace: all distinct
  EXPECT_EQ(stats.evictions, 992);
}

TEST(LaunchPlanTest, ConcurrentRunsAreSafe) {
  // 4 threads hammer one Executable with overlapping signatures, each
  // alternating a large and a small one, so the pooled Run buffers churn
  // between sizes. Plans, and the kernel bindings inside them, are shared
  // across threads, so every output of every run must equal bit for bit
  // what a single-threaded Run of a separate executable returns for that
  // input.
  auto exe = CompileModel();
  auto reference = CompileModel();
  std::vector<Tensor> inputs;  // small batches first, then the large ones
  std::vector<std::vector<Tensor>> expected;
  Rng input_rng(99);
  const std::vector<int64_t> batches = {1, 2, 3, 4, 96, 128};
  const int64_t num_small = 4 * 2;
  for (int64_t batch : batches) {
    for (int copy = 0; copy < 2; ++copy) {
      inputs.push_back(RandomF32(&input_rng, {batch, 32}));
      auto want = reference->Run({inputs.back()});
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      expected.push_back(want->outputs);
    }
  }
  std::atomic<int> failures{0};
  auto worker = [&](int seed) {
    Rng rng(seed);
    for (int i = 0; i < 50; ++i) {
      const size_t pick = static_cast<size_t>(
          i % 2 == 0 ? rng.UniformInt(num_small,
                                      static_cast<int64_t>(inputs.size()) - 1)
                     : rng.UniformInt(0, num_small - 1));
      auto r = exe->Run({inputs[pick]});
      bool same = r.ok() && r->outputs.size() == expected[pick].size();
      for (size_t o = 0; same && o < expected[pick].size(); ++o) {
        same = Tensor::BitEqual(r->outputs[o], expected[pick][o]);
      }
      if (!same) ++failures;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker, 100 + t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  LaunchPlanCache::Stats stats = exe->plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 200);
  EXPECT_LE(stats.entries, static_cast<int64_t>(batches.size()));
  EXPECT_GT(stats.hits, 0);
}

TEST(LaunchPlanTest, HitMissAndCacheOffProfilesAgreeOnEveryTraceShape) {
  // A plan holds the Run's totals, variant counts, allocation tapes and its
  // device time priced under the building Run's device and library
  // efficiency, so a hit reports them without recomputing anything: every
  // profile field must still equal a miss's and a cache-off Run's, for
  // every device, library efficiency, graph replay and memory mode. A hit
  // under another key (device or efficiency) prices its steps itself and
  // must equal a cache-off Run under that key; a hit under the building
  // key afterwards still reads the plan.
  std::vector<Model> models = BuildModelSuite();
  models.push_back(BuildGptStepBatch());
  const std::vector<DeviceSpec> devices = {
      DeviceSpec::A10(), DeviceSpec::T4(), DeviceSpec::XeonCpu()};
  for (const Model& model : models) {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
    const std::set<ShapeSet> signatures(model.trace.begin(),
                                        model.trace.end());
    for (size_t d = 0; d < devices.size(); ++d) {
      for (bool graph : {false, true}) {
        for (double efficiency : {0.5, 0.85}) {
          for (MemoryMode mode :
               {MemoryMode::kCachingAllocator, MemoryMode::kArena}) {
            RunOptions cached;
            cached.device = devices[d];
            cached.batch_launches = graph;
            cached.library_efficiency = efficiency;
            cached.memory_mode = mode;
            RunOptions other_device = cached;
            other_device.device = devices[(d + 1) % devices.size()];
            RunOptions other_efficiency = cached;
            other_efficiency.library_efficiency =
                efficiency == 0.5 ? 0.85 : 0.5;
            auto off = [](RunOptions options) {
              options.use_launch_plan_cache = false;
              return options;
            };
            const std::string key =
                devices[d].name + (graph ? " graph" : " direct") +
                " efficiency " + std::to_string(efficiency) +
                (mode == MemoryMode::kArena ? " arena" : " caching");
            for (const ShapeSet& shapes : signatures) {
              const std::string where =
                  model.name + " " + ShapeSignature(shapes) + " " + key;
              (*exe)->ClearPlanCache();
              auto miss = (*exe)->RunWithShapes(shapes, cached);
              auto hit = (*exe)->RunWithShapes(shapes, cached);
              auto cold = (*exe)->RunWithShapes(shapes, off(cached));
              ASSERT_TRUE(miss.ok() && hit.ok() && cold.ok()) << where;
              ASSERT_FALSE(miss->profile.launch_plan_hit) << where;
              ASSERT_TRUE(hit->profile.launch_plan_hit) << where;
              ExpectSameProfile(miss->profile, hit->profile, where);
              ExpectSameProfile(cold->profile, hit->profile, where);
              for (const RunOptions& other : {other_device, other_efficiency}) {
                auto other_hit = (*exe)->RunWithShapes(shapes, other);
                auto other_cold = (*exe)->RunWithShapes(shapes, off(other));
                ASSERT_TRUE(other_hit.ok() && other_cold.ok()) << where;
                ASSERT_TRUE(other_hit->profile.launch_plan_hit) << where;
                ExpectSameProfile(other_cold->profile, other_hit->profile,
                                  where + " under " + other.device.name +
                                      " efficiency " +
                                      std::to_string(
                                          other.library_efficiency));
              }
              auto again = (*exe)->RunWithShapes(shapes, cached);
              ASSERT_TRUE(again.ok()) << where;
              ASSERT_TRUE(again->profile.launch_plan_hit) << where;
              ExpectSameProfile(hit->profile, again->profile, where);
            }
          }
        }
      }
    }
  }
}

TEST(LaunchPlanTest, KernelFaultsFailAtTheSameLaunchOnHitMissAndCacheOff) {
  // An armed failpoint makes a priced hit walk its steps: with
  // runtime.kernel set to fire on the k-th launch, a hit fails at the same
  // launch as a miss and a cache-off Run, having evaluated the site k
  // times and observed the k - 1 launches before it.
  Model model = BuildBert();
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  const ShapeSet shapes = {{8, 64, 64}};
  auto warm = (*exe)->RunWithShapes(shapes);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const int64_t launches = warm->profile.kernel_launches;
  ASSERT_GT(launches, 2);
  FailpointRegistry& registry = FailpointRegistry::Global();
  // The bounds the runtime registers it with (the first registration's
  // bounds win).
  Histogram* utilization = MetricsRegistry::Global().GetHistogram(
      "runtime.kernel.utilization",
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  RunOptions off;
  off.use_launch_plan_cache = false;

  // One Run with the k-th launch armed to fail: its status, the site's
  // evaluations and the launches it observed.
  auto trial = [&](int64_t k, const RunOptions& options, bool miss) {
    if (miss) (*exe)->ClearPlanCache();
    auto spec = FailpointSpec::Parse("every:" + std::to_string(k));
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    registry.Arm("runtime.kernel", *spec);
    const int64_t observed_before = utilization->count();
    const int64_t hits_before = (*exe)->plan_cache_stats().hits;
    auto r = (*exe)->RunWithShapes(shapes, options);
    EXPECT_EQ((*exe)->plan_cache_stats().hits - hits_before,
              options.use_launch_plan_cache && !miss ? 1 : 0);
    int64_t evaluations = -1;
    for (const FailpointRegistry::Info& info : registry.Snapshot()) {
      if (info.name == "runtime.kernel") evaluations = info.hits;
    }
    registry.DisarmAll();
    return std::vector<std::string>{
        r.status().ToString(), "evaluations=" + std::to_string(evaluations),
        "observed=" + std::to_string(utilization->count() - observed_before)};
  };
  for (int64_t k : {int64_t{1}, int64_t{2}, launches}) {
    const std::string where = "k=" + std::to_string(k);
    const std::vector<std::string> hit = trial(k, RunOptions{}, false);
    EXPECT_EQ(trial(k, RunOptions{}, true), hit) << where;
    EXPECT_EQ(trial(k, off, false), hit) << where;
    EXPECT_NE(hit[0], "OK") << where;
    EXPECT_EQ(hit[1], "evaluations=" + std::to_string(k)) << where;
    EXPECT_EQ(hit[2], "observed=" + std::to_string(k - 1)) << where;
    // The failed miss published nothing; warm the plan for the next hit.
    ASSERT_TRUE((*exe)->RunWithShapes(shapes).ok()) << where;
  }
}

TEST(LaunchPlanTest, TracedHitsSpanEveryStepLikeMisses) {
  // A traced Run walks its steps even when its plan prices them: a hit
  // emits one runtime.step span per kernel launch and library call, with
  // the same names in the same order as a miss.
  Model model = BuildBert();
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  const ShapeSet shapes = model.trace.front();
  TraceSession& trace = TraceSession::Global();
  auto traced_steps = [&](bool want_hit) {
    trace.Clear();
    trace.Enable();
    auto r = (*exe)->RunWithShapes(shapes);
    trace.Disable();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->profile.launch_plan_hit, want_hit);
    std::vector<std::string> names;
    for (const TraceEvent& e : trace.Snapshot("runtime.step")) {
      names.push_back(e.name);
    }
    EXPECT_EQ(static_cast<int64_t>(names.size()),
              r->profile.kernel_launches + r->profile.library_calls);
    return names;
  };
  (*exe)->ClearPlanCache();
  const std::vector<std::string> miss = traced_steps(false);
  const std::vector<std::string> hit = traced_steps(true);
  trace.Clear();
  EXPECT_FALSE(miss.empty());
  EXPECT_EQ(hit, miss);
}

TEST(LaunchPlanTest, AllocationFaultsAndLimitsFailAlikeOnHitMissAndCacheOff) {
  // A Run makes every recorded allocation's checks against the plan's
  // tape, and recording the tape consults neither the runtime.alloc
  // failpoint nor the limit. So the same three Runs fail at the same
  // allocations with the same messages and fire counts whether they hit
  // the cache, miss it, or skip it.
  Model model = BuildBert();
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  const ShapeSet shapes = {{8, 64, 64}};
  auto every_third = FailpointSpec::Parse("every:3:code=resource-exhausted");
  ASSERT_TRUE(every_third.ok()) << every_third.status().ToString();
  FailpointRegistry& registry = FailpointRegistry::Global();

  // Three Runs on one path under one condition: each Run's status, then
  // the fires the three caused.
  auto trial = [&](RunOptions options, bool miss, bool arm, int64_t limit) {
    if (arm) registry.Arm("runtime.alloc", *every_third);
    options.memory_limit_bytes = limit;
    std::vector<std::string> outcomes;
    for (int i = 0; i < 3; ++i) {
      if (miss) (*exe)->ClearPlanCache();
      auto r = (*exe)->RunWithShapes(shapes, options);
      outcomes.push_back(r.status().ToString());
    }
    outcomes.push_back("fires=" +
                       std::to_string(registry.fires("runtime.alloc")));
    registry.DisarmAll();
    return outcomes;
  };

  for (MemoryMode mode : {MemoryMode::kCachingAllocator, MemoryMode::kArena}) {
    RunOptions cached;
    cached.memory_mode = mode;
    RunOptions off = cached;
    off.use_launch_plan_cache = false;
    (*exe)->ClearPlanCache();
    auto warm = (*exe)->RunWithShapes(shapes, cached);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    const int64_t peak = warm->profile.peak_memory_bytes;
    ASSERT_GT(peak, 0);
    struct Condition {
      bool arm;
      int64_t limit;
    };
    for (Condition c : {Condition{true, 0}, Condition{false, peak - 1},
                        Condition{false, peak}}) {
      const std::string where =
          std::string(mode == MemoryMode::kArena ? "arena" : "caching") +
          (c.arm ? " every:3" : " limit " + std::to_string(c.limit));
      ASSERT_TRUE((*exe)->RunWithShapes(shapes, cached).ok()) << where;
      const std::vector<std::string> hit = trial(cached, false, c.arm, c.limit);
      EXPECT_EQ(trial(off, false, c.arm, c.limit), hit) << where;
      EXPECT_EQ(trial(cached, true, c.arm, c.limit), hit) << where;
      if (c.arm) {
        EXPECT_NE(hit.back(), "fires=0") << where;
      } else if (c.limit < peak) {
        EXPECT_NE(hit[0].find("device limit"), std::string::npos) << where;
      } else {
        EXPECT_EQ(hit[0], "OK") << where;
      }
    }
  }
}

TEST(LaunchPlanTest, ShapesNoTensorCanHaveFailEveryEntryPoint) {
  // Input dims come from outside the program. A negative batch, or a batch
  // and sequence of 2^31 (each dim fits, the 2^68-element embeddings do
  // not), fail with InvalidArgument wherever they enter: a Run in either
  // memory mode, cached, uncached or repeated, the peak prediction, and
  // both engines. Nothing is published.
  Model model = BuildBert();
  for (const bool negative : {true, false}) {
    ShapeSet shapes = model.trace.front();
    if (negative) {
      shapes[0][0] = -2;
    } else {
      shapes[0][0] = shapes[0][1] = int64_t{1} << 31;
    }
    const std::string where = ShapeSignature(shapes);
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    ASSERT_TRUE(exe.ok()) << exe.status().ToString();
    auto invalid = [&](const Status& status, const std::string& what) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << where << " " << what << ": " << status.ToString();
    };
    for (MemoryMode mode :
         {MemoryMode::kCachingAllocator, MemoryMode::kArena}) {
      for (bool cache : {true, false, true}) {
        RunOptions options;
        options.memory_mode = mode;
        options.use_launch_plan_cache = cache;
        invalid((*exe)->RunWithShapes(shapes, options).status(), "Run");
      }
    }
    invalid((*exe)->PredictPeakBytes(shapes).status(), "PredictPeakBytes");
    EXPECT_EQ((*exe)->plan_cache_stats().entries, 0) << where;

    DynamicCompilerEngine disc(DynamicProfile::Disc());
    ASSERT_TRUE(disc.Prepare(*model.graph, model.input_dim_labels).ok());
    invalid(disc.Query(shapes, DeviceSpec::A10()).status(), "DISC Query");
    invalid(disc.PredictPeakBytes(shapes).status(), "DISC PredictPeakBytes");
    InterpreterEngine eager(InterpreterProfile::PyTorch());
    ASSERT_TRUE(eager.Prepare(*model.graph, model.input_dim_labels).ok());
    invalid(eager.Query(shapes, DeviceSpec::A10()).status(), "eager Query");
  }
}

struct GoldenProfile {
  const char* model;
  const char* run;
  uint64_t digest;
};

// Generated from the runtime's own output; see ProfilesMatchGoldenDigests.
constexpr GoldenProfile kGoldenProfiles[] = {
#include "profile_digests.inc"
};

// Folds every RunProfile field but the measured host_plan_us and the hit
// flag: device time by its bits, the counts, and the variant counts.
uint64_t FoldProfile(const RunProfile& p, uint64_t hash) {
  for (int64_t field :
       {p.kernel_launches, p.library_calls, p.memory_bound_launches,
        p.bytes_read, p.bytes_written, p.peak_memory_bytes, p.alloc_calls,
        p.alloc_cache_hits, p.alloc_rounding_waste, p.arena_bytes}) {
    hash = Fnv1aValue(field, hash);
  }
  hash = Fnv1aValue(p.device_time_us, hash);
  if (p.variant_counts != nullptr) {
    for (const auto& [name, count] : *p.variant_counts) {
      hash = Fnv1aValue(count, Fnv1a(name + '\0', hash));
    }
  }
  return hash;
}

// Folds a tensor's dtype, dims and element bits.
uint64_t FoldTensor(const Tensor& t, uint64_t hash) {
  hash = Fnv1aValue(t.dtype(), hash);
  for (int64_t d : t.dims()) hash = Fnv1aValue(d, hash);
  const size_t width = t.dtype() == DType::kF32 ? sizeof(float)
                                                : sizeof(int64_t);
  const size_t bytes = static_cast<size_t>(t.num_elements()) * width;
  return Fnv1a(std::string(static_cast<const char*>(t.raw_data()), bytes),
               hash);
}

// Every profile the runtime reports for the six suite models and the
// batched decode step must match the digests committed in
// profile_digests.inc: per compile (default and trace-hinted options) and
// memory mode, one digest over each distinct trace signature's timing-only
// profile and predicted peak, in trace order; per graph, one digest over
// the data-mode outputs and profiles at small_shapes and the first two
// trace signatures. Plan build may get faster, but not different. A
// mismatch prints the line that would replace the stale one.
TEST(LaunchPlanTest, ProfilesMatchGoldenDigests) {
  std::vector<Model> models = BuildModelSuite();
  models.push_back(BuildGptStepBatch());
  std::map<std::string, uint64_t> golden;
  for (const GoldenProfile& g : kGoldenProfiles) {
    golden[std::string(g.model) + "/" + g.run] = g.digest;
  }
  size_t checked = 0;
  auto check = [&](const std::string& model, const std::string& run,
                   uint64_t digest) {
    auto it = golden.find(model + "/" + run);
    EXPECT_TRUE(it != golden.end() && it->second == digest)
        << "new digest line:\n"
        << StrFormat("{\"%s\", \"%s\", 0x%016" PRIx64 "ull},",
                     model.c_str(), run.c_str(), digest);
    ++checked;
  };
  for (const Model& model : models) {
    std::vector<ShapeSet> signatures;
    for (const ShapeSet& shapes : model.trace) {
      if (std::find(signatures.begin(), signatures.end(), shapes) ==
          signatures.end()) {
        signatures.push_back(shapes);
      }
    }
    ASSERT_GE(signatures.size(), 2u) << model.name;
    CompileOptions hinted;
    hinted.likely_dim_values = TraceHints(model);
    const std::pair<const char*, CompileOptions> configs[] = {
        {"default", CompileOptions::Default()}, {"hinted", hinted}};
    for (const auto& [config, options] : configs) {
      auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels,
                                       options);
      ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
      for (MemoryMode mode :
           {MemoryMode::kCachingAllocator, MemoryMode::kArena}) {
        RunOptions run;
        run.memory_mode = mode;
        uint64_t digest = Fnv1a("");
        for (const ShapeSet& shapes : signatures) {
          auto r = (*exe)->RunWithShapes(shapes, run);
          auto peak = (*exe)->PredictPeakBytes(shapes);
          ASSERT_TRUE(r.ok() && peak.ok())
              << model.name << " " << ShapeSignature(shapes);
          digest = Fnv1aValue(*peak, FoldProfile(r->profile, digest));
        }
        check(model.name,
              std::string(config) +
                  (mode == MemoryMode::kArena ? "/arena" : "/caching"),
              digest);
      }
      if (std::string(config) != "default") continue;
      uint64_t digest = Fnv1a("");
      for (const ShapeSet* shapes : {&model.small_shapes,
                                     &std::as_const(signatures[0]),
                                     &std::as_const(signatures[1])}) {
        auto r = (*exe)->Run(model.make_inputs(*shapes, 11));
        ASSERT_TRUE(r.ok()) << model.name << " " << ShapeSignature(*shapes)
                            << ": " << r.status().ToString();
        for (const Tensor& out : r->outputs) digest = FoldTensor(out, digest);
        digest = FoldProfile(r->profile, digest);
      }
      check(model.name, "data", digest);
    }
  }
  EXPECT_EQ(checked, golden.size());
}

}  // namespace
}  // namespace disc
