// Executable/runtime behaviour: mode consistency, host placement of shape
// computation, liveness-driven memory accounting, fused edge-case ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "alloc_hook.h"
#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "models/models.h"
#include "support/rng.h"
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

TEST(RuntimeTest, TimingOnlyAndDataModeAgreeOnProfile) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 32});
  b.Output({b.Softmax(b.Relu(x))});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}});
  ASSERT_TRUE(exe.ok());

  Rng rng(1);
  Tensor in = RandomF32(&rng, {8, 32});
  auto data = (*exe)->Run({in});
  auto timing = (*exe)->RunWithShapes({{8, 32}});
  ASSERT_TRUE(data.ok() && timing.ok());
  EXPECT_EQ(data->profile.kernel_launches, timing->profile.kernel_launches);
  EXPECT_EQ(data->profile.bytes_read, timing->profile.bytes_read);
  EXPECT_DOUBLE_EQ(data->profile.device_time_us,
                   timing->profile.device_time_us);
  EXPECT_TRUE(timing->outputs.empty());
  EXPECT_FALSE(data->outputs.empty());
}

// A traced data-mode Run names, on each library step, the contraction
// variant it ran: the f32 product takes the host's widest, the i64 one the
// generic variant.
TEST(RuntimeTest, LibraryStepsNameTheirContractionVariantInTraces) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* w = b.Input("w", DType::kF32, {8, 5});
  Value* i = b.Input("i", DType::kI64, {kDynamicDim, 3});
  Value* j = b.Input("j", DType::kI64, {3, 2});
  b.Output({b.MatMul(x, w), b.MatMul(i, j)});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}, {}, {"B", ""}, {}});
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();

  Rng rng(3);
  TraceSession& session = TraceSession::Global();
  session.Clear();
  session.Enable();
  auto r = (*exe)->Run({RandomF32(&rng, {6, 8}), RandomF32(&rng, {8, 5}),
                        Tensor::I64({6, 3}, std::vector<int64_t>(18, 2)),
                        Tensor::I64({3, 2}, std::vector<int64_t>(6, -1))});
  session.Disable();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> variants;
  for (const TraceEvent& event : session.Snapshot("runtime.step")) {
    for (const TraceArg& arg : event.args) {
      if (arg.first == "variant" && event.name == "matmul") {
        variants.push_back(arg.second);
      }
    }
  }
  session.Clear();
  std::sort(variants.begin(), variants.end());
  std::vector<std::string> want = {ContractionIsaName(HostIsa()), "generic"};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(variants, want);
}

TEST(RuntimeTest, HostStepsContributeNoDeviceTime) {
  // A graph that is ONLY shape computation: no kernels at all.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* shape = b.ShapeOf(x);
  Value* numel = b.Mul(b.Dim(x, 0), b.Dim(x, 1));
  b.Output({shape, numel});
  auto exe = DiscCompiler::Compile(g, {{"B", "S"}});
  ASSERT_TRUE(exe.ok());
  auto r = (*exe)->Run({Tensor(DType::kF32, {3, 4})});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->profile.kernel_launches, 0);
  EXPECT_DOUBLE_EQ(r->profile.device_time_us, 0.0);
  EXPECT_EQ(r->outputs[0].i64_data()[0], 3);
  EXPECT_EQ(r->outputs[1].i64_data()[0], 12);
}

TEST(RuntimeTest, PeakMemoryBelowSumOfAllIntermediates) {
  // A long chain: liveness should reuse buffers, keeping the peak near two
  // live tensors, far below the 12-tensor total.
  Graph g;
  GraphBuilder b(&g);
  Value* v = b.Input("x", DType::kF32, {kDynamicDim, 1024});
  CompileOptions options = CompileOptions::NoFusion();
  for (int i = 0; i < 12; ++i) v = b.Unary(OpKind::kTanh, v);
  b.Output({v});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}}, options);
  ASSERT_TRUE(exe.ok());
  auto r = (*exe)->RunWithShapes({{64, 1024}});
  ASSERT_TRUE(r.ok());
  int64_t one_tensor = 64 * 1024 * 4;
  EXPECT_LE(r->profile.peak_memory_bytes, 3 * one_tensor);
  EXPECT_GE(r->profile.peak_memory_bytes, one_tensor);
}

TEST(RuntimeTest, ConstantsAreResidentAcrossTheRun) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 16});
  Tensor w(DType::kF32, {16, 16});
  Value* y = b.MatMul(x, b.Constant(w));
  b.Output({b.Relu(y)});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}});
  ASSERT_TRUE(exe.ok());
  auto r = (*exe)->RunWithShapes({{4, 16}});
  ASSERT_TRUE(r.ok());
  // Peak includes the weight (1KB) + activations.
  EXPECT_GE(r->profile.peak_memory_bytes, 16 * 16 * 4);
}

TEST(RuntimeTest, FusedSelectAndIotaExecuteCorrectly) {
  // select/iota inside a fused loop kernel (edge ops of the executor).
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim});
  Value* pred = b.Greater(x, b.ScalarF32(0.0f));
  Value* y = b.Select(pred, x, b.Neg(x));  // |x|
  b.Output({y});
  auto exe = DiscCompiler::Compile(g, {{"N"}});
  ASSERT_TRUE(exe.ok());
  Tensor in = Tensor::F32({5}, {-2, -1, 0, 1, 2});
  auto r = (*exe)->Run({in});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(Tensor::AllClose(r->outputs[0],
                               Tensor::F32({5}, {2, 1, 0, 1, 2})));
}

TEST(RuntimeTest, FusedGatherThroughPadMatchesReference) {
  Graph g;
  GraphBuilder b(&g);
  Value* data = b.Input("data", DType::kF32, {6, 4});
  Value* ids = b.Input("ids", DType::kI64, {kDynamicDim});
  Value* gathered = b.Gather(data, ids, 0);
  Value* padded = b.Pad(gathered, {1, 0}, {0, 1}, -5.0);
  b.Output({b.Relu(padded)});
  auto exe = DiscCompiler::Compile(g, {{}, {"N"}});
  ASSERT_TRUE(exe.ok());
  Rng rng(2);
  std::vector<Tensor> inputs = {RandomF32(&rng, {6, 4}),
                                Tensor::I64({3}, {5, 0, 3})};
  auto got = (*exe)->Run(inputs);
  auto want = EvaluateGraph(g, inputs);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(Tensor::AllClose(got->outputs[0], (*want)[0]));
}

TEST(RuntimeTest, ShapeValueConsumedAsData) {
  // Mean over a dynamic axis computed as sum / cast(dim): the dim value is
  // produced by the host shape program, cast to f32, and consumed inside a
  // fused device kernel — the host/device boundary the paper's runtime
  // manages.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* total = b.ReduceSum(x, {1});  // [B]
  Value* len = b.Cast(b.Dim(x, 1), DType::kF32);  // f32 scalar
  b.Output({b.Div(total, len)});
  auto exe = DiscCompiler::Compile(g, {{"B", "S"}});
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  auto r = (*exe)->Run({Tensor::F32({2, 4}, {1, 2, 3, 4, 10, 20, 30, 40})});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(Tensor::AllClose(r->outputs[0], Tensor::F32({2}, {2.5, 25})));
}

TEST(RuntimeTest, ProfileToStringMentionsKeyCounters) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  b.Output({b.Relu(x)});
  auto exe = DiscCompiler::Compile(g);
  ASSERT_TRUE(exe.ok());
  auto r = (*exe)->RunWithShapes({{4}});
  ASSERT_TRUE(r.ok());
  std::string s = r->profile.ToString();
  EXPECT_NE(s.find("launches="), std::string::npos);
  EXPECT_NE(s.find("variants{"), std::string::npos);
}

TEST(RuntimeTest, SameExecutableIsReentrant) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim});
  b.Output({b.Exp(x)});
  auto exe = DiscCompiler::Compile(g, {{"N"}});
  ASSERT_TRUE(exe.ok());
  Rng rng(3);
  Tensor a = RandomF32(&rng, {4});
  Tensor c = RandomF32(&rng, {9});
  auto r1 = (*exe)->Run({a});
  auto r2 = (*exe)->Run({c});
  auto r3 = (*exe)->Run({a});
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_TRUE(Tensor::AllClose(r1->outputs[0], r3->outputs[0]));
  EXPECT_EQ(r2->outputs[0].dims(), (std::vector<int64_t>{9}));
}

// Runs `input_dims` timing-only and returns the heap bytes the Run
// allocated; `*profile` receives its profile.
int64_t RunHeapBytes(const Executable& exe, const InputDims& input_dims,
                     const RunOptions& options, RunProfile* profile) {
  StartCountingAllocations();
  Result<RunResult> r = exe.RunWithShapes(input_dims, options);
  const int64_t bytes = StopCountingAllocations();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) *profile = r->profile;
  return bytes;
}

TEST(RuntimeTest, PlanCacheHitsCutHostOverhead) {
  // Repeat-heavy trace: plan hits skip the symbolic phase. Asserted on
  // counts that repeat from run to run, not on wall-clock time (the
  // measured hit and miss costs are F7's to show): the cache serves every
  // repeat, and a hit makes no heap allocation while every miss builds its
  // plan on the heap.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 64});
  Tensor w(DType::kF32, {64, 64});
  Value* y = b.MatMul(x, b.Constant(w));
  b.Output({b.Softmax(b.Relu(y))});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}});
  ASSERT_TRUE(exe.ok());

  int64_t misses = 0, hits = 0, hit_bytes = 0;
  for (int round = 0; round < 200; ++round) {
    int64_t batch = 1 + round % 4;  // 4 signatures, 50 repeats each
    RunProfile profile;
    const int64_t bytes =
        RunHeapBytes(**exe, {{batch, 64}}, RunOptions{}, &profile);
    if (profile.launch_plan_hit) {
      hit_bytes += bytes;
      ++hits;
    } else {
      EXPECT_GT(bytes, 0) << "miss at round " << round;
      ++misses;
    }
  }
  EXPECT_EQ(misses, 4);
  EXPECT_EQ(hits, 196);
  EXPECT_EQ(hit_bytes, 0);
  LaunchPlanCache::Stats stats = (*exe)->plan_cache_stats();
  EXPECT_EQ(stats.hits, 196);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.entries, 4);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(RuntimeTest, FullyDynamicTraceDegradesGracefully) {
  // Every query a fresh signature: the cache never hits and every plan is
  // built from scratch. The only extra work vs the uncached path is one
  // lookup and one LRU insert (with an eviction once the LRU is full), so
  // a miss allocates what a cache-off Run of the same signature does plus
  // the published plan's own heap blocks: its shared block, its LRU node
  // with a copy of the dims and its index node (and, while the index
  // grows, a bucket array).
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 64});
  b.Output({b.Softmax(b.Relu(x))});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}});
  ASSERT_TRUE(exe.ok());
  (*exe)->set_plan_cache_capacity(32);  // forces eviction churn too

  RunOptions off;
  off.use_launch_plan_cache = false;
  const int64_t publish_bytes =
      static_cast<int64_t>(sizeof(LaunchPlan)) + 1024;
  for (int64_t batch = 1; batch <= 450; ++batch) {
    RunProfile uncached, cached;
    const int64_t uncached_bytes =
        RunHeapBytes(**exe, {{batch, 64}}, off, &uncached);
    const int64_t cached_bytes =
        RunHeapBytes(**exe, {{batch, 64}}, RunOptions{}, &cached);
    ASSERT_FALSE(cached.launch_plan_hit) << "batch " << batch;
    EXPECT_GT(uncached_bytes, 0) << "batch " << batch;
    EXPECT_LE(cached_bytes, uncached_bytes + publish_bytes)
        << "batch " << batch;
    EXPECT_EQ(cached.device_time_us, uncached.device_time_us)
        << "batch " << batch;
  }
  LaunchPlanCache::Stats stats = (*exe)->plan_cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 450);
  EXPECT_EQ(stats.insertions, 450);
  EXPECT_EQ(stats.evictions, 450 - 32);
  EXPECT_EQ(stats.entries, 32);
}

TEST(RuntimeTest, LibraryEfficiencyOptionChangesGemmTime) {
  Graph g;
  GraphBuilder b(&g);
  // Large enough to be compute-bound so library efficiency matters.
  Value* x = b.Input("x", DType::kF32, {1024, 1024});
  Value* w = b.Input("w", DType::kF32, {1024, 1024});
  b.Output({b.MatMul(x, w)});
  auto exe = DiscCompiler::Compile(g);
  ASSERT_TRUE(exe.ok());
  RunOptions base;
  RunOptions tuned;
  tuned.library_efficiency = 0.95;
  auto r1 = (*exe)->RunWithShapes({{1024, 1024}, {1024, 1024}}, base);
  auto r2 = (*exe)->RunWithShapes({{1024, 1024}, {1024, 1024}}, tuned);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_GT(r1->profile.device_time_us, r2->profile.device_time_us);
}

// A small graph with several distinct intermediate sizes for the memory-
// mode tests: matmul + softmax over [B, 64] -> [B, 32].
Result<std::unique_ptr<Executable>> CompileMemoryModeGraph() {
  Graph g;
  GraphBuilder b(&g);
  Rng rng(11);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 64});
  Tensor w(DType::kF32, {64, 32});
  for (int64_t i = 0; i < w.num_elements(); ++i) w.f32_data()[i] = rng.Normal();
  Value* y = b.MatMul(b.Tanh(x), b.Constant(w));
  b.Output({b.Softmax(y)});
  return DiscCompiler::Compile(g, {{"B", ""}});
}

TEST(RuntimeTest, ArenaModeDoesOneAllocation) {
  auto exe = CompileMemoryModeGraph();
  ASSERT_TRUE(exe.ok());
  ASSERT_TRUE((*exe)->memory_plan().planned);
  RunOptions arena;
  arena.memory_mode = MemoryMode::kArena;
  auto r = (*exe)->RunWithShapes({{16, 64}}, arena);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->profile.alloc_calls, 1);
  EXPECT_EQ(r->profile.alloc_rounding_waste, 0)
      << "arena allocation must land exactly on a size class";
  EXPECT_GT(r->profile.arena_bytes, 0);
  EXPECT_EQ(r->profile.arena_bytes % kArenaAlignment, 0);
  EXPECT_EQ(r->profile.peak_memory_bytes, r->profile.arena_bytes);
}

TEST(RuntimeTest, ArenaAllocationStaysOneOnPlanCacheHit) {
  auto exe = CompileMemoryModeGraph();
  ASSERT_TRUE(exe.ok());
  RunOptions arena;
  arena.memory_mode = MemoryMode::kArena;
  auto miss = (*exe)->RunWithShapes({{8, 64}}, arena);
  auto hit = (*exe)->RunWithShapes({{8, 64}}, arena);
  ASSERT_TRUE(miss.ok() && hit.ok());
  EXPECT_FALSE(miss->profile.launch_plan_hit);
  EXPECT_TRUE(hit->profile.launch_plan_hit);
  EXPECT_EQ(hit->profile.alloc_calls, 1);
  EXPECT_EQ(hit->profile.arena_bytes, miss->profile.arena_bytes);
}

TEST(RuntimeTest, MemoryModesProduceBitIdenticalOutputs) {
  auto exe = CompileMemoryModeGraph();
  ASSERT_TRUE(exe.ok());
  Rng rng(5);
  Tensor in = RandomF32(&rng, {8, 64});
  RunOptions caching, arena;
  arena.memory_mode = MemoryMode::kArena;
  auto r0 = (*exe)->Run({in}, caching);
  auto r1 = (*exe)->Run({in}, arena);
  ASSERT_TRUE(r0.ok() && r1.ok());
  ASSERT_EQ(r0->outputs.size(), 1u);
  EXPECT_TRUE(Tensor::BitEqual(r0->outputs[0], r1->outputs[0]));
  // Simulated device work is also identical: only allocation accounting
  // differs between modes.
  EXPECT_DOUBLE_EQ(r0->profile.device_time_us, r1->profile.device_time_us);
  EXPECT_EQ(r0->profile.kernel_launches, r1->profile.kernel_launches);
}

TEST(RuntimeTest, PredictPeakBytesMatchesArenaRun) {
  auto exe = CompileMemoryModeGraph();
  ASSERT_TRUE(exe.ok());
  auto predicted = (*exe)->PredictPeakBytes({{24, 64}});
  ASSERT_TRUE(predicted.ok());
  RunOptions arena;
  arena.memory_mode = MemoryMode::kArena;
  auto r = (*exe)->RunWithShapes({{24, 64}}, arena);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*predicted, r->profile.arena_bytes);
  // Prediction answers off the memoized plan after the run, same value.
  auto again = (*exe)->PredictPeakBytes({{24, 64}});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *predicted);
}

TEST(RuntimeTest, ArenaOverLimitIsRetryableResourceExhausted) {
  auto exe = CompileMemoryModeGraph();
  ASSERT_TRUE(exe.ok());
  RunOptions arena;
  arena.memory_mode = MemoryMode::kArena;
  arena.memory_limit_bytes = 1024;  // far below any real footprint
  auto r = (*exe)->RunWithShapes({{64, 64}}, arena);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(r.status().IsRetryable());
}

TEST(RuntimeTest, InputDtypesAreCheckedUpFront) {
  // Steps read raw buffers, so a Run checks every input's dtype before any
  // of them runs: flipping one input's dtype is an InvalidArgument naming
  // that input, on a plan miss and on a hit, in both memory modes.
  for (const Model& model : BuildModelSuite()) {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
    const std::vector<Tensor> inputs = model.make_inputs(model.small_shapes, 3);
    for (MemoryMode mode : {MemoryMode::kCachingAllocator, MemoryMode::kArena}) {
      RunOptions options;
      options.memory_mode = mode;
      for (size_t i = 0; i < inputs.size(); ++i) {
        std::vector<Tensor> flipped = inputs;
        flipped[i] = Tensor(
            inputs[i].dtype() == DType::kF32 ? DType::kI64 : DType::kF32,
            inputs[i].dims());
        for (bool hit : {false, true}) {
          const std::string where = model.name + " input " +
                                    std::to_string(i) +
                                    (hit ? " hit" : " miss");
          (*exe)->ClearPlanCache();
          if (hit) {
            ASSERT_TRUE((*exe)->Run(inputs, options).ok()) << where;
          }
          auto r = (*exe)->Run(flipped, options);
          ASSERT_FALSE(r.ok()) << where;
          EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
              << where << ": " << r.status().ToString();
          EXPECT_NE(r.status().message().find("input " + std::to_string(i)),
                    std::string::npos)
              << where << ": " << r.status().ToString();
        }
      }
    }
  }
}

TEST(RuntimeTest, PooledBuffersCarryNoStaleBytes) {
  // One executable's Runs share pooled buffers, which are never cleared:
  // alternating its largest and smallest trace signatures, with fresh
  // inputs each time, every Run must still equal the reference evaluator
  // bit for bit.
  for (const Model& model : BuildModelSuite()) {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
    auto elements = [](const ShapeSet& shapes) {
      int64_t n = 0;
      for (const std::vector<int64_t>& dims : shapes) n += Product(dims);
      return n;
    };
    const auto [small, large] = std::minmax_element(
        model.trace.begin(), model.trace.end(),
        [&](const ShapeSet& a, const ShapeSet& b) {
          return elements(a) < elements(b);
        });
    uint64_t seed = 11;
    for (int round = 0; round < 2; ++round) {
      for (const ShapeSet* shapes : {&*large, &*small}) {
        const std::string where = model.name + " " + ShapeSignature(*shapes);
        const std::vector<Tensor> inputs = model.make_inputs(*shapes, ++seed);
        auto got = (*exe)->Run(inputs);
        auto want = EvaluateGraph(*model.graph, inputs);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
        ASSERT_TRUE(want.ok()) << where << ": " << want.status().ToString();
        ASSERT_EQ(got->outputs.size(), want->size()) << where;
        for (size_t o = 0; o < want->size(); ++o) {
          EXPECT_TRUE(Tensor::BitEqual(got->outputs[o], (*want)[o]))
              << where << " output " << o;
        }
      }
    }
  }
}

}  // namespace
}  // namespace disc
