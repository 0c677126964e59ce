#include "support/metrics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <thread>
#include <vector>

#include "baselines/baselines.h"
#include "baselines/dynamic_engine.h"
#include "compiler/compiler.h"
#include "models/models.h"
#include "sim/device.h"
#include "support/rng.h"

namespace disc {
namespace {

TEST(CounterTest, IncrementValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 4.0, 16.0});
  h.Observe(0.5);   // <= 1
  h.Observe(1.0);   // <= 1 (inclusive)
  h.Observe(1.5);   // <= 4
  h.Observe(4.0);   // <= 4 (inclusive)
  h.Observe(16.0);  // <= 16 (inclusive)
  h.Observe(16.5);  // overflow
  h.Observe(1e9);   // overflow
  std::vector<int64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 2);
  EXPECT_EQ(h.count(), 7);
}

TEST(HistogramTest, CountSumMean) {
  Histogram h({10.0});
  h.Observe(2.0);
  h.Observe(4.0);
  h.Observe(6.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(HistogramTest, ExponentialBounds) {
  std::vector<double> bounds = Histogram::ExponentialBounds(1.0, 4.0, 3);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 4.0);
  EXPECT_DOUBLE_EQ(bounds[2], 16.0);
}

TEST(HistogramTest, ConcurrentObserves) {
  Histogram h({10.0, 100.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(5.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.bucket_counts()[0], kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0 * kThreads * kPerThread);
}

TEST(HistogramTest, ObserveAllMatchesObserveBitForBit) {
  // Bounds on both sides of the 32-bucket window ObserveAll counts in.
  for (const std::vector<double>& bounds :
       {std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
        Histogram::ExponentialBounds(1e-3, 1.5, 40), std::vector<double>{}}) {
    Rng rng(static_cast<uint64_t>(bounds.size()) + 3);
    std::vector<double> values;
    for (int i = 0; i < 300; ++i) {
      // Draws at exact bounds land in their own bucket, others anywhere.
      values.push_back(!bounds.empty() && i % 7 == 0
                           ? bounds[static_cast<size_t>(i) % bounds.size()]
                           : std::exp(rng.Normal() * 4.0) * 0.01);
    }
    Histogram one_by_one(bounds), batched(bounds);
    one_by_one.Observe(0.25);
    batched.Observe(0.25);
    for (double v : values) one_by_one.Observe(v);
    batched.ObserveAll(values);
    batched.ObserveAll({});
    EXPECT_EQ(batched.bucket_counts(), one_by_one.bucket_counts())
        << bounds.size() << " bounds";
    EXPECT_EQ(batched.count(), one_by_one.count()) << bounds.size();
    EXPECT_EQ(std::bit_cast<uint64_t>(batched.sum()),
              std::bit_cast<uint64_t>(one_by_one.sum()))
        << bounds.size() << " bounds: " << batched.sum() << " vs "
        << one_by_one.sum();
  }
}

TEST(HistogramTest, ConcurrentObserveAll) {
  Histogram h({10.0, 100.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.ObserveAll({5.0, 50.0, 500.0});
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), 3 * kThreads * kPerThread);
  EXPECT_EQ(h.bucket_counts(),
            std::vector<int64_t>(3, kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h.sum(), 555.0 * kThreads * kPerThread);
}

TEST(MetricsRegistryTest, CountersAreStableAndNamed) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("test.registry.a");
  Counter* again = reg.GetCounter("test.registry.a");
  EXPECT_EQ(a, again);  // stable pointer, cacheable
  int64_t before = a->value();
  CountMetric("test.registry.a", 3);
  EXPECT_EQ(a->value(), before + 3);
}

TEST(MetricsRegistryTest, HistogramFirstRegistrationWinsBounds) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("test.registry.hist", {1.0, 2.0});
  Histogram* again = reg.GetHistogram("test.registry.hist", {99.0});
  EXPECT_EQ(h, again);
  ASSERT_EQ(h->bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(h->bounds()[1], 2.0);
}

TEST(MetricsRegistryTest, SnapshotContainsRegisteredCounter) {
  CountMetric("test.registry.snapshot", 5);
  auto snapshot = MetricsRegistry::Global().CounterSnapshot();
  bool found = false;
  for (const auto& [name, value] : snapshot) {
    if (name == "test.registry.snapshot") {
      found = true;
      EXPECT_GE(value, 5);
    }
  }
  EXPECT_TRUE(found);
}

// The satellite guarantee: EngineStats and the global registry are fed by
// the same choke points, so their deltas can never disagree. Counters are
// process-global, so compare deltas, not absolute values.
TEST(MetricsAgreementTest, EngineStatsMatchRegistryCounters) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* queries = reg.GetCounter("engine.queries");
  Counter* plan_hits = reg.GetCounter("engine.plan_cache.hit");
  Counter* plan_misses = reg.GetCounter("engine.plan_cache.miss");
  Counter* compilations = reg.GetCounter("engine.compilations");
  const int64_t q0 = queries->value();
  const int64_t h0 = plan_hits->value();
  const int64_t m0 = plan_misses->value();
  const int64_t c0 = compilations->value();

  ModelConfig config;
  Model model = BuildMlp(config);
  DynamicCompilerEngine engine(DynamicProfile::Disc());
  ASSERT_TRUE(engine.Prepare(*model.graph, model.input_dim_labels).ok());
  const DeviceSpec device = DeviceSpec::A10();
  // Repeat shapes so the plan cache records both misses and hits.
  std::vector<ShapeSet> trace = {model.trace[0], model.trace[1],
                                 model.trace[0], model.trace[1],
                                 model.trace[0]};
  for (const ShapeSet& shapes : trace) {
    ASSERT_TRUE(engine.Query(shapes, device).ok());
  }

  const EngineStats& stats = engine.stats();
  EXPECT_EQ(queries->value() - q0, stats.queries);
  EXPECT_EQ(plan_hits->value() - h0, stats.launch_plan_hits);
  EXPECT_EQ(plan_misses->value() - m0, stats.launch_plan_misses);
  EXPECT_EQ(compilations->value() - c0, stats.compilations);
  EXPECT_GT(stats.launch_plan_hits, 0);
  EXPECT_GT(stats.launch_plan_misses, 0);
}

TEST(MetricsAgreementTest, RunProfileAllocatorCountersMatchRegistry) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* alloc_calls = reg.GetCounter("runtime.alloc.calls");
  Counter* alloc_hits = reg.GetCounter("runtime.alloc.cache_hits");
  Counter* run_count = reg.GetCounter("runtime.run.count");
  const int64_t calls0 = alloc_calls->value();
  const int64_t hits0 = alloc_hits->value();
  const int64_t runs0 = run_count->value();

  ModelConfig config;
  Model model = BuildMlp(config);
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok());
  int64_t profile_calls = 0, profile_hits = 0, runs = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = (*exe)->RunWithShapes(model.trace[0]);
    ASSERT_TRUE(r.ok());
    profile_calls += r->profile.alloc_calls;
    profile_hits += r->profile.alloc_cache_hits;
    ++runs;
  }
  EXPECT_EQ(alloc_calls->value() - calls0, profile_calls);
  EXPECT_EQ(alloc_hits->value() - hits0, profile_hits);
  EXPECT_EQ(run_count->value() - runs0, runs);
  EXPECT_GT(profile_calls, 0);
}

TEST(MetricsAgreementTest, KernelMemoryBoundCounterMatchesRunProfile) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* memory_bound = reg.GetCounter("runtime.kernel.memory_bound");
  // Same bounds ExecutePlan registers with — first registration wins, so
  // the pointer is identical regardless of which side ran first.
  Histogram* utilization = reg.GetHistogram(
      "runtime.kernel.utilization",
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  const int64_t mb0 = memory_bound->value();
  const int64_t util0 = utilization->count();

  ModelConfig config;
  Model model = BuildMlp(config);
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok());
  int64_t profile_memory_bound = 0, generated_launches = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = (*exe)->RunWithShapes(model.trace[i % model.trace.size()]);
    ASSERT_TRUE(r.ok());
    profile_memory_bound += r->profile.memory_bound_launches;
    generated_launches += r->profile.kernel_launches;
  }
  // Same choke point feeds both, so the deltas agree exactly.
  EXPECT_EQ(memory_bound->value() - mb0, profile_memory_bound);
  // One utilization observation per *generated* kernel launch (library
  // calls count toward memory_bound but not the codegen histogram).
  EXPECT_EQ(utilization->count() - util0, generated_launches);
  EXPECT_GT(profile_memory_bound, 0);  // fused elementwise = memory bound
  // Utilization is a fraction of peak: first registration fixed bounds
  // at <= 1.0, so nothing can land in the overflow bucket.
  EXPECT_EQ(utilization->bucket_counts().back(), 0);
}

TEST(MetricsAgreementTest, PricedHitsObserveEveryLaunchUtilization) {
  // A timing-only hit that reads its costs from the plan observes the
  // plan's utilizations in one batch: N hits still add N observations per
  // generated kernel launch.
  Histogram* utilization = MetricsRegistry::Global().GetHistogram(
      "runtime.kernel.utilization",
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  Model model = BuildBert(ModelConfig{});
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok());
  auto warm = (*exe)->RunWithShapes(model.trace[0]);
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(warm->profile.kernel_launches, 0);
  constexpr int kHits = 5;
  const int64_t count0 = utilization->count();
  for (int i = 0; i < kHits; ++i) {
    auto r = (*exe)->RunWithShapes(model.trace[0]);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->profile.launch_plan_hit);
  }
  EXPECT_EQ(utilization->count() - count0,
            kHits * warm->profile.kernel_launches);
}

TEST(MetricsAgreementTest, PlanCacheStatsMatchRegistry) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* hits = reg.GetCounter("runtime.plan_cache.hit");
  Counter* misses = reg.GetCounter("runtime.plan_cache.miss");
  const int64_t h0 = hits->value();
  const int64_t m0 = misses->value();

  ModelConfig config;
  Model model = BuildMlp(config);
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*exe)->RunWithShapes(model.trace[0]).ok());
  }
  auto stats = (*exe)->plan_cache_stats();
  EXPECT_EQ(hits->value() - h0, stats.hits);
  EXPECT_EQ(misses->value() - m0, stats.misses);
  EXPECT_EQ(stats.misses, 1);  // first run builds, the rest replay
  EXPECT_EQ(stats.hits, 3);
}

TEST(HistogramQuantileTest, InterpolatesWithinBuckets) {
  Histogram h({10.0, 20.0, 40.0});
  // 10 observations uniform in (0, 10]: p50 interpolates to mid-bucket.
  for (int i = 1; i <= 10; ++i) h.Observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
  // Add 10 in (10, 20]: the median moves to the first bucket's boundary.
  for (int i = 11; i <= 20; ++i) h.Observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.75), 15.0);
}

TEST(HistogramQuantileTest, EmptyHistogramReturnsNaN) {
  // An empty histogram used to report Quantile = 0.0 — indistinguishable
  // from a genuinely instant p99. The sentinel is NaN at every q.
  Histogram h({10.0, 20.0});
  EXPECT_TRUE(std::isnan(h.Quantile(0.0)));
  EXPECT_TRUE(std::isnan(h.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.Quantile(0.99)));
  // Histograms with no finite bounds at all are also "empty" until fed.
  Histogram unbounded({});
  EXPECT_TRUE(std::isnan(unbounded.Quantile(0.5)));
}

TEST(HistogramQuantileTest, OverflowBucketReturnsInfinity) {
  Histogram h({10.0, 20.0});
  h.Observe(1000.0);  // overflow bucket only
  // No upper bound to interpolate against: the old clamp reported "p99 =
  // 20" when every observation exceeded 20. +inf is the honest answer.
  EXPECT_TRUE(std::isinf(h.Quantile(0.99)));
  EXPECT_GT(h.Quantile(0.99), 0.0);  // positive infinity, specifically
  // Mixed mass: quantiles below the overflow share stay finite and exact.
  for (int i = 0; i < 9; ++i) h.Observe(5.0);  // 9 finite, 1 overflow
  // target = 0.5*10 = 5 of 9 in (0, 10]: interpolates to 10 * 5/9.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0 * 5.0 / 9.0);
  EXPECT_TRUE(std::isinf(h.Quantile(0.99)));  // still in overflow
}

TEST(HistogramQuantileTest, ToStringReportsEstimates) {
  Histogram h({10.0, 100.0});
  for (int i = 0; i < 100; ++i) h.Observe(5.0);
  std::string s = h.ToString();
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
}

TEST(HistogramExemplarTest, ExemplarsLandInTheValueBucket) {
  Histogram h({10.0, 100.0});
  h.Observe(5.0, /*exemplar_id=*/77);
  h.Observe(50.0, /*exemplar_id=*/88);
  h.Observe(500.0, /*exemplar_id=*/99);
  h.Observe(42.0);  // no exemplar — must not disturb the stored ones
  auto exemplars = h.exemplars();
  ASSERT_EQ(exemplars.size(), 3u);
  EXPECT_EQ(exemplars[0].id, 77u);
  EXPECT_DOUBLE_EQ(exemplars[0].value, 5.0);
  EXPECT_EQ(exemplars[1].id, 88u);
  EXPECT_EQ(exemplars[2].id, 99u);
  // Last writer wins within a bucket.
  h.Observe(7.0, /*exemplar_id=*/111);
  EXPECT_EQ(h.exemplars()[0].id, 111u);
  // Zero ids are "no exemplar" and never stored.
  h.Observe(8.0, /*exemplar_id=*/0);
  EXPECT_EQ(h.exemplars()[0].id, 111u);
  std::string s = h.ToString();
  EXPECT_NE(s.find("trace=111@7"), std::string::npos);
}

}  // namespace
}  // namespace disc
