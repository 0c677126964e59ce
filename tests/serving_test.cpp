#include "serving/serving.h"

#include <set>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "baselines/dynamic_engine.h"
#include "baselines/fallback_chain.h"
#include "baselines/interpreter_engine.h"
#include "ir/builder.h"
#include "support/metrics.h"

namespace disc {
namespace {

std::vector<Request> FixedRequests(std::vector<std::pair<double, int64_t>>
                                       arrival_and_len) {
  std::vector<Request> requests;
  int64_t id = 0;
  for (auto [arrival, len] : arrival_and_len) {
    requests.push_back({id++, len, arrival});
  }
  return requests;
}

TEST(BatcherTest, NoBatchingIsOnePerRequest) {
  BatcherOptions options;
  options.max_batch = 1;
  auto batches = FormBatches(FixedRequests({{0, 10}, {5, 20}, {9, 30}}),
                             options);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[1].padded_batch, 1);
  EXPECT_EQ(batches[1].padded_seq, 20);
}

TEST(BatcherTest, FillsUpToMaxBatch) {
  BatcherOptions options;
  options.max_batch = 2;
  options.max_wait_us = 1e9;
  auto batches =
      FormBatches(FixedRequests({{0, 8}, {1, 16}, {2, 8}, {3, 8}}), options);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].requests.size(), 2u);
  EXPECT_EQ(batches[0].padded_batch, 2);
  EXPECT_EQ(batches[0].padded_seq, 16);  // padded to longest member
}

TEST(BatcherTest, WaitBudgetClosesBatches) {
  BatcherOptions options;
  options.max_batch = 100;
  options.max_wait_us = 10;
  auto batches =
      FormBatches(FixedRequests({{0, 8}, {5, 8}, {100, 8}}), options);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].requests.size(), 2u);
  EXPECT_EQ(batches[1].requests.size(), 1u);
}

TEST(BatcherTest, BucketPow2Pads) {
  BatcherOptions options;
  options.max_batch = 3;
  options.max_wait_us = 1e9;
  options.pad = PadPolicy::kBucketPow2;
  auto batches =
      FormBatches(FixedRequests({{0, 17}, {1, 30}, {2, 9}}), options);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].padded_batch, 4);   // 3 -> 4
  EXPECT_EQ(batches[0].padded_seq, 32);    // 30 -> 32
}

TEST(BatcherTest, ReadyTimeIsLastArrival) {
  BatcherOptions options;
  options.max_batch = 2;
  auto batches = FormBatches(FixedRequests({{0, 8}, {7, 8}}), options);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_DOUBLE_EQ(batches[0].ready_us, 7.0);
}

TEST(BatcherTest, EmptyStreamFormsNoBatches) {
  for (PadPolicy policy : {PadPolicy::kBatchMax, PadPolicy::kBucketPow2}) {
    BatcherOptions options;
    options.pad = policy;
    EXPECT_TRUE(FormBatches({}, options).empty());
  }
}

TEST(BatcherTest, ArrivalExactlyAtWaitBoundJoinsBatch) {
  BatcherOptions options;
  options.max_batch = 100;
  options.max_wait_us = 10;
  // The bound check is strict '>': 10us after the oldest member is still
  // inside the wait budget, 10.5us is not.
  auto at_bound = FormBatches(FixedRequests({{0, 8}, {10, 8}}), options);
  ASSERT_EQ(at_bound.size(), 1u);
  EXPECT_EQ(at_bound[0].requests.size(), 2u);
  auto past_bound = FormBatches(FixedRequests({{0, 8}, {10.5, 8}}), options);
  EXPECT_EQ(past_bound.size(), 2u);
}

TEST(BatcherTest, UnsortedArrivalsFormSameBatchesAsSorted) {
  BatcherOptions options;
  options.max_batch = 2;
  auto sorted = FormBatches(
      FixedRequests({{0, 8}, {1, 16}, {2, 8}, {3, 32}}), options);
  auto shuffled = FormBatches(
      FixedRequests({{3, 32}, {0, 8}, {2, 8}, {1, 16}}), options);
  ASSERT_EQ(shuffled.size(), sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(shuffled[i].requests.size(), sorted[i].requests.size());
    EXPECT_EQ(shuffled[i].padded_seq, sorted[i].padded_seq);
    EXPECT_DOUBLE_EQ(shuffled[i].ready_us, sorted[i].ready_us);
    for (size_t j = 0; j < sorted[i].requests.size(); ++j) {
      EXPECT_DOUBLE_EQ(shuffled[i].requests[j].arrival_us,
                       sorted[i].requests[j].arrival_us);
    }
  }
}

TEST(BatcherTest, EqualArrivalsBatchIdenticallyForEveryInputPermutation) {
  // Regression: sorting by arrival alone left equal-arrival requests in
  // caller order, so the same logical stream split into different batches
  // depending on input permutation — decode traces replayed through
  // FormBatches were not byte-stable. The order is now the total order
  // (arrival, effective deadline, id).
  BatcherOptions options;
  options.max_batch = 2;
  std::vector<Request> requests;
  for (int64_t id = 0; id < 6; ++id) {
    Request r;
    r.id = id;
    r.seq_len = 8 * (id + 1);
    r.arrival_us = 100.0;  // all tie on arrival
    requests.push_back(r);
  }
  auto reference = FormBatches(requests, options);
  ASSERT_EQ(reference.size(), 3u);
  // Every adjacent-transposition permutation (generates the whole group)
  // must produce identical batch membership, in order.
  for (size_t swap = 0; swap + 1 < requests.size(); ++swap) {
    auto permuted = requests;
    std::swap(permuted[swap], permuted[swap + 1]);
    auto batches = FormBatches(permuted, options);
    ASSERT_EQ(batches.size(), reference.size());
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_EQ(batches[i].requests.size(), reference[i].requests.size());
      for (size_t j = 0; j < batches[i].requests.size(); ++j) {
        EXPECT_EQ(batches[i].requests[j].id, reference[i].requests[j].id)
            << "swap " << swap << " changed batch " << i;
      }
    }
  }
}

TEST(BatcherTest, DeadlineBreaksArrivalTiesTighterFirst) {
  BatcherOptions options;
  options.max_batch = 2;
  std::vector<Request> requests;
  // Same arrival; deadlines 900, none, 500, none. No-deadline requests
  // sort as infinitely-lax (NOT as deadline 0, which would put them
  // first); ties among the deadline-free fall back to id.
  const std::vector<double> deadlines = {900.0, 0.0, 500.0, 0.0};
  for (int64_t id = 0; id < 4; ++id) {
    Request r;
    r.id = id;
    r.seq_len = 8;
    r.arrival_us = 50.0;
    r.deadline_us = deadlines[static_cast<size_t>(id)];
    requests.push_back(r);
  }
  auto batches = FormBatches(requests, options);
  ASSERT_EQ(batches.size(), 2u);
  // Tighter deadlines batch first: (500, 900), then (none id=1, none id=3).
  EXPECT_EQ(batches[0].requests[0].id, 2);
  EXPECT_EQ(batches[0].requests[1].id, 0);
  EXPECT_EQ(batches[1].requests[0].id, 1);
  EXPECT_EQ(batches[1].requests[1].id, 3);
}

TEST(ServingTest, SyntheticStreamIsSortedAndDeterministic) {
  auto a = SyntheticRequestStream(50, 100.0, 3);
  auto b = SyntheticRequestStream(50, 100.0, 3);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i].arrival_us, a[i - 1].arrival_us);
    EXPECT_EQ(a[i].seq_len, b[i].seq_len);
  }
}

TEST(ServingTest, EndToEndSimulationProducesSaneStats) {
  Graph g("serve");
  GraphBuilder b(&g);
  const int64_t kHidden = 32;
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, kHidden});
  b.Output({b.Softmax(b.Relu(x))});

  auto engine = MakeBaseline("DISC");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Prepare(g, {{"B", "S", ""}}).ok());

  auto shape_fn = [kHidden](int64_t batch, int64_t seq) {
    return std::vector<std::vector<int64_t>>{{batch, seq, kHidden}};
  };
  auto requests = SyntheticRequestStream(64, 50.0, 7);
  BatcherOptions options;
  auto stats = SimulateServing(engine->get(), shape_fn, requests, options,
                               DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->p50_us, 0.0);
  EXPECT_GE(stats->p95_us, stats->p50_us);
  EXPECT_GE(stats->p99_us, stats->p95_us);
  EXPECT_GT(stats->throughput_qps, 0.0);
  EXPECT_GT(stats->batches, 0);
  // batch-max padding wastes some tokens (mixed lengths) but < 60%.
  EXPECT_GT(stats->padded_token_fraction, 0.0);
  EXPECT_LT(stats->padded_token_fraction, 0.6);
}

TEST(ServingTest, BucketPaddingWastesMoreThanBatchMax) {
  Graph g("serve2");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 32});
  b.Output({b.Relu(x)});
  auto shape_fn = [](int64_t batch, int64_t seq) {
    return std::vector<std::vector<int64_t>>{{batch, seq, 32}};
  };
  auto requests = SyntheticRequestStream(64, 50.0, 9);

  double waste_batch_max = 0;
  double waste_bucket = 0;
  for (PadPolicy policy : {PadPolicy::kBatchMax, PadPolicy::kBucketPow2}) {
    auto engine = MakeBaseline("DISC");
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Prepare(g, {{"B", "S", ""}}).ok());
    BatcherOptions options;
    options.pad = policy;
    auto stats = SimulateServing(engine->get(), shape_fn, requests, options,
                                 DeviceSpec::T4());
    ASSERT_TRUE(stats.ok());
    if (policy == PadPolicy::kBatchMax) {
      waste_batch_max = stats->padded_token_fraction;
    } else {
      waste_bucket = stats->padded_token_fraction;
    }
  }
  EXPECT_GT(waste_bucket, waste_batch_max);
}

TEST(ServingTest, PlanCacheSpeedsUpBatchMaxServing) {
  // Under kBatchMax the padded (B, S) signatures repeat heavily (full
  // batches pad to the same hot lengths), so the launch-plan cache serves
  // most batches on the fast path — lower host cost per batch, strictly
  // lower mean latency, identical device work.
  Graph g("serve4");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 32});
  b.Output({b.Softmax(b.Relu(x))});
  auto shape_fn = [](int64_t batch, int64_t seq) {
    return std::vector<std::vector<int64_t>>{{batch, seq, 32}};
  };
  auto requests = SyntheticRequestStream(128, 5.0, 13);

  auto run = [&](bool use_plan_cache) {
    DynamicProfile profile = DynamicProfile::Disc();
    profile.use_plan_cache = use_plan_cache;
    DynamicCompilerEngine engine(profile);
    DISC_CHECK_OK(engine.Prepare(g, {{"B", "S", ""}}));
    BatcherOptions options;
    options.pad = PadPolicy::kBatchMax;
    auto stats = SimulateServing(&engine, shape_fn, requests, options,
                                 DeviceSpec::T4());
    DISC_CHECK_OK(stats.status());
    return *stats;
  };
  ServingStats on = run(true);
  ServingStats off = run(false);
  EXPECT_GT(on.plan_hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(off.plan_hit_rate, 0.0);
  EXPECT_LT(on.mean_us, off.mean_us);
  EXPECT_NE(on.ToString().find("plan_hits="), std::string::npos);
}

TEST(ServingTest, FallbackChainReportsItsPrimarysPlanHits) {
  // While its DISC primary is healthy the chain serves every query from
  // it, so a stream served through the chain reports the plan-hit rate the
  // bare engine reports for it: first sight of each signature, then a
  // repeat of the stream that hits on every batch.
  Graph g("serve_chain");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 32});
  b.Output({b.Softmax(b.Relu(x))});
  auto shape_fn = [](int64_t batch, int64_t seq) {
    return std::vector<std::vector<int64_t>>{{batch, seq, 32}};
  };
  const std::vector<Request> requests = SyntheticRequestStream(96, 5.0, 17);
  BatcherOptions options;
  options.pad = PadPolicy::kBatchMax;
  auto serve = [&](Engine* engine) {
    DISC_CHECK_OK(engine->Prepare(g, {{"B", "S", ""}}));
    std::vector<double> rates;
    for (int wave = 0; wave < 2; ++wave) {
      auto stats = SimulateServing(engine, shape_fn, requests, options,
                                   DeviceSpec::A10());
      DISC_CHECK_OK(stats.status());
      rates.push_back(stats->plan_hit_rate);
    }
    return rates;
  };
  DynamicCompilerEngine bare(DynamicProfile::Disc());
  EngineFallbackChain chain(
      std::make_unique<DynamicCompilerEngine>(DynamicProfile::Disc()),
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()));
  const std::vector<double> bare_rates = serve(&bare);
  EXPECT_GT(bare_rates[0], 0.0);
  EXPECT_EQ(bare_rates[1], 1.0);
  EXPECT_EQ(serve(&chain), bare_rates);
  EXPECT_EQ(chain.stats().launch_plan_hits, bare.stats().launch_plan_hits);
  EXPECT_EQ(chain.stats().launch_plan_misses,
            bare.stats().launch_plan_misses);
  EXPECT_EQ(chain.stats().fallback_queries, 0);
}

TEST(ServingTest, BatchingBeatsNoBatchingUnderLoad) {
  Graph g("serve3");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 32});
  b.Output({b.Softmax(x)});
  auto shape_fn = [](int64_t batch, int64_t seq) {
    return std::vector<std::vector<int64_t>>{{batch, seq, 32}};
  };
  // Arrivals much faster than per-query service time: without batching
  // the queue grows without bound.
  auto requests = SyntheticRequestStream(64, 1.0, 11);

  auto run = [&](int64_t max_batch) {
    auto engine = MakeBaseline("DISC");
    DISC_CHECK_OK(engine.status());
    DISC_CHECK_OK((*engine)->Prepare(g, {{"B", "S", ""}}));
    BatcherOptions options;
    options.max_batch = max_batch;
    auto stats = SimulateServing(engine->get(), shape_fn, requests, options,
                                 DeviceSpec::T4());
    DISC_CHECK_OK(stats.status());
    return *stats;
  };
  ServingStats batched = run(8);
  ServingStats solo = run(1);
  EXPECT_GT(batched.throughput_qps, solo.throughput_qps);
  EXPECT_LT(batched.p99_us, solo.p99_us);
}

// Scripted engine for degradation tests: fails the first `fail_first`
// queries with a configurable code, then serves each query in a fixed
// 100us.
class FlakyEngine : public Engine {
 public:
  explicit FlakyEngine(int64_t fail_first,
                       StatusCode code = StatusCode::kUnavailable)
      : fail_first_(fail_first), code_(code) {}

  const std::string& name() const override { return name_; }
  Status Prepare(const Graph&,
                 std::vector<std::vector<std::string>>) override {
    return Status::OK();
  }
  Result<EngineTiming> Query(const std::vector<std::vector<int64_t>>&,
                             const DeviceSpec&) override {
    CountQuery();
    if (attempts_++ < fail_first_) return Status(code_, "scripted failure");
    EngineTiming timing;
    timing.total_us = 100.0;
    timing.device_us = 100.0;
    return timing;
  }
  int64_t attempts() const { return attempts_; }

 private:
  std::string name_ = "flaky";
  int64_t fail_first_;
  StatusCode code_;
  int64_t attempts_ = 0;
};

std::vector<std::vector<int64_t>> UnitShape(int64_t, int64_t) {
  return {{1}};
}

TEST(ServingRobustnessTest, RetryableErrorsAreRetriedWithBackoff) {
  FlakyEngine engine(/*fail_first=*/2);
  BatcherOptions options;
  options.max_batch = 4;
  options.max_retries = 2;
  options.retry_backoff_us = 500.0;
  auto requests = FixedRequests({{0, 8}, {1, 8}});
  auto stats =
      SimulateServing(&engine, UnitShape, requests, options, DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->completed, 2);
  EXPECT_EQ(stats->failed, 0);
  EXPECT_EQ(stats->retries, 2);
  EXPECT_EQ(engine.attempts(), 3);
  // The two backoffs (500 + 1000) delayed the launch; latency reflects the
  // simulated wait, not just the 100us execution.
  EXPECT_GE(stats->p50_us, 1500.0);
}

TEST(ServingRobustnessTest, RetriesExhaustedMarksBatchFailed) {
  FlakyEngine engine(/*fail_first=*/100);
  BatcherOptions options;
  options.max_retries = 2;
  auto requests = FixedRequests({{0, 8}, {1, 8}, {5000, 8}});
  auto stats =
      SimulateServing(&engine, UnitShape, requests, options, DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed, 0);
  EXPECT_EQ(stats->failed, 3);
  EXPECT_EQ(stats->error_counts.at("Unavailable"), 3);
  EXPECT_EQ(stats->submitted,
            stats->completed + stats->shed + stats->deadline_missed +
                stats->failed);
}

TEST(ServingRobustnessTest, NonRetryableErrorFailsWithoutRetry) {
  FlakyEngine engine(/*fail_first=*/100, StatusCode::kInternal);
  BatcherOptions options;
  options.max_retries = 5;
  auto requests = FixedRequests({{0, 8}});
  auto stats =
      SimulateServing(&engine, UnitShape, requests, options, DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->retries, 0);
  EXPECT_EQ(engine.attempts(), 1);
  EXPECT_EQ(stats->failed, 1);
  EXPECT_EQ(stats->error_counts.at("Internal"), 1);
}

TEST(ServingRobustnessTest, ExpiredDeadlineDropsRequestPreExecution) {
  FlakyEngine engine(/*fail_first=*/0);
  BatcherOptions options;
  options.max_batch = 2;
  auto requests = FixedRequests({{0, 8}, {1, 8}});
  // First request's deadline passes while the batch waits for the second
  // member; the second has slack.
  requests[0].deadline_us = 0.5;
  requests[1].deadline_us = 1e9;
  auto stats =
      SimulateServing(&engine, UnitShape, requests, options, DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->deadline_missed, 1);
  EXPECT_EQ(stats->completed, 1);
  EXPECT_EQ(stats->submitted, 2);
}

TEST(ServingRobustnessTest, DeepQueueShedsWholeBatches) {
  // 100us per batch of one, arrivals every 1us: the queue builds far past
  // depth 4, so most batches shed instead of queueing unboundedly.
  FlakyEngine engine(/*fail_first=*/0);
  BatcherOptions options;
  options.max_batch = 1;
  options.max_queue_depth = 4;
  std::vector<Request> requests;
  for (int64_t i = 0; i < 64; ++i) {
    requests.push_back({i, 8, static_cast<double>(i)});
  }
  auto stats =
      SimulateServing(&engine, UnitShape, requests, options, DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->shed, 0);
  EXPECT_GT(stats->completed, 0);
  EXPECT_EQ(stats->submitted,
            stats->completed + stats->shed + stats->deadline_missed +
                stats->failed);
  // Shedding bounds the latency of the survivors: nobody waits behind an
  // unbounded queue.
  EXPECT_LT(stats->p99_us, 100.0 * (options.max_queue_depth + 2));
}

// Memory-aware admission on the arena-planning engine: the batcher asks
// the engine for the predicted footprint of each batch's padded shape and
// sheds batches that would not fit.
class ServingMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphBuilder b(&graph_);
    Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 32});
    b.Output({b.Softmax(b.Relu(x))});
  }

  static std::vector<std::vector<int64_t>> ShapeFor(int64_t batch,
                                                    int64_t seq) {
    return {{batch, seq, 32}};
  }

  // Two small and two large requests, spaced so each forms its own batch.
  static std::vector<Request> MixedRequests() {
    return FixedRequests({{0, 16}, {1000, 128}, {2000, 16}, {3000, 128}});
  }

  Graph graph_{"serve-mem"};
};

TEST_F(ServingMemoryTest, AdmissionShedsPredictedOversizeBatches) {
  DynamicCompilerEngine engine(DynamicProfile::DiscArena());
  DISC_CHECK_OK(engine.Prepare(graph_, {{"B", "S", ""}}));
  auto small = engine.PredictPeakBytes(ShapeFor(1, 16));
  auto large = engine.PredictPeakBytes(ShapeFor(1, 128));
  ASSERT_TRUE(small.ok() && large.ok());
  ASSERT_LT(*small, *large);

  BatcherOptions options;
  options.max_batch = 1;
  options.memory_limit_bytes = (*small + *large) / 2;
  auto stats = SimulateServing(&engine, ShapeFor, MixedRequests(), options,
                               DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->completed, 2);
  EXPECT_EQ(stats->memory_shed, 2);
  // memory_shed is a sub-count of shed: the accounting invariant holds
  // with no extra term.
  EXPECT_EQ(stats->shed, 2);
  EXPECT_EQ(stats->failed, 0);
  EXPECT_EQ(stats->submitted, stats->completed + stats->shed +
                                  stats->deadline_missed + stats->failed);
  EXPECT_NE(stats->ToString().find("memory_shed=2"), std::string::npos);
  EXPECT_GT(engine.stats().memory_predictions, 0);
  EXPECT_GT(engine.stats().last_predicted_peak_bytes, 0);
}

TEST_F(ServingMemoryTest, NoLimitAdmitsEverything) {
  DynamicCompilerEngine engine(DynamicProfile::DiscArena());
  DISC_CHECK_OK(engine.Prepare(graph_, {{"B", "S", ""}}));
  BatcherOptions options;
  options.max_batch = 1;
  auto stats = SimulateServing(&engine, ShapeFor, MixedRequests(), options,
                               DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed, 4);
  EXPECT_EQ(stats->memory_shed, 0);
  EXPECT_EQ(engine.stats().memory_predictions, 0)
      << "no predictions should be made when admission is off";
}

TEST_F(ServingMemoryTest, AdmissionPreventsMidRunExhaustion) {
  // Device capacity enforced by the engine's allocator. Without admission
  // the oversized batches burn retries and fail with ResourceExhausted;
  // with the same budget given to the batcher they are shed up front.
  auto run = [&](bool admission_on) {
    DynamicProfile profile = DynamicProfile::DiscArena();
    DynamicCompilerEngine probe(profile);
    DISC_CHECK_OK(probe.Prepare(graph_, {{"B", "S", ""}}));
    auto small = probe.PredictPeakBytes(ShapeFor(1, 16));
    auto large = probe.PredictPeakBytes(ShapeFor(1, 128));
    DISC_CHECK_OK(small.status());
    DISC_CHECK_OK(large.status());
    const int64_t budget = (*small + *large) / 2;

    profile.memory_limit_bytes = budget;
    DynamicCompilerEngine engine(profile);
    DISC_CHECK_OK(engine.Prepare(graph_, {{"B", "S", ""}}));
    BatcherOptions options;
    options.max_batch = 1;
    options.memory_limit_bytes = admission_on ? budget : 0;
    auto stats = SimulateServing(&engine, ShapeFor, MixedRequests(), options,
                                 DeviceSpec::T4());
    DISC_CHECK_OK(stats.status());
    return *stats;
  };
  ServingStats without = run(false);
  EXPECT_EQ(without.failed, 2);
  EXPECT_GT(without.retries, 0);  // ResourceExhausted is retryable
  EXPECT_EQ(without.error_counts["ResourceExhausted"], 2);
  ServingStats with = run(true);
  EXPECT_EQ(with.failed, 0);
  EXPECT_EQ(with.memory_shed, 2);
  EXPECT_EQ(with.completed, 2);
}

TEST(ServingObservabilityTest, EndToEndLatencyHistogramAndLedgers) {
  Histogram* hist = MetricsRegistry::Global().GetHistogram(
      "serving.request_latency_us");
  const int64_t count_before = hist->count();
  FlakyEngine engine(/*fail_first=*/0);
  BatcherOptions options;
  options.max_batch = 2;
  auto requests = FixedRequests({{0, 8}, {1, 8}, {500, 8}});
  auto stats =
      SimulateServing(&engine, UnitShape, requests, options, DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed, 3);
  // One histogram observation per completed request, and one ledger each
  // that sums to the request's end-to-end latency.
  EXPECT_EQ(hist->count() - count_before, 3);
  ASSERT_EQ(stats->completed_requests.size(), 3u);
  for (const CompletedRequest& r : stats->completed_requests) {
    EXPECT_NE(r.trace_id, 0u);
    EXPECT_NEAR(r.ledger.TotalUs(), r.e2e_us, 1e-6)
        << r.ledger.ToString();
    EXPECT_DOUBLE_EQ(r.ledger.device_us, 100.0);  // FlakyEngine's cost
  }
  // The exemplar planted for a completed request is one of its trace ids.
  std::set<uint64_t> ids;
  for (const CompletedRequest& r : stats->completed_requests) {
    ids.insert(r.trace_id);
  }
  bool exemplar_found = false;
  for (const Histogram::Exemplar& e : hist->exemplars()) {
    if (ids.count(e.id)) exemplar_found = true;
  }
  EXPECT_TRUE(exemplar_found);
}

}  // namespace
}  // namespace disc
