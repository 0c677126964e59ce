// Per-request causal tracing: the ledger invariant (phases sum to the
// measured end-to-end latency, on every completed request), trace-id
// propagation across the serving -> engine -> compile-service layers
// (including the fallback-chain and async hot-swap paths, and across
// threads), tail-blame attribution, and the shape-aware outlier flight
// recorder.
#include "support/blame.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "baselines/dynamic_engine.h"
#include "baselines/fallback_chain.h"
#include "baselines/interpreter_engine.h"
#include "compile_service/compile_service.h"
#include "ir/builder.h"
#include "serving/serving.h"
#include "support/failpoint.h"
#include "support/flight_recorder.h"
#include "support/json.h"

namespace disc {
namespace {

constexpr int64_t kHidden = 32;

void BuildModel(Graph* g) {
  GraphBuilder b(g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, kHidden});
  b.Output({b.Softmax(b.Relu(x))});
}

std::vector<std::vector<int64_t>> ShapeFor(int64_t batch, int64_t seq) {
  return {{batch, seq, kHidden}};
}

void ExpectLedgersSumToE2e(const ServingStats& stats) {
  ASSERT_EQ(static_cast<int64_t>(stats.completed_requests.size()),
            stats.completed);
  for (const CompletedRequest& r : stats.completed_requests) {
    EXPECT_NE(r.trace_id, 0u);
    EXPECT_NEAR(r.ledger.TotalUs(), r.e2e_us,
                1e-6 * std::max(1.0, r.e2e_us))
        << "request " << r.request_id << ": " << r.ledger.ToString();
  }
}

TEST(PhaseLedgerTest, NamesValuesAndTotalStayInSync) {
  PhaseLedger ledger;
  ledger.batch_form_us = 1.0;
  ledger.queue_us = 2.0;
  ledger.backoff_us = 4.0;
  ledger.decode_wait_us = 8.0;
  ledger.compile_stall_us = 16.0;
  ledger.host_plan_us = 32.0;
  ledger.alloc_us = 64.0;
  ledger.device_us = 128.0;
  EXPECT_DOUBLE_EQ(ledger.TotalUs(), 255.0);
  const auto& names = PhaseLedger::PhaseNames();
  const auto values = ledger.PhaseValues();
  ASSERT_EQ(names.size(), values.size());
  ASSERT_EQ(names.size(), 8u);
  double sum = 0.0;
  for (double v : values) sum += v;
  EXPECT_DOUBLE_EQ(sum, ledger.TotalUs());
  // Distinct powers of two: each value identifies its phase uniquely.
  EXPECT_EQ(names.front(), "batch_form");
  EXPECT_EQ(names.back(), "device");
  EXPECT_DOUBLE_EQ(values.front(), 1.0);
  EXPECT_DOUBLE_EQ(values.back(), 128.0);
  EXPECT_STREQ(ledger.DominantPhase(), "device");
}

TEST(RequestContextTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(RequestContext::Current(), nullptr);
  EXPECT_EQ(RequestContext::CurrentTraceId(), 0u);
  RequestContext outer(RequestContext::MintTraceId());
  {
    RequestContextScope outer_scope(&outer);
    EXPECT_EQ(RequestContext::CurrentTraceId(), outer.trace_id);
    RequestContext inner(RequestContext::MintTraceId());
    {
      RequestContextScope inner_scope(&inner);
      EXPECT_EQ(RequestContext::CurrentTraceId(), inner.trace_id);
    }
    EXPECT_EQ(RequestContext::CurrentTraceId(), outer.trace_id);
  }
  EXPECT_EQ(RequestContext::Current(), nullptr);
}

TEST(RequestContextTest, MintedIdsAreUniqueAcrossThreads) {
  std::mutex mu;
  std::set<uint64_t> ids;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      std::vector<uint64_t> local;
      for (int i = 0; i < 256; ++i) local.push_back(RequestContext::MintTraceId());
      std::lock_guard<std::mutex> lock(mu);
      for (uint64_t id : local) {
        EXPECT_NE(id, 0u);
        EXPECT_TRUE(ids.insert(id).second) << "duplicate trace id " << id;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ids.size(), 4u * 256u);
}

// The tentpole invariant, on the real serving path: every completed
// request's ledger sums to its end-to-end latency, through the
// DISC->interpreter fallback chain with a fixed lazy-compile stall (the
// compile_stall phase) and priced allocator calls (the alloc phase).
TEST(ServingLedgerTest, LedgersSumToEndToEndThroughFallbackChain) {
  Graph graph("model");
  BuildModel(&graph);
  FallbackChainOptions chain_options;
  chain_options.compile_stall_us = 400.0;
  DynamicProfile profile = DynamicProfile::Disc();
  profile.per_alloc_host_us = 0.05;
  EngineFallbackChain chain(
      std::make_unique<DynamicCompilerEngine>(profile),
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      chain_options);
  DISC_CHECK_OK(chain.Prepare(graph, {{"B", "S", ""}}));

  auto requests = SyntheticRequestStream(64, 50.0, 3);
  BatcherOptions options;
  auto stats = SimulateServing(&chain, ShapeFor, requests, options,
                               DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->completed, 64);
  ExpectLedgersSumToE2e(*stats);
  // The priced allocator phase must show up somewhere.
  double total_alloc = 0.0;
  for (const CompletedRequest& r : stats->completed_requests) {
    total_alloc += r.ledger.alloc_us;
  }
  EXPECT_GT(total_alloc, 0.0);
}

// Trace ids survive the degraded route: a compile outage forces the
// chain onto its interpreter leg; the degraded requests still carry
// minted trace ids, and their ledgers (including the failed-compile
// stall) still sum to e2e.
TEST(ServingLedgerTest, TraceIdsSurviveFallbackAndOutage) {
  FailpointRegistry::Global().DisarmAll();
  DISC_CHECK_OK(FailpointRegistry::Global().ArmFromSpec(
      "compiler.compile=always:max=5"));
  Graph graph("model");
  BuildModel(&graph);
  FallbackChainOptions chain_options;
  chain_options.compile_stall_us = 300.0;
  chain_options.failure_threshold = 3;
  chain_options.cooldown_us = 5000.0;
  EngineFallbackChain chain(
      std::make_unique<DynamicCompilerEngine>(DynamicProfile::Disc()),
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      chain_options);
  DISC_CHECK_OK(chain.Prepare(graph, {{"B", "S", ""}}));

  auto requests = SyntheticRequestStream(48, 80.0, 5);
  auto stats = SimulateServing(&chain, ShapeFor, requests, BatcherOptions{},
                               DeviceSpec::T4());
  FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->degraded, 0);
  ExpectLedgersSumToE2e(*stats);
  std::set<uint64_t> ids;
  bool degraded_with_stall = false;
  for (const CompletedRequest& r : stats->completed_requests) {
    EXPECT_TRUE(ids.insert(r.trace_id).second)
        << "duplicate trace id " << r.trace_id;
    if (r.degraded && r.ledger.compile_stall_us > 0.0) {
      degraded_with_stall = true;
    }
  }
  // The early degraded requests paid the doomed compile attempts' stall —
  // the ledger attributes it instead of losing it.
  EXPECT_TRUE(degraded_with_stall);
}

// Trace ids survive the async hot-swap path: early requests serve on the
// interpreter leg, the compiled executable swaps in mid-stream, and every
// request on both routes carries a valid ledger.
TEST(ServingLedgerTest, LedgersValidAcrossAsyncHotSwap) {
  Graph graph("model");
  BuildModel(&graph);
  CompileServiceOptions service_options;
  service_options.num_workers = 1;
  CompileService service(service_options);
  AsyncEngineOptions async_options;
  async_options.simulated_compile_latency_us = 2000.0;  // deterministic gate
  DynamicCompilerEngine engine(
      &service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      async_options);
  DISC_CHECK_OK(engine.Prepare(graph, {{"B", "S", ""}}));

  auto requests = SyntheticRequestStream(96, 60.0, 9);
  auto stats = SimulateServing(&engine, ShapeFor, requests, BatcherOptions{},
                               DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  service.Drain();
  EXPECT_GT(engine.swaps(), 0);
  EXPECT_GT(stats->degraded, 0);                    // pre-swap route used
  EXPECT_LT(stats->degraded, stats->completed);     // post-swap route used
  ExpectLedgersSumToE2e(*stats);
}

// Cross-thread propagation into the compile service: a job submitted
// under a request's context carries the captured trace id in its timeline
// entry, even though it runs on a worker thread.
TEST(CompileServiceTraceTest, SubmitCapturesOriginTraceId) {
  Graph graph("model");
  BuildModel(&graph);
  CompileService service;
  RequestContext context(RequestContext::MintTraceId());
  CompileJobHandle handle;
  {
    RequestContextScope scope(&context);
    CompileJobRequest request;
    request.model_name = "model";
    request.graph = &graph;
    request.labels = {{"B", "S", ""}};
    handle = service.Submit(std::move(request));
  }
  handle.Wait();
  service.Drain();
  bool found = false;
  for (const JobTimelineEntry& entry : service.JobTimeline()) {
    if (entry.job_id == handle.job_id()) {
      EXPECT_EQ(entry.origin_trace_id, context.trace_id);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // And the human-readable timeline prints the causal link.
  EXPECT_NE(service.JobTimelineString().find("caused-by trace_id="),
            std::string::npos);
}

// Four serving threads, each with its own engine and stream: ledgers hold
// on every thread and trace ids never collide across threads.
TEST(ServingLedgerTest, MultiThreadedServingMintsUniqueIdsAndValidLedgers) {
  constexpr int kThreads = 4;
  std::vector<ServingStats> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &results] {
      Graph graph("model");
      BuildModel(&graph);
      DynamicCompilerEngine engine(DynamicProfile::Disc());
      DISC_CHECK_OK(engine.Prepare(graph, {{"B", "S", ""}}));
      auto requests =
          SyntheticRequestStream(64, 50.0, 100 + static_cast<uint64_t>(t));
      auto stats = SimulateServing(&engine, ShapeFor, requests,
                                   BatcherOptions{}, DeviceSpec::T4());
      DISC_CHECK_OK(stats.status());
      results[t] = *stats;
    });
  }
  for (auto& th : threads) th.join();
  std::set<uint64_t> ids;
  for (const ServingStats& stats : results) {
    EXPECT_EQ(stats.completed, 64);
    ExpectLedgersSumToE2e(stats);
    for (const CompletedRequest& r : stats.completed_requests) {
      EXPECT_TRUE(ids.insert(r.trace_id).second)
          << "trace id " << r.trace_id << " minted twice";
    }
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads) * 64u);
}

CompletedRequest MakeRequest(uint64_t trace_id, const std::string& signature,
                             double device_us, double queue_us) {
  CompletedRequest r;
  r.trace_id = trace_id;
  r.request_id = static_cast<int64_t>(trace_id);
  r.signature = signature;
  r.ledger.device_us = device_us;
  r.ledger.queue_us = queue_us;
  r.e2e_us = r.ledger.TotalUs();
  return r;
}

TEST(BlameReportTest, SharesSumToOneAndTailBlamesTheRightPhase) {
  TailBlameAggregator aggregator;
  // 99 fast device-bound requests and one slow queue-bound straggler.
  for (uint64_t i = 1; i <= 99; ++i) {
    aggregator.Add(MakeRequest(i, "4x32", /*device_us=*/100.0,
                               /*queue_us=*/10.0));
  }
  aggregator.Add(MakeRequest(100, "8x128", /*device_us=*/100.0,
                             /*queue_us=*/5000.0));
  BlameReport report = aggregator.Compute(99.0);
  EXPECT_EQ(report.total_requests, 100);
  EXPECT_GE(report.tail_requests, 1);
  double overall_sum = 0.0;
  double tail_sum = 0.0;
  double tail_queue_share = 0.0;
  double tail_device_share = 0.0;
  for (const auto& [phase, share] : report.overall_shares) {
    overall_sum += share;
  }
  for (const auto& [phase, share] : report.tail_shares) {
    tail_sum += share;
    if (phase == "queue") tail_queue_share = share;
    if (phase == "device") tail_device_share = share;
  }
  EXPECT_NEAR(overall_sum, 1.0, 1e-9);
  EXPECT_NEAR(tail_sum, 1.0, 1e-9);
  // The tail is the straggler: queue owns it.
  EXPECT_GT(tail_queue_share, tail_device_share);
  ASSERT_FALSE(report.tail_signatures.empty());
  EXPECT_EQ(report.tail_signatures.front().first, "8x128");
}

TEST(BlameReportTest, JsonRoundTripValidates) {
  TailBlameAggregator aggregator;
  for (uint64_t i = 1; i <= 20; ++i) {
    aggregator.Add(MakeRequest(i, "2x64", 50.0 + static_cast<double>(i),
                               5.0));
  }
  BlameReport report = aggregator.Compute(90.0);
  const std::string json_text = report.ToJson().SerializePretty();
  double sum = 0.0;
  Status valid = ValidateBlameReportJson(json_text, 1e-6, &sum);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // Corrupting a share must fail validation.
  std::string corrupt = json_text;
  size_t pos = corrupt.find("\"device\"");
  ASSERT_NE(pos, std::string::npos);
  pos = corrupt.find(':', pos);
  corrupt.insert(pos + 1, " 0.5 +");
  EXPECT_FALSE(ValidateBlameReportJson(corrupt, 1e-6, &sum).ok());
}

TEST(BlameReportTest, EmptyAggregatorProducesEmptyReport) {
  TailBlameAggregator aggregator;
  BlameReport report = aggregator.Compute(99.0);
  EXPECT_EQ(report.total_requests, 0);
  EXPECT_EQ(report.tail_requests, 0);
  EXPECT_TRUE(report.tail_shares.empty());
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder& recorder = FlightRecorder::Global();
    recorder.Clear();
    FlightRecorder::Options options;
    options.capacity = 4;
    options.min_samples = 8;
    options.stddev_threshold = 3.0;
    options.min_inflation = 1.25;
    recorder.Configure(options);
    recorder.Enable();
  }
  void TearDown() override {
    FlightRecorder::Global().Disable();
    FlightRecorder::Global().Clear();
  }

  PhaseLedger DeviceLedger(double us) {
    PhaseLedger ledger;
    ledger.device_us = us;
    return ledger;
  }
};

TEST_F(FlightRecorderTest, RetainsOnlyPerSignatureOutliers) {
  FlightRecorder& recorder = FlightRecorder::Global();
  // Warm two signatures: "1x32" around 100us, "16x128" around 800us.
  for (int i = 0; i < 20; ++i) {
    double small = 100.0 + (i % 5);
    double large = 800.0 + (i % 5);
    EXPECT_FALSE(recorder.Observe("1x32", small, 0.0, 1000 + i,
                                  DeviceLedger(small)));
    EXPECT_FALSE(recorder.Observe("16x128", large, 0.0, 2000 + i,
                                  DeviceLedger(large)));
  }
  // 500us is unremarkable globally (well under the large signature's
  // mean) but a wild outlier for "1x32" — shape-awareness is the point.
  EXPECT_TRUE(recorder.Observe("1x32", 500.0, 0.0, 42, DeviceLedger(500.0),
                               {{"note", "injected"}}));
  EXPECT_FALSE(
      recorder.Observe("16x128", 810.0, 0.0, 43, DeviceLedger(810.0)));
  auto records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, 42u);
  EXPECT_EQ(records[0].signature, "1x32");
  EXPECT_GT(records[0].signature_count, 0);
  EXPECT_NEAR(records[0].signature_mean_us, 102.0, 5.0);
  ASSERT_EQ(records[0].annotations.size(), 1u);
  EXPECT_EQ(records[0].annotations[0].first, "note");
}

TEST_F(FlightRecorderTest, ColdSignaturesNeverFlagTheirOwnWarmup) {
  FlightRecorder& recorder = FlightRecorder::Global();
  // Wildly varying latencies, all below min_samples: nothing retained.
  for (int i = 0; i < 7; ++i) {
    double us = (i % 2 == 0) ? 10.0 : 10000.0;
    EXPECT_FALSE(recorder.Observe("2x64", us, 0.0, 100 + i, DeviceLedger(us)));
  }
  EXPECT_EQ(recorder.stats().retained, 0);
}

TEST_F(FlightRecorderTest, RingIsBoundedAndCountsDrops) {
  FlightRecorder& recorder = FlightRecorder::Global();
  for (int i = 0; i < 20; ++i) {
    recorder.Observe("1x16", 100.0, 0.0, 500 + i, DeviceLedger(100.0));
  }
  // Ten clear outliers against capacity 4: ring keeps the newest four.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(recorder.Observe("1x16", 1000.0 + i, 0.0, 600 + i,
                                 DeviceLedger(1000.0 + i)));
  }
  auto records = recorder.Snapshot();
  EXPECT_EQ(records.size(), 4u);
  EXPECT_EQ(records.back().trace_id, 609u);  // newest retained
  const FlightRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.retained, 10);
  EXPECT_EQ(stats.dropped, 6);
}

TEST_F(FlightRecorderTest, DisabledObserveIsANoOp) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Disable();
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(
        recorder.Observe("1x8", 100.0, 0.0, 700 + i, DeviceLedger(100.0)));
  }
  EXPECT_EQ(recorder.stats().observed, 0);
  double mean = 0.0, stddev = 0.0;
  int64_t count = 0;
  recorder.SignatureStats("1x8", &mean, &stddev, &count);
  EXPECT_EQ(count, 0);
}

// End-to-end: serving with the recorder on retains an injected
// shape-signature outlier (a batch that paid retry backoff) and the
// serving latency histogram carries its trace id as an exemplar.
TEST(FlightRecorderServingTest, ServingRetainsInjectedOutlier) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();
  FlightRecorder::Options options;
  options.capacity = 16;
  options.min_samples = 4;
  recorder.Configure(options);
  recorder.Enable();
  FailpointRegistry::Global().DisarmAll();

  Graph graph("model");
  BuildModel(&graph);
  DynamicCompilerEngine engine(DynamicProfile::Disc());
  DISC_CHECK_OK(engine.Prepare(graph, {{"B", "S", ""}}));
  // A steady one-request-per-batch stream, then a kernel fault window that
  // makes a few batches pay retry backoff — outliers for their signature.
  auto requests = SyntheticRequestStream(64, 200.0, 13);
  BatcherOptions batcher;
  batcher.max_batch = 1;
  batcher.max_retries = 2;
  batcher.retry_backoff_us = 2000.0;
  DISC_CHECK_OK(FailpointRegistry::Global().ArmFromSpec(
      "runtime.kernel=every:29:code=unavailable"));
  auto stats = SimulateServing(&engine, ShapeFor, requests, batcher,
                               DeviceSpec::T4());
  FailpointRegistry::Global().DisarmAll();
  recorder.Disable();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->retries, 0);
  ExpectLedgersSumToE2e(*stats);

  auto records = recorder.Snapshot();
  ASSERT_GT(records.size(), 0u);
  // The injected cause must be visible in the retained evidence: at least
  // one outlier's ledger shows the retry backoff. (Faulted batches also
  // delay their neighbors, so queue-dominant outliers are legitimate too.)
  std::set<uint64_t> retained_ids;
  bool backoff_outlier = false;
  for (const FlightRecord& r : records) {
    retained_ids.insert(r.trace_id);
    if (r.ledger.backoff_us > 0.0) backoff_outlier = true;
  }
  EXPECT_TRUE(backoff_outlier)
      << "no retained outlier paid backoff; first: " << records[0].ToString();
  // The retained trace ids are real completed requests.
  std::set<uint64_t> completed_ids;
  for (const CompletedRequest& r : stats->completed_requests) {
    completed_ids.insert(r.trace_id);
  }
  for (uint64_t id : retained_ids) {
    EXPECT_TRUE(completed_ids.count(id)) << "unknown retained id " << id;
  }
  recorder.Clear();
}

}  // namespace
}  // namespace disc
