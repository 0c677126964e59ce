#include "decode/decode_scheduler.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/dynamic_engine.h"
#include "decode/decode_replay.h"
#include "decode/kv_cache_pool.h"
#include "models/models.h"
#include "runtime/memory_plan.h"
#include "support/json.h"
#include "support/trace.h"

namespace disc {
namespace {

// ---------------------------------------------------------------------------
// KvCachePool
// ---------------------------------------------------------------------------

TEST(KvCachePoolTest, PlansArenaThroughSymbolicPlanner) {
  KvCachePoolOptions options;
  options.capacity_blocks = 8;
  options.block_tokens = 16;
  options.bytes_per_token = 100;  // deliberately unaligned
  KvCachePool pool(options);
  // Raw block = 1600B; the planner aligns slots to kArenaAlignment.
  EXPECT_EQ(pool.block_bytes() % kArenaAlignment, 0);
  EXPECT_GE(pool.block_bytes(), 1600);
  EXPECT_EQ(pool.arena_bytes(), 8 * pool.block_bytes());
  EXPECT_EQ(pool.free_blocks(), 8);
  EXPECT_FALSE(pool.growth_formula().empty());
}

TEST(KvCachePoolTest, SymbolicGrowthFormulaMatchesBlockQuantization) {
  KvCachePoolOptions options;
  options.block_tokens = 16;
  KvCachePool pool(options);
  // bytes(T) = ceildiv(T, 16) * block_bytes, evaluated symbolically.
  EXPECT_EQ(pool.SequencePeakBytes(1), pool.block_bytes());
  EXPECT_EQ(pool.SequencePeakBytes(16), pool.block_bytes());
  EXPECT_EQ(pool.SequencePeakBytes(17), 2 * pool.block_bytes());
  EXPECT_EQ(pool.SequencePeakBytes(160), 10 * pool.block_bytes());
}

TEST(KvCachePoolTest, ReserveGrowReleaseRecycles) {
  KvCachePoolOptions options;
  options.capacity_blocks = 4;
  options.block_tokens = 8;
  KvCachePool pool(options);

  ASSERT_TRUE(pool.Reserve(/*seq_id=*/1, /*tokens=*/8).ok());
  EXPECT_EQ(pool.blocks_of(1), 1);
  EXPECT_EQ(pool.used_blocks(), 1);
  // Growth inside the block is free; crossing the boundary takes one more.
  ASSERT_TRUE(pool.Grow(1, 8).ok());
  EXPECT_EQ(pool.blocks_of(1), 1);
  ASSERT_TRUE(pool.Grow(1, 9).ok());
  EXPECT_EQ(pool.blocks_of(1), 2);
  EXPECT_EQ(pool.committed_bytes(), 2 * pool.block_bytes());

  // Double-reserve is a caller bug, not pressure.
  EXPECT_EQ(pool.Reserve(1, 8).code(), StatusCode::kInvalidArgument);
  // Exhaustion is ResourceExhausted and counted.
  ASSERT_TRUE(pool.Reserve(2, 16).ok());
  EXPECT_EQ(pool.free_blocks(), 0);
  EXPECT_EQ(pool.Grow(1, 17).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.stats().failed_grants, 1);

  pool.Release(2);
  EXPECT_EQ(pool.free_blocks(), 2);
  EXPECT_EQ(pool.stats().block_recycles, 2);
  ASSERT_TRUE(pool.Grow(1, 17).ok());
  EXPECT_EQ(pool.blocks_of(1), 3);
  EXPECT_EQ(pool.stats().high_water_blocks, 4);
  pool.Release(1);
  EXPECT_EQ(pool.used_blocks(), 0);
}

// ---------------------------------------------------------------------------
// Scheduler (scripted engine for deterministic timing)
// ---------------------------------------------------------------------------

// Cost = fixed overhead + a per-padded-token charge, so smaller/denser
// step batches genuinely finish sooner — the economics continuous batching
// exploits. Optionally rejects any step whose batch exceeds a bound with
// ResourceExhausted (a memory-pressure script for the preemption ladder).
class StepCostEngine : public Engine {
 public:
  explicit StepCostEngine(int64_t reject_batch_above = 0)
      : reject_batch_above_(reject_batch_above) {}

  const std::string& name() const override { return name_; }
  Status Prepare(const Graph&,
                 std::vector<std::vector<std::string>>) override {
    return Status::OK();
  }
  Result<EngineTiming> Query(
      const std::vector<std::vector<int64_t>>& input_dims,
      const DeviceSpec&) override {
    CountQuery();
    const int64_t b = input_dims[1][0];
    const int64_t t = input_dims[1][1];
    if (reject_batch_above_ > 0 && b > reject_batch_above_) {
      return Status::ResourceExhausted("scripted device memory pressure");
    }
    EngineTiming timing;
    timing.device_us = 20.0 + 0.5 * static_cast<double>(b * t);
    timing.host_us = 2.0;
    timing.total_us = timing.device_us + timing.host_us;
    return timing;
  }

 private:
  std::string name_ = "step-cost";
  int64_t reject_batch_above_;
};

std::vector<std::vector<int64_t>> StepShapes(int64_t batch, int64_t kv_len) {
  return {{batch, 1, 8}, {batch, kv_len, 8}, {batch, kv_len, 8},
          {batch, kv_len}};
}

std::vector<DecodeRequest> FixedStream(
    std::vector<std::tuple<double, int64_t, int64_t>> arrival_prompt_decode) {
  std::vector<DecodeRequest> requests;
  int64_t id = 0;
  for (auto [arrival, prompt, decode] : arrival_prompt_decode) {
    DecodeRequest r;
    r.id = id++;
    r.arrival_us = arrival;
    r.prompt_len = prompt;
    r.decode_len = decode;
    requests.push_back(r);
  }
  return requests;
}

TEST(DecodeSchedulerTest, ContinuousCompletesEverySequence) {
  StepCostEngine engine;
  DecodeOptions options;
  options.max_batch = 4;
  auto requests = FixedStream(
      {{0, 8, 4}, {0, 16, 6}, {50, 8, 2}, {400, 24, 3}, {500, 8, 5}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ServingStats& sv = stats->serving;
  EXPECT_EQ(sv.submitted, 5);
  EXPECT_EQ(sv.completed, 5);
  EXPECT_EQ(sv.failed, 0);
  EXPECT_EQ(sv.generated_tokens, 4 + 6 + 2 + 3 + 5);
  EXPECT_EQ(sv.decode_joins, 5);
  EXPECT_EQ(sv.decode_retires, 5);
  EXPECT_GT(sv.decode_steps, 0);
  EXPECT_GT(sv.tokens_per_sec, 0.0);
  EXPECT_GT(sv.p50_tbt_us, 0.0);
  EXPECT_GE(sv.p99_tbt_us, sv.p50_tbt_us);
  // Ragged lengths padded to the block quantum always waste something,
  // but never everything.
  EXPECT_GT(sv.step_padding_waste, 0.0);
  EXPECT_LT(sv.step_padding_waste, 1.0);
  EXPECT_EQ(static_cast<int64_t>(sv.completed_requests.size()), 5);
  // Sequence lifetimes never overlap-free: per-request ledgers were
  // DISC_CHECKed to sum to e2e inside the simulator; spot-check decode
  // fields surfaced.
  for (const CompletedRequest& r : sv.completed_requests) {
    EXPECT_GT(r.e2e_us, 0.0);
    EXPECT_GE(r.ledger.queue_us, 0.0);
    EXPECT_GT(r.ledger.device_us, 0.0);
  }
}

TEST(DecodeSchedulerTest, StepSignaturesAreBlockQuantized) {
  StepCostEngine engine;
  DecodeOptions options;
  options.max_batch = 4;
  options.kv.block_tokens = 16;
  auto requests = FixedStream({{0, 5, 40}, {0, 9, 40}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  ASSERT_FALSE(stats->timeline.empty());
  for (const DecodeStepRecord& rec : stats->timeline) {
    EXPECT_EQ(rec.padded_kv % 16, 0) << rec.signature;
  }
  // 2 sequences x 40 tokens at kv growth 1/step crosses the 16-token
  // boundary a few times; the signature set stays tiny (warm plan cache).
  std::vector<std::string> signatures;
  for (const DecodeStepRecord& rec : stats->timeline) {
    if (std::find(signatures.begin(), signatures.end(), rec.signature) ==
        signatures.end()) {
      signatures.push_back(rec.signature);
    }
  }
  EXPECT_LE(static_cast<int64_t>(signatures.size()), 6);
  EXPECT_GT(static_cast<int64_t>(stats->timeline.size()), 20);
}

TEST(DecodeSchedulerTest, ContinuousBeatsWholeRequestOnThroughputAndWaste) {
  // Two bursts. In each, one long sequence holds the whole-request batch
  // open while the short ones finish early and freeze; the second burst
  // then queues behind the drain. Continuous batching retires the short
  // sequences' slots immediately and admits the next burst mid-flight.
  auto requests = FixedStream({{0, 8, 30},
                               {0, 8, 4},
                               {0, 8, 4},
                               {0, 8, 4},
                               {2000, 8, 6},
                               {2000, 8, 6},
                               {2000, 8, 28}});
  DecodeOptions continuous;
  continuous.policy = DecodePolicy::kContinuous;
  continuous.max_batch = 4;
  DecodeOptions whole = continuous;
  whole.policy = DecodePolicy::kWholeRequest;

  StepCostEngine engine_a;
  auto cont = SimulateDecode(&engine_a, StepShapes, requests, continuous,
                             DeviceSpec::T4());
  StepCostEngine engine_b;
  auto wr = SimulateDecode(&engine_b, StepShapes, requests, whole,
                           DeviceSpec::T4());
  ASSERT_TRUE(cont.ok());
  ASSERT_TRUE(wr.ok());
  EXPECT_EQ(cont->serving.completed, 7);
  EXPECT_EQ(wr->serving.completed, 7);
  // Whole-request batches are hostage to their longest member: finished
  // short sequences keep burning padded rows, arrivals wait for a full
  // drain. Continuous retires/joins per step.
  EXPECT_GT(cont->serving.tokens_per_sec, wr->serving.tokens_per_sec);
  EXPECT_LT(cont->serving.step_padding_waste,
            wr->serving.step_padding_waste);
  EXPECT_LE(cont->serving.p99_tbt_us, wr->serving.p99_tbt_us);
}

TEST(DecodeSchedulerTest, TinyPoolPreemptsAndStillCompletesEverything) {
  StepCostEngine engine;
  DecodeOptions options;
  options.max_batch = 4;
  options.kv.capacity_blocks = 6;  // ~3 sequences' worth once grown
  options.kv.block_tokens = 8;
  auto requests =
      FixedStream({{0, 8, 24}, {0, 8, 24}, {0, 8, 24}, {0, 8, 24}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ServingStats& sv = stats->serving;
  // Memory pressure answered by the decode ladder — preempt + resume —
  // never by dropping mid-flight work.
  EXPECT_GT(sv.preemptions, 0);
  EXPECT_GT(sv.resumes, 0);
  EXPECT_EQ(sv.completed, 4);
  EXPECT_EQ(sv.failed, 0);
  EXPECT_EQ(sv.shed, 0);
  EXPECT_GT(sv.kv_block_recycles, 0);
  EXPECT_LE(sv.kv_high_water_blocks, 6);
  // Preempted sequences accumulated out-of-batch time in the new ledger
  // phase (the sum invariant was DISC_CHECKed per request inside).
  double total_decode_wait = 0.0;
  for (const CompletedRequest& r : sv.completed_requests) {
    total_decode_wait += r.ledger.decode_wait_us;
  }
  EXPECT_GT(total_decode_wait, 0.0);
}

TEST(DecodeSchedulerTest, EngineResourceExhaustionTriggersPreemption) {
  // The pool has room, but the *engine* reports memory pressure for any
  // step batch over 2 — the scheduler must shrink via preemption instead
  // of failing the step.
  StepCostEngine engine(/*reject_batch_above=*/2);
  DecodeOptions options;
  options.max_batch = 4;
  options.max_retries = 1;
  auto requests = FixedStream({{0, 8, 6}, {0, 8, 6}, {0, 8, 6}, {0, 8, 6}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ServingStats& sv = stats->serving;
  EXPECT_EQ(sv.completed, 4);
  EXPECT_EQ(sv.failed, 0);
  EXPECT_GT(sv.preemptions, 0);
  for (const DecodeStepRecord& rec : stats->timeline) {
    EXPECT_LE(rec.occupancy, 2) << "step launched over the scripted limit";
  }
}

TEST(DecodeSchedulerTest, OversizedSequenceFailsInsteadOfLivelocking) {
  StepCostEngine engine;
  DecodeOptions options;
  options.max_batch = 2;
  options.kv.capacity_blocks = 4;
  options.kv.block_tokens = 8;
  // 80-token prompt needs 10 blocks; the pool has 4 even when empty.
  auto requests = FixedStream({{0, 80, 4}, {0, 8, 4}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->serving.failed, 1);
  EXPECT_EQ(stats->serving.completed, 1);
  EXPECT_EQ(stats->serving.error_counts.count("ResourceExhausted"), 1u);
}

TEST(DecodeSchedulerTest, BacklogShedsFreshRequestsOnly) {
  StepCostEngine engine;
  DecodeOptions options;
  options.max_batch = 1;
  options.max_queue_depth = 2;
  auto requests = FixedStream({{0, 8, 40},
                               {1, 8, 4},
                               {2, 8, 4},
                               {3, 8, 4},
                               {4, 8, 4},
                               {5, 8, 4}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  const ServingStats& sv = stats->serving;
  EXPECT_GT(sv.shed, 0);
  EXPECT_EQ(sv.completed + sv.shed, sv.submitted);
}

TEST(DecodeSchedulerTest, MemoryAwareAdmissionCountsKvFootprint) {
  StepCostEngine engine;  // PredictPeakBytes == 0: activations unpriced
  DecodeOptions options;
  options.max_batch = 8;
  options.kv.block_tokens = 8;
  options.kv.bytes_per_token = 512;
  KvCachePool probe(options.kv);
  // Budget: two sequences' worth of committed KV bytes (16-token caches).
  options.memory_limit_bytes = 2 * probe.SequencePeakBytes(16) +
                               probe.block_bytes() / 2;
  auto requests =
      FixedStream({{0, 8, 4}, {0, 8, 4}, {0, 8, 4}, {0, 8, 4}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  // The gate defers joins instead of shedding: occupancy stays bounded,
  // everyone eventually runs.
  EXPECT_EQ(stats->serving.completed, 4);
  for (const DecodeStepRecord& rec : stats->timeline) {
    EXPECT_LE(rec.occupancy, 3);
  }
}

TEST(DecodeSchedulerTest, TimelineJsonIsParseableAndConsistent) {
  StepCostEngine engine;
  DecodeOptions options;
  options.max_batch = 2;
  auto requests = FixedStream({{0, 8, 3}, {10, 8, 5}, {900, 16, 2}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  const std::string text = stats->TimelineJson().SerializePretty();
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* steps = parsed->Find("steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(static_cast<int64_t>(steps->as_array().size()),
            stats->serving.decode_steps);
  const JsonValue* summary = parsed->Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Find("joins")->as_number(),
            static_cast<double>(stats->serving.decode_joins));
  const JsonValue* kv = parsed->Find("kv_pool");
  ASSERT_NE(kv, nullptr);
  EXPECT_GT(kv->Find("arena_bytes")->as_number(), 0.0);
  EXPECT_FALSE(kv->Find("growth_formula")->as_string().empty());
  // Step-local counters roll up to the replay totals.
  int64_t joins = 0, retires = 0;
  for (const DecodeStepRecord& rec : stats->timeline) {
    joins += rec.joins;
    retires += rec.retires;
  }
  EXPECT_EQ(joins, stats->serving.decode_joins);
  EXPECT_EQ(retires, stats->serving.decode_retires);
}

TEST(DecodeSchedulerTest, TimelineTextRendersHeadlineNumbers) {
  StepCostEngine engine;
  DecodeOptions options;
  options.max_batch = 2;
  auto requests = FixedStream({{0, 8, 3}, {10, 8, 5}, {900, 16, 2}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok());
  const std::string rendered = stats->TimelineText();
  EXPECT_NE(rendered.find("policy=continuous"), std::string::npos);
  EXPECT_NE(rendered.find("submitted=3 completed=3"), std::string::npos);
  EXPECT_NE(rendered.find("kv high-water"), std::string::npos);
  // One table row per step (none elided in a replay this small).
  int64_t join_rows = 0;
  for (size_t pos = rendered.find("join"); pos != std::string::npos;
       pos = rendered.find("join", pos + 1)) {
    ++join_rows;
  }
  EXPECT_GE(join_rows, 2);
}

TEST(DecodeSchedulerTest, PreemptSpansNameTheVictimsFreedBlocks) {
  // Every recycled block was freed by a preemption or by a sequence
  // retiring with its full cache, so the preempt spans' kv_blocks_freed
  // must add up to exactly the recycles retirement does not explain.
  StepCostEngine engine;
  DecodeOptions options;
  options.max_batch = 4;
  options.kv.capacity_blocks = 6;
  options.kv.block_tokens = 8;
  auto requests =
      FixedStream({{0, 8, 24}, {0, 8, 24}, {0, 8, 24}, {0, 8, 24}});
  TraceSession& trace = TraceSession::Global();
  trace.Clear();
  trace.Enable();
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  trace.Disable();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ServingStats& sv = stats->serving;
  ASSERT_GE(sv.preemptions, 2);

  int64_t preempt_spans = 0;
  int64_t freed_by_preemption = 0;
  for (const TraceEvent& event : trace.Snapshot("decode.step")) {
    if (event.name != "preempt") continue;
    ++preempt_spans;
    for (const TraceArg& arg : event.args) {
      if (arg.first != "kv_blocks_freed") continue;
      const int64_t freed = std::stoll(arg.second);
      EXPECT_GE(freed, 1);
      freed_by_preemption += freed;
    }
  }
  trace.Clear();
  EXPECT_EQ(preempt_spans, sv.preemptions);
  KvCachePool probe(options.kv);
  int64_t freed_by_retirement = 0;
  for (const DecodeRequest& r : requests) {
    freed_by_retirement += probe.BlocksFor(r.prompt_len + r.decode_len);
  }
  EXPECT_EQ(freed_by_preemption + freed_by_retirement, sv.kv_block_recycles);
}

// Fails queries [fail_from, fail_from + fail_count) with Unavailable, a
// transient fault for the retry ladder, and serves the rest like
// StepCostEngine.
class FlakyStepEngine : public StepCostEngine {
 public:
  FlakyStepEngine(int64_t fail_from, int64_t fail_count)
      : fail_from_(fail_from), fail_count_(fail_count) {}

  Result<EngineTiming> Query(
      const std::vector<std::vector<int64_t>>& input_dims,
      const DeviceSpec& device) override {
    const int64_t attempt = attempts_++;
    if (attempt >= fail_from_ && attempt < fail_from_ + fail_count_) {
      return Status::Unavailable("scripted transient fault");
    }
    return StepCostEngine::Query(input_dims, device);
  }
  int64_t attempts() const { return attempts_; }

 private:
  int64_t fail_from_;
  int64_t fail_count_;
  int64_t attempts_ = 0;
};

TEST(DecodeSchedulerTest, RetryableErrorsAreRetriedWithBackoff) {
  FlakyStepEngine engine(/*fail_from=*/0, /*fail_count=*/2);
  DecodeOptions options;
  options.max_batch = 4;
  options.max_retries = 2;
  options.retry_backoff_us = 500.0;
  auto requests = FixedStream({{0, 8, 3}, {0, 8, 3}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ServingStats& sv = stats->serving;
  EXPECT_EQ(sv.completed, 2);
  EXPECT_EQ(sv.failed, 0);
  EXPECT_EQ(sv.retries, 2);
  EXPECT_EQ(engine.attempts(), 2 + sv.decode_steps);
  // Both members were live in the first step, so each sat through its two
  // backoffs (500 + 1000us).
  ASSERT_EQ(sv.completed_requests.size(), 2u);
  for (const CompletedRequest& r : sv.completed_requests) {
    EXPECT_DOUBLE_EQ(r.ledger.backoff_us, 500.0 + 1000.0);
    EXPECT_EQ(r.retries, 2);
  }
}

TEST(DecodeSchedulerTest, RetriesExhaustedFailsEveryLiveMember) {
  // A whole-request batch of three: the short member completes on the
  // first step and freezes in its padded row, and every later query fails.
  // Both live members fail; the frozen row's blocks still come back.
  FlakyStepEngine engine(/*fail_from=*/1, /*fail_count=*/1000);
  DecodeOptions options;
  options.policy = DecodePolicy::kWholeRequest;
  options.max_batch = 4;
  options.max_retries = 2;
  options.kv.block_tokens = 4;
  auto requests = FixedStream({{0, 8, 1}, {0, 8, 4}, {0, 8, 4}});
  auto stats = SimulateDecode(&engine, StepShapes, requests, options,
                              DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ServingStats& sv = stats->serving;
  EXPECT_EQ(sv.completed, 1);
  EXPECT_EQ(sv.failed, 2);
  EXPECT_EQ(sv.error_counts.at("Unavailable"), 2);
  EXPECT_EQ(sv.retries, 2);
  EXPECT_EQ(engine.attempts(), 1 + 3);
  EXPECT_EQ(sv.submitted,
            sv.completed + sv.shed + sv.deadline_missed + sv.failed);
  // Whole-request batching reserves each member's full footprint at join;
  // all of it is recycled, the frozen member's included.
  KvCachePool probe(options.kv);
  int64_t reserved = 0;
  for (const DecodeRequest& r : requests) {
    reserved += probe.BlocksFor(r.prompt_len + r.decode_len);
  }
  EXPECT_EQ(sv.kv_block_recycles, reserved);
}

TEST(DecodeSchedulerTest, ReplayIsDeterministic) {
  auto requests = SyntheticDecodeStream(/*count=*/24, /*mean_gap_us=*/150.0,
                                        /*seed=*/11);
  DecodeOptions options;
  options.max_batch = 4;
  options.kv.capacity_blocks = 24;
  options.kv.block_tokens = 8;
  StepCostEngine engine_a;
  auto a = SimulateDecode(&engine_a, StepShapes, requests, options,
                          DeviceSpec::T4());
  StepCostEngine engine_b;
  auto b = SimulateDecode(&engine_b, StepShapes, requests, options,
                          DeviceSpec::T4());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->TimelineJson().Serialize(), b->TimelineJson().Serialize());
  // Permutation independence: the same stream in reverse submit order
  // replays identically (trace ids differ; compare the timeline).
  std::vector<DecodeRequest> reversed(requests.rbegin(), requests.rend());
  StepCostEngine engine_c;
  auto c = SimulateDecode(&engine_c, StepShapes, reversed, options,
                          DeviceSpec::T4());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->TimelineJson().Serialize(), c->TimelineJson().Serialize());
}

TEST(DecodeSchedulerTest, PlanCacheStaysWarmAcrossSteps) {
  // Real engine, real model: block-quantized signatures mean the launch
  // plan compiles once per (B, T-bucket) and replays everywhere else.
  ModelConfig config;
  config.hidden = 16;
  config.trace_length = 4;
  Model model = BuildGptStepBatch(config);
  DynamicCompilerEngine engine(DynamicProfile::Disc());
  ASSERT_TRUE(engine.Prepare(*model.graph, model.input_dim_labels).ok());
  DecodeOptions options;
  options.max_batch = 4;
  options.kv.block_tokens = 16;
  auto requests =
      FixedStream({{0, 8, 24}, {0, 12, 24}, {0, 6, 20}, {0, 10, 20}});
  auto stats = SimulateDecode(&engine, GptStepBatchShapeFn(config.hidden),
                              requests, options, DeviceSpec::T4());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->serving.completed, 4);
  EXPECT_GT(stats->serving.plan_hit_rate, 0.5);
}

// ---------------------------------------------------------------------------
// Bit-identity: ragged batched decode == unbatched single-sequence replay
// ---------------------------------------------------------------------------

ModelConfig SmallConfig() {
  ModelConfig config;
  config.hidden = 16;
  config.trace_length = 1;
  return config;
}

TEST(DecodeBitIdentityTest, RaggedPaddedBatchMatchesSingleReplay) {
  const ModelConfig config = SmallConfig();
  std::vector<ReplaySequence> specs = {
      {/*prompt=*/3, /*decode=*/5, /*seed=*/21},
      {/*prompt=*/7, /*decode=*/3, /*seed=*/22},
      {/*prompt=*/12, /*decode=*/4, /*seed=*/23}};
  BatchedDecodeSession session(config, specs);
  // Ragged schedule: 0 and 1 start together, 2 joins at step 2, members
  // retire as they finish — every step padded to the 8-token block grid.
  while (!(session.done(0) && session.done(1) && session.done(2))) {
    std::vector<int64_t> active;
    for (int64_t s = 0; s < 3; ++s) {
      if (s == 2 && session.probs(0).size() < 2) continue;  // late join
      if (!session.done(s)) active.push_back(s);
    }
    ASSERT_TRUE(session.Step(active, /*block_tokens=*/8).ok());
  }
  for (int64_t s = 0; s < 3; ++s) {
    auto reference = ReplaySingleSequence(config, specs[static_cast<size_t>(s)]);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const auto& batched = session.probs(s);
    ASSERT_EQ(batched.size(), reference->size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_TRUE(Tensor::BitEqual(batched[i], (*reference)[i]))
          << "seq " << s << " step " << i << " diverged: max|d|="
          << Tensor::MaxAbsDiff(batched[i], (*reference)[i]);
    }
  }
}

TEST(DecodeBitIdentityTest, PreemptResumeRebuildStaysBitIdentical) {
  const ModelConfig config = SmallConfig();
  std::vector<ReplaySequence> specs = {{/*prompt=*/5, /*decode=*/6, 31},
                                       {/*prompt=*/9, /*decode=*/6, 32}};
  BatchedDecodeSession session(config, specs);
  ASSERT_TRUE(session.Step({0, 1}, 8).ok());
  ASSERT_TRUE(session.Step({0, 1}, 8).ok());
  // Preempt seq 1 (cache dropped — the scheduler's memory-pressure move),
  // run seq 0 alone for two steps, then resume seq 1: its cache rebuilds
  // from the token stream before it re-enters the batch.
  session.Preempt(1);
  ASSERT_TRUE(session.Step({0}, 8).ok());
  ASSERT_TRUE(session.Step({0}, 8).ok());
  while (!(session.done(0) && session.done(1))) {
    std::vector<int64_t> active;
    for (int64_t s = 0; s < 2; ++s) {
      if (!session.done(s)) active.push_back(s);
    }
    ASSERT_TRUE(session.Step(active, 8).ok());
  }
  for (int64_t s = 0; s < 2; ++s) {
    auto reference = ReplaySingleSequence(config, specs[static_cast<size_t>(s)]);
    ASSERT_TRUE(reference.ok());
    const auto& batched = session.probs(s);
    ASSERT_EQ(batched.size(), reference->size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_TRUE(Tensor::BitEqual(batched[i], (*reference)[i]))
          << "seq " << s << " step " << i << " diverged after preempt";
    }
  }
}

TEST(DecodeBitIdentityTest, PaddingGridDoesNotChangeBits) {
  // The same schedule on the exact grid and on two block grids: identical
  // captured outputs — padding is inert, not merely small.
  const ModelConfig config = SmallConfig();
  const ReplaySequence spec{/*prompt=*/4, /*decode=*/4, /*seed=*/41};
  std::vector<std::vector<Tensor>> runs;
  for (int64_t block : {0, 8, 32}) {
    BatchedDecodeSession session(config, {spec});
    while (!session.done(0)) {
      ASSERT_TRUE(session.Step({0}, block).ok());
    }
    runs.push_back(session.probs(0));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_TRUE(Tensor::BitEqual(runs[r][i], runs[0][i]));
    }
  }
}

}  // namespace
}  // namespace disc
