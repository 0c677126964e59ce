#include "decode/decode_scheduler.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "support/artifact_dump.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace disc {

const char* DecodePolicyName(DecodePolicy policy) {
  switch (policy) {
    case DecodePolicy::kContinuous:
      return "continuous";
    case DecodePolicy::kWholeRequest:
      return "whole-request";
  }
  return "?";
}

namespace {

/// Mutable per-sequence replay state. Preemption is modeled as swap-out:
/// the KV blocks recycle but the sequence's progress survives, so resume
/// re-grants blocks for the full kv length (no recompute on the timing
/// path; the numeric replay in decode_replay.cc rebuilds caches for real).
struct SeqState {
  DecodeRequest req;
  int64_t generated = 0;
  /// Whole-request batching: done generating but still holding its padded
  /// row and KV blocks until the whole batch drains.
  bool frozen = false;
  double first_join_us = -1.0;
  /// While mid-flight but out of the batch (preempted): when it left.
  double out_since_us = 0.0;
  /// Last token completion (join time before the first token) — TBT gaps
  /// measure from here, so a preemption gap shows up as client stutter.
  double last_token_us = 0.0;
  PhaseLedger ledger;
  int64_t retries = 0;
  int64_t preempt_count = 0;
  bool degraded = false;

  /// KV entries the next step attends to (prompt + generated so far).
  int64_t kv_len() const { return req.prompt_len + generated; }
  /// Final cache length after the last decode step.
  int64_t total_len() const { return req.prompt_len + req.decode_len; }
};

}  // namespace

Result<DecodeStats> SimulateDecode(Engine* engine,
                                   const DecodeShapeFn& shape_fn,
                                   const std::vector<DecodeRequest>& requests,
                                   const DecodeOptions& options,
                                   const DeviceSpec& device) {
  if (engine == nullptr) {
    return Status::InvalidArgument("SimulateDecode: null engine");
  }
  if (options.max_batch <= 0) {
    return Status::InvalidArgument("SimulateDecode: max_batch must be > 0");
  }
  for (const DecodeRequest& r : requests) {
    if (r.prompt_len <= 0 || r.decode_len <= 0) {
      return Status::InvalidArgument(StrFormat(
          "SimulateDecode: request %lld needs prompt_len > 0 and "
          "decode_len > 0",
          static_cast<long long>(r.id)));
    }
  }
  const bool continuous = options.policy == DecodePolicy::kContinuous;

  // Sequence table in (arrival, id) order — the same total order
  // FormBatches uses, so decode replays are permutation-independent too.
  std::vector<SeqState> seqs;
  seqs.reserve(requests.size());
  for (const DecodeRequest& r : requests) {
    SeqState s;
    s.req = r;
    if (s.req.trace_id == 0) s.req.trace_id = RequestContext::MintTraceId();
    seqs.push_back(std::move(s));
  }
  std::stable_sort(seqs.begin(), seqs.end(),
                   [](const SeqState& a, const SeqState& b) {
                     if (a.req.arrival_us != b.req.arrival_us) {
                       return a.req.arrival_us < b.req.arrival_us;
                     }
                     return a.req.id < b.req.id;
                   });

  KvCachePool pool(options.kv);
  DecodeStats stats;
  stats.policy = DecodePolicyName(options.policy);
  ServingStats& sv = stats.serving;
  sv.submitted = static_cast<int64_t>(seqs.size());

  const int64_t hits_before = engine->stats().launch_plan_hits;
  const int64_t misses_before = engine->stats().launch_plan_misses;
  TraceSession& trace = TraceSession::Global();
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* launch_counter = registry.GetCounter("runtime.kernel.launches");
  Counter* memory_bound_counter =
      registry.GetCounter("runtime.kernel.memory_bound");
  const int64_t launches_before = launch_counter->value();
  const int64_t memory_bound_before = memory_bound_counter->value();
  Histogram* occupancy_hist = registry.GetHistogram(
      "decode.step_occupancy", {1, 2, 4, 8, 16, 32, 64});
  Histogram* tbt_hist = registry.GetHistogram("decode.tbt_us");
  Histogram* waste_hist = registry.GetHistogram(
      "decode.step_pad_waste_pct", {0, 5, 10, 20, 30, 40, 50, 75, 100});
  CountMetric("decode.requests", sv.submitted);

  double clock_us = 0.0;
  size_t arrival_cursor = 0;
  std::vector<size_t> running;  // indices into seqs, oldest join first
  std::deque<size_t> wait_queue;
  std::vector<double> latencies;
  std::vector<double> tbt_gaps;
  int64_t total_real_tokens = 0;
  int64_t total_padded_tokens = 0;

  const int64_t block_tokens = options.kv.block_tokens;
  auto pad_batch = [&](int64_t b) {
    return options.pad_pow2 ? NextPowerOfTwo(b) : b;
  };
  // KV padded to the block quantum: signatures repeat every block_tokens
  // steps of growth, so the launch-plan cache amortizes across steps.
  auto pad_kv = [&](int64_t t) {
    return options.pad_pow2 ? NextPowerOfTwo(t) : RoundUp(t, block_tokens);
  };

  auto live_count = [&]() {
    int64_t n = 0;
    for (size_t idx : running) {
      if (!seqs[idx].frozen) ++n;
    }
    return n;
  };
  auto max_live_kv = [&]() {
    int64_t t = 1;
    for (size_t idx : running) {
      if (!seqs[idx].frozen) t = std::max(t, seqs[idx].kv_len());
    }
    return t;
  };

  auto fail_seq = [&](size_t idx, const Status& error) {
    ++sv.failed;
    const std::string code = StatusCodeToString(error.code());
    ++sv.error_counts[code];
    CountMetric("serving.errors." + code);
    pool.Release(static_cast<int64_t>(idx));
  };

  // Preempt: recycle the victim's blocks, requeue it at the FRONT of the
  // wait queue (resume priority — it already consumed device time, and
  // finishing it releases blocks fastest). `backoff_so_far_us` is retry
  // backoff the victim sat through in the current step before being
  // evicted; it goes to the ledger now because the victim will not be in
  // the batch when the step's timing lands.
  auto preempt = [&](size_t victim, double now_us, double backoff_so_far_us) {
    SeqState& s = seqs[victim];
    const int64_t freed_blocks = pool.blocks_of(static_cast<int64_t>(victim));
    pool.Release(static_cast<int64_t>(victim));
    running.erase(std::find(running.begin(), running.end(), victim));
    wait_queue.push_front(victim);
    s.out_since_us = now_us;
    s.ledger.backoff_us += backoff_so_far_us;
    ++s.preempt_count;
    ++sv.preemptions;
    CountMetric("decode.preemptions");
    if (trace.enabled()) {
      trace.AddCompleteEvent(
          "preempt", "decode.step", now_us, /*dur_us=*/-1.0,
          TraceSession::kSimPid, /*tid=*/0,
          {{"seq", std::to_string(s.req.id)},
           {"generated", std::to_string(s.generated)},
           {"kv_blocks_freed", std::to_string(freed_blocks)}});
    }
  };

  // Lowest-progress victim (fewest generated tokens; ties go to the later
  // arrival, so older work survives). Never the frozen — they hold no
  // growth and already completed.
  auto pick_victim = [&]() -> size_t {
    size_t victim = running.front();
    for (size_t idx : running) {
      const SeqState& s = seqs[idx];
      const SeqState& v = seqs[victim];
      if (s.frozen) continue;
      if (seqs[victim].frozen || s.generated < v.generated ||
          (s.generated == v.generated &&
           s.req.arrival_us > v.req.arrival_us)) {
        victim = idx;
      }
    }
    return victim;
  };

  // Admission gate: KV blocks first (the pool IS the capacity), then the
  // engine's symbolic activation peak for the would-be step shape plus all
  // committed KV bytes against the memory budget — the PR 6
  // PredictPeakBytes admission extended with the cache footprint.
  auto can_admit = [&](const SeqState& s) {
    // Continuous: blocks for the current cache plus the entry this step
    // appends (so a fresh join never immediately preempts someone in the
    // growth phase). Whole-request: the full eventual footprint up front —
    // the classic over-reservation continuous batching exists to avoid.
    const int64_t reserve_tokens =
        continuous ? s.kv_len() + 1 : s.total_len();
    const int64_t blocks = pool.BlocksFor(reserve_tokens);
    if (!pool.CanReserve(blocks)) return false;
    if (options.memory_limit_bytes > 0) {
      const int64_t b = pad_batch(static_cast<int64_t>(running.size()) + 1);
      const int64_t t = pad_kv(std::max(max_live_kv(), s.kv_len()));
      Result<int64_t> predicted =
          engine->PredictPeakBytes(shape_fn(b, t));
      const int64_t kv_bytes =
          pool.committed_bytes() + blocks * pool.block_bytes();
      // A failed or absent activation prediction (0) gates on the KV
      // footprint alone — the pool's committed bytes are always known.
      const int64_t activations =
          predicted.ok() ? std::max<int64_t>(*predicted, 0) : 0;
      if (activations + kv_bytes > options.memory_limit_bytes) {
        return false;
      }
    }
    return true;
  };

  auto admit = [&](size_t idx) {
    SeqState& s = seqs[idx];
    const int64_t reserve_tokens =
        continuous ? s.kv_len() + 1 : s.total_len();
    Status st = pool.Reserve(static_cast<int64_t>(idx), reserve_tokens);
    DISC_CHECK(st.ok()) << st.ToString();
    running.push_back(idx);
    ++sv.decode_joins;
    CountMetric("decode.joins");
    if (s.first_join_us < 0) {
      s.first_join_us = clock_us;
      s.ledger.queue_us = clock_us - s.req.arrival_us;
      s.last_token_us = clock_us;
    } else {
      s.ledger.decode_wait_us += clock_us - s.out_since_us;
      ++sv.resumes;
      CountMetric("decode.resumes");
    }
  };

  int64_t step_index = 0;
  while (arrival_cursor < seqs.size() || !wait_queue.empty() ||
         !running.empty()) {
    // Idle: jump the clock to the next arrival.
    if (running.empty() && wait_queue.empty()) {
      clock_us = std::max(clock_us, seqs[arrival_cursor].req.arrival_us);
    }
    while (arrival_cursor < seqs.size() &&
           seqs[arrival_cursor].req.arrival_us <= clock_us) {
      wait_queue.push_back(arrival_cursor);
      ++arrival_cursor;
    }

    // Backlog shedding — never-joined requests only, newest first.
    // Preempted sequences are mid-flight and always keep their place
    // (shedding them would break "preempted-and-resumed still completes").
    if (options.max_queue_depth > 0 &&
        static_cast<int64_t>(wait_queue.size()) > options.max_queue_depth) {
      for (auto it = wait_queue.end();
           it != wait_queue.begin() &&
           static_cast<int64_t>(wait_queue.size()) > options.max_queue_depth;) {
        --it;
        if (seqs[*it].first_join_us >= 0) continue;
        ++sv.shed;
        CountMetric("serving.shed");
        it = wait_queue.erase(it);
      }
    }

    // Join. Continuous: any step boundary with a free slot. Whole-request:
    // only into an empty device — membership is fixed until the batch
    // drains (the baseline's defining restriction).
    const bool may_admit = continuous || running.empty();
    int64_t step_joins = 0;
    while (may_admit &&
           static_cast<int64_t>(running.size()) < options.max_batch &&
           !wait_queue.empty()) {
      const size_t idx = wait_queue.front();
      if (!can_admit(seqs[idx])) {
        if (!running.empty()) break;
        // Livelock guard: nothing is running, so nothing will ever free
        // capacity for this sequence — it can never run.
        wait_queue.pop_front();
        fail_seq(idx, Status::ResourceExhausted(
                          "sequence cannot fit even on an empty device"));
        continue;
      }
      wait_queue.pop_front();
      admit(idx);
      ++step_joins;
    }
    if (running.empty()) continue;

    // Growth: every live sequence gets room for the KV entry this step
    // appends. Whole-request reserved its full footprint at join, so this
    // is the continuous path's per-block lazy acquisition; exhaustion is
    // answered by the decode rung of the degradation ladder — preempt the
    // lowest-progress sequence — instead of failing the batch.
    int64_t step_preempts = 0;
    if (continuous) {
      for (size_t pos = 0; pos < running.size();) {
        const size_t idx = running[pos];
        Status st =
            pool.Grow(static_cast<int64_t>(idx), seqs[idx].kv_len() + 1);
        if (st.ok()) {
          ++pos;
          continue;
        }
        if (running.size() == 1) {
          // No one left to evict: the sequence itself cannot continue.
          running.erase(running.begin() + static_cast<int64_t>(pos));
          fail_seq(idx, st);
          break;
        }
        const size_t victim = pick_victim();
        const size_t victim_pos = static_cast<size_t>(
            std::find(running.begin(), running.end(), victim) -
            running.begin());
        preempt(victim, clock_us, /*backoff_so_far_us=*/0.0);
        ++step_preempts;
        if (victim_pos < pos) --pos;
        // Retry the same sequence's growth against the freed blocks.
      }
      if (running.empty()) continue;
    }

    // Ragged step batch: occupancy is whoever survived join/growth, KV
    // pads to the block quantum (or pow2 grid) of the longest live
    // sequence. Frozen whole-request rows pad the batch but attend
    // nothing.
    int64_t occupancy = live_count();
    if (occupancy == 0) {
      // Whole-request batch fully drained via a failure path; recycle.
      for (size_t idx : running) pool.Release(static_cast<int64_t>(idx));
      running.clear();
      continue;
    }
    int64_t padded_batch = pad_batch(static_cast<int64_t>(running.size()));
    int64_t padded_kv = pad_kv(max_live_kv());
    auto shapes = shape_fn(padded_batch, padded_kv);
    std::string signature =
        StrFormat("%lldx%lld", static_cast<long long>(padded_batch),
                  static_cast<long long>(padded_kv));

    // Attribute the step's downstream spans (Executable::Run, compile
    // jobs) to the oldest live member.
    uint64_t step_trace_id = 0;
    for (size_t idx : running) {
      if (!seqs[idx].frozen) {
        step_trace_id = seqs[idx].req.trace_id;
        break;
      }
    }
    RequestContext step_context(step_trace_id);
    RequestContextScope context_scope(&step_context);

    // Launch with the decode ladder: retryable non-memory errors back off
    // and retry (PR 4 semantics); ResourceExhausted sheds load *within*
    // the batch — preempt the lowest-progress sequence, shrink the
    // signature, relaunch immediately (pressure relief, not a transient).
    const double first_start = clock_us;
    double start = first_start;
    const int64_t fallback_before = engine->stats().fallback_queries;
    Result<EngineTiming> attempt_result = EngineTiming{};
    int64_t step_retries = 0;
    for (int64_t attempt = 0;;) {
      engine->SetSimulatedTimeUs(start);
      attempt_result = engine->Query(shapes, device);
      if (attempt_result.ok()) break;
      const Status& error = attempt_result.status();
      if (continuous && error.code() == StatusCode::kResourceExhausted &&
          live_count() > 1) {
        preempt(pick_victim(), start, start - first_start);
        ++step_preempts;
        occupancy = live_count();
        padded_batch = pad_batch(static_cast<int64_t>(running.size()));
        padded_kv = pad_kv(max_live_kv());
        shapes = shape_fn(padded_batch, padded_kv);
        signature =
            StrFormat("%lldx%lld", static_cast<long long>(padded_batch),
                      static_cast<long long>(padded_kv));
        continue;  // bounded: each preemption shrinks the batch
      }
      if (!error.IsRetryable() || attempt >= options.max_retries) break;
      ++sv.retries;
      ++step_retries;
      CountMetric("serving.retries");
      start += options.retry_backoff_us * std::pow(2.0, attempt);
      ++attempt;
    }

    if (!attempt_result.ok()) {
      // Step dead after the ladder: every live member fails; frozen
      // members already completed and just lose their held blocks.
      const Status error = attempt_result.status();
      for (size_t idx : running) {
        SeqState& s = seqs[idx];
        if (s.frozen) {
          pool.Release(static_cast<int64_t>(idx));
        } else {
          fail_seq(idx, error);
        }
      }
      running.clear();
      clock_us = std::max(clock_us, start);
      if (trace.enabled()) {
        trace.AddCompleteEvent(
            "step-failed", "decode.step", start, /*dur_us=*/-1.0,
            TraceSession::kSimPid, /*tid=*/0,
            {{"shape", signature}, {"error", error.ToString()}});
      }
      continue;
    }

    const EngineTiming timing = *attempt_result;
    const double done = start + timing.total_us;
    const double backoff_us = start - first_start;
    clock_us = done;
    const bool step_degraded =
        engine->stats().fallback_queries > fallback_before;
    if (step_degraded) {
      sv.degraded += occupancy;
      CountMetric("serving.degraded", occupancy);
    }

    // Waste accounting: real = KV entries actually attended; padded = the
    // launch's full B x T cache footprint (block/pow2 rounding plus frozen
    // whole-request rows).
    int64_t step_real = 0;
    for (size_t idx : running) {
      if (!seqs[idx].frozen) step_real += seqs[idx].kv_len();
    }
    const int64_t step_padded = padded_batch * padded_kv;
    total_real_tokens += step_real;
    total_padded_tokens += step_padded;
    occupancy_hist->Observe(static_cast<double>(occupancy));
    waste_hist->Observe(
        step_padded > 0
            ? 100.0 * (1.0 - static_cast<double>(step_real) /
                                 static_cast<double>(step_padded))
            : 0.0);

    int64_t step_retires = 0;
    std::vector<size_t> still_running;
    still_running.reserve(running.size());
    for (size_t idx : running) {
      SeqState& s = seqs[idx];
      if (s.frozen) {
        still_running.push_back(idx);
        continue;
      }
      s.ledger.backoff_us += backoff_us;
      s.ledger.compile_stall_us += timing.compile_us;
      s.ledger.host_plan_us += timing.host_us;
      s.ledger.alloc_us += timing.alloc_us;
      s.ledger.device_us += timing.device_us;
      s.retries += step_retries;
      s.degraded = s.degraded || step_degraded;
      tbt_gaps.push_back(done - s.last_token_us);
      tbt_hist->Observe(done - s.last_token_us);
      s.last_token_us = done;
      ++s.generated;
      ++sv.generated_tokens;
      if (s.generated < s.req.decode_len) {
        still_running.push_back(idx);
        continue;
      }
      // Sequence complete: record the causal ledger (sums exactly to e2e
      // by the engine timing invariant plus the scheduler's geometry —
      // steps run back-to-back, out-of-batch time is decode_wait).
      const double e2e = done - s.req.arrival_us;
      latencies.push_back(e2e);
      CompletedRequest record;
      record.trace_id = s.req.trace_id;
      record.request_id = s.req.id;
      record.signature = signature;
      record.arrival_us = s.req.arrival_us;
      record.e2e_us = e2e;
      record.ledger = s.ledger;
      record.degraded = s.degraded;
      record.retries = s.retries;
      const double ledger_total = record.ledger.TotalUs();
      DISC_CHECK(std::abs(ledger_total - e2e) <= 1e-6 * std::max(1.0, e2e))
          << StrFormat(
                 "decode sequence %lld ledger drifted: phases sum to %.6f, "
                 "e2e is %.6f (%s)",
                 static_cast<long long>(s.req.id), ledger_total, e2e,
                 record.ledger.ToString().c_str());
      sv.completed_requests.push_back(std::move(record));
      ++sv.completed;
      if (continuous) {
        pool.Release(static_cast<int64_t>(idx));
        ++sv.decode_retires;
        ++step_retires;
        CountMetric("decode.retires");
      } else {
        s.frozen = true;
        still_running.push_back(idx);
      }
    }
    running.swap(still_running);

    // Whole-request: the batch leaves the device only when every member
    // is done; blocks recycle all at once.
    if (!continuous && !running.empty()) {
      bool all_frozen = true;
      for (size_t idx : running) {
        if (!seqs[idx].frozen) {
          all_frozen = false;
          break;
        }
      }
      if (all_frozen) {
        for (size_t idx : running) {
          pool.Release(static_cast<int64_t>(idx));
          ++sv.decode_retires;
          ++step_retires;
          CountMetric("decode.retires");
        }
        running.clear();
      }
    }

    DecodeStepRecord rec;
    rec.step = step_index++;
    rec.start_us = start;
    rec.dur_us = timing.total_us;
    rec.occupancy = occupancy;
    rec.padded_batch = padded_batch;
    rec.padded_kv = padded_kv;
    rec.joins = step_joins;
    rec.retires = step_retires;
    rec.preemptions = step_preempts;
    rec.real_tokens = step_real;
    rec.padded_tokens = step_padded;
    rec.kv_blocks_in_use = pool.used_blocks();
    rec.signature = signature;
    stats.timeline.push_back(rec);
    ++sv.decode_steps;
    CountMetric("decode.steps");
    if (trace.enabled()) {
      trace.AddCompleteEvent(
          "step", "decode.step", start, timing.total_us,
          TraceSession::kSimPid, /*tid=*/0,
          {{"shape", signature},
           {"occupancy", std::to_string(occupancy)},
           {"joins", std::to_string(step_joins)},
           {"retires", std::to_string(step_retires)},
           {"preemptions", std::to_string(step_preempts)},
           {"kv_blocks", std::to_string(pool.used_blocks())}});
    }
  }

  std::sort(latencies.begin(), latencies.end());
  sv.p50_us = PercentileOfSorted(latencies, 50);
  sv.p95_us = PercentileOfSorted(latencies, 95);
  sv.p99_us = PercentileOfSorted(latencies, 99);
  double total_lat = 0.0;
  for (double l : latencies) total_lat += l;
  sv.mean_us = latencies.empty()
                   ? 0.0
                   : total_lat / static_cast<double>(latencies.size());
  sv.throughput_qps =
      clock_us > 0
          ? static_cast<double>(sv.completed) / clock_us * 1e6
          : 0.0;
  sv.tokens_per_sec =
      clock_us > 0
          ? static_cast<double>(sv.generated_tokens) / clock_us * 1e6
          : 0.0;
  std::sort(tbt_gaps.begin(), tbt_gaps.end());
  sv.p50_tbt_us = PercentileOfSorted(tbt_gaps, 50);
  sv.p99_tbt_us = PercentileOfSorted(tbt_gaps, 99);
  sv.step_padding_waste =
      total_padded_tokens > 0
          ? 1.0 - static_cast<double>(total_real_tokens) /
                      static_cast<double>(total_padded_tokens)
          : 0.0;
  sv.padded_token_fraction = sv.step_padding_waste;
  sv.batches = sv.decode_steps;
  const int64_t hits = engine->stats().launch_plan_hits - hits_before;
  const int64_t misses = engine->stats().launch_plan_misses - misses_before;
  sv.plan_hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  sv.kernel_launches = launch_counter->value() - launches_before;
  sv.memory_bound_launches =
      memory_bound_counter->value() - memory_bound_before;
  sv.kv_high_water_blocks = pool.stats().high_water_blocks;
  sv.kv_block_recycles = pool.stats().block_recycles;
  stats.kv_capacity_blocks = pool.options().capacity_blocks;
  stats.kv_block_bytes = pool.block_bytes();
  stats.kv_arena_bytes = pool.arena_bytes();
  stats.kv_growth_formula = pool.growth_formula();

  // Every block granted over the replay must be back in the free list:
  // zero leaked blocks is the pool-side half of the accounting invariant.
  DISC_CHECK_EQ(pool.used_blocks(), 0) << "KV blocks leaked by the replay";
  DISC_CHECK_EQ(sv.completed + sv.shed + sv.deadline_missed + sv.failed,
                sv.submitted)
      << "decode accounting drifted";
  return stats;
}

JsonValue DecodeStats::TimelineJson() const {
  JsonValue::Object root;
  root["schema"] = JsonValue("disc.decode.timeline.v1");
  root["policy"] = JsonValue(policy);

  JsonValue::Object summary;
  summary["submitted"] = JsonValue(serving.submitted);
  summary["completed"] = JsonValue(serving.completed);
  summary["shed"] = JsonValue(serving.shed);
  summary["failed"] = JsonValue(serving.failed);
  summary["steps"] = JsonValue(serving.decode_steps);
  summary["joins"] = JsonValue(serving.decode_joins);
  summary["retires"] = JsonValue(serving.decode_retires);
  summary["preemptions"] = JsonValue(serving.preemptions);
  summary["resumes"] = JsonValue(serving.resumes);
  summary["generated_tokens"] = JsonValue(serving.generated_tokens);
  summary["tokens_per_sec"] = JsonValue(serving.tokens_per_sec);
  summary["p50_tbt_us"] = JsonValue(serving.p50_tbt_us);
  summary["p99_tbt_us"] = JsonValue(serving.p99_tbt_us);
  summary["step_padding_waste"] = JsonValue(serving.step_padding_waste);
  summary["plan_hit_rate"] = JsonValue(serving.plan_hit_rate);
  root["summary"] = JsonValue(std::move(summary));

  JsonValue::Object kv;
  kv["capacity_blocks"] = JsonValue(kv_capacity_blocks);
  kv["block_bytes"] = JsonValue(kv_block_bytes);
  kv["arena_bytes"] = JsonValue(kv_arena_bytes);
  kv["growth_formula"] = JsonValue(kv_growth_formula);
  kv["high_water_blocks"] = JsonValue(serving.kv_high_water_blocks);
  kv["block_recycles"] = JsonValue(serving.kv_block_recycles);
  root["kv_pool"] = JsonValue(std::move(kv));

  JsonValue::Array steps;
  steps.reserve(timeline.size());
  for (const DecodeStepRecord& r : timeline) {
    JsonValue::Object step;
    step["step"] = JsonValue(r.step);
    step["start_us"] = JsonValue(r.start_us);
    step["dur_us"] = JsonValue(r.dur_us);
    step["occupancy"] = JsonValue(r.occupancy);
    step["padded_batch"] = JsonValue(r.padded_batch);
    step["padded_kv"] = JsonValue(r.padded_kv);
    step["joins"] = JsonValue(r.joins);
    step["retires"] = JsonValue(r.retires);
    step["preemptions"] = JsonValue(r.preemptions);
    step["real_tokens"] = JsonValue(r.real_tokens);
    step["padded_tokens"] = JsonValue(r.padded_tokens);
    step["kv_blocks_in_use"] = JsonValue(r.kv_blocks_in_use);
    step["signature"] = JsonValue(r.signature);
    steps.push_back(JsonValue(std::move(step)));
  }
  root["steps"] = JsonValue(std::move(steps));
  return JsonValue(std::move(root));
}

Status DecodeStats::WriteTimelineJson(const std::string& path) const {
  return WriteStringToFile(path, TimelineJson().SerializePretty());
}

std::vector<DecodeRequest> SyntheticDecodeStream(int64_t count,
                                                 double mean_gap_us,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<DecodeRequest> requests;
  requests.reserve(static_cast<size_t>(count));
  double clock = 0.0;
  // Prompt lengths: Zipf-ish over common context sizes.
  const std::vector<int64_t> prompts = {16, 8, 32, 24, 64, 48};
  std::vector<double> prompt_weights(prompts.size());
  for (size_t i = 0; i < prompt_weights.size(); ++i) {
    prompt_weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  // Decode lengths: short chat turns dominate, heavy tail of long
  // generations — the mix where per-step rescheduling pays (a whole-
  // request batch is hostage to its longest member).
  const std::vector<int64_t> decodes = {8, 12, 6, 20, 32, 64, 128};
  const std::vector<double> decode_weights = {4.0, 3.5, 3.0, 2.0,
                                              1.0, 0.5, 0.25};
  for (int64_t i = 0; i < count; ++i) {
    double u = std::max(1e-6, 1.0 - static_cast<double>(rng.Uniform()));
    clock += -mean_gap_us * std::log(u);
    DecodeRequest r;
    r.id = i;
    r.arrival_us = clock;
    r.prompt_len = prompts[rng.Categorical(prompt_weights)];
    r.decode_len = decodes[rng.Categorical(decode_weights)];
    requests.push_back(r);
  }
  return requests;
}

std::string DecodeStats::TimelineText() const {
  const ServingStats& sv = serving;
  std::string out =
      StrFormat("== decode step timeline (policy=%s) ==\n", policy.c_str());
  out += StrFormat(
      "requests: submitted=%lld completed=%lld shed=%lld failed=%lld\n",
      static_cast<long long>(sv.submitted),
      static_cast<long long>(sv.completed), static_cast<long long>(sv.shed),
      static_cast<long long>(sv.failed));
  out += StrFormat(
      "steps: %lld  joins=%lld retires=%lld preemptions=%lld resumes=%lld\n",
      static_cast<long long>(sv.decode_steps),
      static_cast<long long>(sv.decode_joins),
      static_cast<long long>(sv.decode_retires),
      static_cast<long long>(sv.preemptions),
      static_cast<long long>(sv.resumes));
  out += StrFormat(
      "tokens: %lld generated  %.1f tok/s  tbt p50=%.1fus p99=%.1fus  "
      "padding waste=%.1f%%  plan hits=%.1f%%\n",
      static_cast<long long>(sv.generated_tokens), sv.tokens_per_sec,
      sv.p50_tbt_us, sv.p99_tbt_us, 100.0 * sv.step_padding_waste,
      100.0 * sv.plan_hit_rate);
  const int64_t high_water = sv.kv_high_water_blocks;
  out += StrFormat(
      "kv pool: %lld blocks x %lld B (arena %lld B)  growth=%s  "
      "high-water=%lld  recycles=%lld\n",
      static_cast<long long>(kv_capacity_blocks),
      static_cast<long long>(kv_block_bytes),
      static_cast<long long>(kv_arena_bytes), kv_growth_formula.c_str(),
      static_cast<long long>(high_water),
      static_cast<long long>(sv.kv_block_recycles));

  // Per-step table. The occupancy bar draws live rows as '#' inside the
  // padded launch batch ('.'), so pow2/bucket padding is visible at a
  // glance; event-free runs on the same signature collapse to one line.
  out += StrFormat("  %5s %10s %-9s %4s %-*s %6s  %s\n", "step", "t_us",
                   "sig", "occ", 34, "batch(live=#/pad=.)", "kv-blk",
                   "events");
  bool high_water_flagged = false;
  auto quiet = [&](const DecodeStepRecord& r) {
    return r.joins == 0 && r.retires == 0 && r.preemptions == 0 &&
           (high_water_flagged || r.kv_blocks_in_use != high_water);
  };
  for (size_t i = 0; i < timeline.size();) {
    const DecodeStepRecord& r = timeline[i];
    if (quiet(r)) {
      size_t j = i + 1;
      while (j < timeline.size() && quiet(timeline[j]) &&
             timeline[j].signature == r.signature) {
        ++j;
      }
      if (j - i > 3) {
        out += StrFormat("  %5s   ... %lld quiet steps (sig=%s, occ=%lld, "
                         "blk=%lld) ...\n",
                         "", static_cast<long long>(j - i),
                         r.signature.c_str(),
                         static_cast<long long>(r.occupancy),
                         static_cast<long long>(r.kv_blocks_in_use));
        i = j;
        continue;
      }
    }

    const int64_t bar_width = std::min<int64_t>(r.padded_batch, 32);
    const int64_t live_width =
        r.padded_batch > 0
            ? std::min<int64_t>(bar_width,
                                (r.occupancy * bar_width + r.padded_batch - 1) /
                                    r.padded_batch)
            : 0;
    std::string bar(static_cast<size_t>(live_width), '#');
    bar.append(static_cast<size_t>(bar_width - live_width), '.');

    std::string events;
    if (r.joins > 0) {
      events += StrFormat("+%lld join ", static_cast<long long>(r.joins));
    }
    if (r.retires > 0) {
      events += StrFormat("-%lld retire ", static_cast<long long>(r.retires));
    }
    if (r.preemptions > 0) {
      events += StrFormat("!%lld preempt ",
                          static_cast<long long>(r.preemptions));
    }
    if (!high_water_flagged && r.kv_blocks_in_use == high_water) {
      events += "<-- kv high-water";
      high_water_flagged = true;
    }
    out += StrFormat("  %5lld %10.1f %-9s %4lld %-*s %6lld  %s\n",
                     static_cast<long long>(r.step), r.start_us,
                     r.signature.c_str(), static_cast<long long>(r.occupancy),
                     34, bar.c_str(),
                     static_cast<long long>(r.kv_blocks_in_use),
                     events.c_str());
    ++i;
  }
  return out;
}

}  // namespace disc
