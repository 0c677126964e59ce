#include "serving/serving.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/flight_recorder.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace disc {

const char* PadPolicyName(PadPolicy policy) {
  switch (policy) {
    case PadPolicy::kBatchMax:
      return "batch-max";
    case PadPolicy::kBucketPow2:
      return "bucket-pow2";
  }
  return "?";
}

std::string ServingStats::ToString() const {
  std::string s = StrFormat(
      "p50=%.0fus p95=%.0fus p99=%.0fus mean=%.0fus qps=%.0f "
      "pad_waste=%.0f%% batches=%lld plan_hits=%.0f%%",
      p50_us, p95_us, p99_us, mean_us, throughput_qps,
      padded_token_fraction * 100, static_cast<long long>(batches),
      plan_hit_rate * 100);
  s += StrFormat(" ok=%lld/%lld", static_cast<long long>(completed),
                 static_cast<long long>(submitted));
  if (shed > 0) s += StrFormat(" shed=%lld", static_cast<long long>(shed));
  if (memory_shed > 0) {
    s += StrFormat(" memory_shed=%lld", static_cast<long long>(memory_shed));
  }
  if (deadline_missed > 0) {
    s += StrFormat(" deadline_missed=%lld",
                   static_cast<long long>(deadline_missed));
  }
  if (failed > 0) s += StrFormat(" failed=%lld", static_cast<long long>(failed));
  if (retries > 0) {
    s += StrFormat(" retries=%lld", static_cast<long long>(retries));
  }
  if (degraded > 0) {
    s += StrFormat(" degraded=%lld", static_cast<long long>(degraded));
  }
  if (kernel_launches > 0) {
    s += StrFormat(" kernel_launches=%lld memory_bound=%lld",
                   static_cast<long long>(kernel_launches),
                   static_cast<long long>(memory_bound_launches));
  }
  for (const auto& [code, count] : error_counts) {
    s += StrFormat(" err[%s]=%lld", code.c_str(),
                   static_cast<long long>(count));
  }
  if (decode_steps > 0) {
    s += StrFormat(
        "\n  decode: steps=%lld tokens=%lld tok/s=%.0f p50_tbt=%.1fus "
        "p99_tbt=%.1fus step_pad_waste=%.1f%% joins=%lld retires=%lld "
        "preemptions=%lld resumes=%lld kv_high_water_blocks=%lld "
        "kv_recycles=%lld",
        static_cast<long long>(decode_steps),
        static_cast<long long>(generated_tokens), tokens_per_sec, p50_tbt_us,
        p99_tbt_us, step_padding_waste * 100,
        static_cast<long long>(decode_joins),
        static_cast<long long>(decode_retires),
        static_cast<long long>(preemptions), static_cast<long long>(resumes),
        static_cast<long long>(kv_high_water_blocks),
        static_cast<long long>(kv_block_recycles));
  }
  return s;
}

namespace {

std::vector<Request> SortedByArrival(const std::vector<Request>& requests) {
  std::vector<Request> sorted = requests;
  // Total order: arrival, then deadline, then id. Sorting by arrival alone
  // left equal-arrival requests in caller order, so the same logical
  // stream batched differently depending on input permutation — decode
  // traces replayed through FormBatches were not byte-stable. The
  // deadline tie-break keeps tighter-deadline requests ahead inside the
  // tie; the id tie-break makes the order a permutation-independent total
  // order (stable_sort then only breaks exact duplicates by caller order).
  auto effective_deadline = [](const Request& r) {
    return r.deadline_us > 0.0 ? r.deadline_us
                               : std::numeric_limits<double>::infinity();
  };
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](const Request& a, const Request& b) {
                     if (a.arrival_us != b.arrival_us) {
                       return a.arrival_us < b.arrival_us;
                     }
                     const double da = effective_deadline(a);
                     const double db = effective_deadline(b);
                     if (da != db) return da < db;
                     return a.id < b.id;
                   });
  return sorted;
}

}  // namespace

std::vector<Batch> FormBatches(const std::vector<Request>& requests,
                               const BatcherOptions& options) {
  std::vector<Batch> batches;
  if (requests.empty()) return batches;
  const std::vector<Request> sorted = SortedByArrival(requests);

  Batch current;
  auto flush = [&]() {
    if (current.requests.empty()) return;
    int64_t batch_size = static_cast<int64_t>(current.requests.size());
    int64_t max_seq = 0;
    double last_arrival = 0.0;
    for (const Request& r : current.requests) {
      max_seq = std::max(max_seq, r.seq_len);
      last_arrival = std::max(last_arrival, r.arrival_us);
    }
    if (options.pad == PadPolicy::kBucketPow2) {
      current.padded_batch = NextPowerOfTwo(batch_size);
      current.padded_seq = NextPowerOfTwo(max_seq);
    } else {
      current.padded_batch = batch_size;
      current.padded_seq = max_seq;
    }
    // The batch is ready when its last member arrived, or when the oldest
    // member's wait budget expires — whichever is earlier — but never
    // before the last member it actually contains arrived.
    current.ready_us = last_arrival;
    batches.push_back(std::move(current));
    current = Batch();
  };

  for (const Request& r : sorted) {
    if (!current.requests.empty()) {
      double oldest = current.requests.front().arrival_us;
      // Close the batch if adding r would exceed the oldest member's wait.
      // Strict '>': a request arriving exactly at the wait bound still
      // joins the batch (tested in serving_test).
      if (r.arrival_us - oldest > options.max_wait_us) flush();
    }
    current.requests.push_back(r);
    if (static_cast<int64_t>(current.requests.size()) >= options.max_batch) {
      flush();
    }
  }
  flush();
  return batches;
}

Result<ServingStats> SimulateServing(Engine* engine, const ShapeFn& shape_fn,
                                     const std::vector<Request>& requests,
                                     const BatcherOptions& options,
                                     const DeviceSpec& device) {
  std::vector<Request> sorted = SortedByArrival(requests);
  // Mint the causal-trace id at submit (callers may pre-assign for tests;
  // 0 means "mint here"). FormBatches copies the minted requests into the
  // batches, so the id rides along through batch formation.
  for (Request& r : sorted) {
    if (r.trace_id == 0) r.trace_id = RequestContext::MintTraceId();
  }
  std::vector<Batch> batches = FormBatches(sorted, options);
  ServingStats stats;
  stats.batches = static_cast<int64_t>(batches.size());
  stats.submitted = static_cast<int64_t>(sorted.size());
  const int64_t hits_before = engine->stats().launch_plan_hits;
  const int64_t misses_before = engine->stats().launch_plan_misses;
  TraceSession& trace = TraceSession::Global();
  MetricsRegistry& registry = MetricsRegistry::Global();
  // Kernel-observatory attribution: the runtime mirrors its per-run launch
  // counters into the registry, so the delta across this simulation is
  // exactly the launches this request stream caused (interpreter-degraded
  // batches contribute nothing — they never reach ExecutePlan).
  Counter* launch_counter = registry.GetCounter("runtime.kernel.launches");
  Counter* memory_bound_counter =
      registry.GetCounter("runtime.kernel.memory_bound");
  const int64_t launches_before = launch_counter->value();
  const int64_t memory_bound_before = memory_bound_counter->value();
  Histogram* queue_wait_hist = registry.GetHistogram("serving.queue_wait_us");
  Histogram* queue_depth_hist = registry.GetHistogram(
      "serving.queue_depth", {1, 2, 4, 8, 16, 32, 64, 128});
  Histogram* batch_size_hist = registry.GetHistogram(
      "serving.batch_size", {1, 2, 4, 8, 16, 32, 64});
  Histogram* pad_waste_hist = registry.GetHistogram(
      "serving.padding_waste_pct", {0, 5, 10, 20, 30, 40, 50, 75, 100});
  // End-to-end per-request latency; exemplars carry the trace ids the
  // flight recorder retained evidence for (see Histogram::Observe).
  Histogram* latency_hist = registry.GetHistogram("serving.request_latency_us");
  FlightRecorder& recorder = FlightRecorder::Global();
  CountMetric("serving.requests", stats.submitted);
  CountMetric("serving.batches", stats.batches);

  double clock_us = 0.0;
  int64_t real_tokens = 0;
  int64_t padded_tokens = 0;
  // Queue depth at batch launch = arrived - accounted. Requests are sorted
  // by arrival and batches launch in order, so both counts are running
  // cursors over the simulated clock.
  size_t arrived_cursor = 0;
  std::vector<double> latencies;
  auto accounted = [&stats]() {
    return stats.completed + stats.shed + stats.deadline_missed + stats.failed;
  };
  for (const Batch& batch : batches) {
    const int64_t n = static_cast<int64_t>(batch.requests.size());
    // first_start is the launch attempt before any retry backoff; the
    // retry loop advances `start` past it, and the gap is the ledger's
    // backoff phase.
    const double first_start = std::max(clock_us, batch.ready_us);
    double start = first_start;

    while (arrived_cursor < sorted.size() &&
           sorted[arrived_cursor].arrival_us <= start) {
      ++arrived_cursor;
    }
    const int64_t depth = static_cast<int64_t>(arrived_cursor) - accounted();
    queue_depth_hist->Observe(static_cast<double>(depth));

    // Load shedding: an over-deep queue means the device has fallen behind
    // (e.g. every batch is paying a degraded-path stall); dropping whole
    // batches bounds the latency of the requests that remain.
    if (options.max_queue_depth > 0 && depth > options.max_queue_depth) {
      stats.shed += n;
      CountMetric("serving.shed", n);
      if (trace.enabled()) {
        trace.AddCompleteEvent(
            "shed", "serving.batch", start, /*dur_us=*/-1.0,
            TraceSession::kSimPid, /*tid=*/0,
            {{"requests", std::to_string(n)},
             {"queue_depth", std::to_string(depth)}});
      }
      continue;
    }

    // Deadline admission check: requests already past their deadline at
    // launch are dropped before the device is committed to them.
    std::vector<const Request*> live;
    live.reserve(batch.requests.size());
    for (const Request& r : batch.requests) {
      if (r.deadline_us > 0.0 && r.deadline_us < start) {
        ++stats.deadline_missed;
        CountMetric("serving.deadline_missed");
      } else {
        live.push_back(&r);
      }
    }
    if (live.empty()) continue;

    // Activate a request context for the batch's oldest live request so
    // the synchronous call chain below — PredictPeakBytes, engine Query,
    // Executable::Run spans, compile-service Submit — can attribute its
    // work to a concrete trace id (CurrentTraceId()).
    RequestContext batch_context(live.front()->trace_id);
    RequestContextScope context_scope(&batch_context);

    const auto shapes = shape_fn(batch.padded_batch, batch.padded_seq);
    const std::string signature =
        StrFormat("%lldx%lld", static_cast<long long>(batch.padded_batch),
                  static_cast<long long>(batch.padded_seq));

    // Memory-aware admission: evaluate the engine's symbolic peak formula
    // for the batch's padded shape and shed the batch when it would not
    // fit, instead of committing the device and failing mid-run. A failed
    // prediction admits — the run-time limit check is still in place.
    if (options.memory_limit_bytes > 0) {
      Result<int64_t> predicted = engine->PredictPeakBytes(shapes);
      if (predicted.ok() && *predicted > options.memory_limit_bytes) {
        const int64_t live_n = static_cast<int64_t>(live.size());
        stats.shed += live_n;
        stats.memory_shed += live_n;
        CountMetric("serving.shed", live_n);
        CountMetric("serving.memory_shed", live_n);
        if (trace.enabled()) {
          trace.AddCompleteEvent(
              "memory-shed", "serving.batch", start, /*dur_us=*/-1.0,
              TraceSession::kSimPid, /*tid=*/0,
              {{"requests", std::to_string(live_n)},
               {"predicted_peak_bytes", std::to_string(*predicted)},
               {"memory_limit_bytes",
                std::to_string(options.memory_limit_bytes)}});
        }
        continue;
      }
    }

    // Execute with retry-with-backoff on retryable errors. The backoff
    // advances the simulated clock, so breaker cooldowns can elapse
    // between attempts.
    const int64_t fallback_before = engine->stats().fallback_queries;
    Result<EngineTiming> attempt_result = EngineTiming{};
    int64_t batch_retries = 0;
    for (int64_t attempt = 0;; ++attempt) {
      engine->SetSimulatedTimeUs(start);
      attempt_result = engine->Query(shapes, device);
      if (attempt_result.ok()) break;
      const Status& error = attempt_result.status();
      if (!error.IsRetryable() || attempt >= options.max_retries) break;
      ++stats.retries;
      ++batch_retries;
      CountMetric("serving.retries");
      start += options.retry_backoff_us * std::pow(2.0, attempt);
    }
    if (!attempt_result.ok()) {
      const int64_t live_n = static_cast<int64_t>(live.size());
      stats.failed += live_n;
      const std::string code =
          StatusCodeToString(attempt_result.status().code());
      stats.error_counts[code] += live_n;
      CountMetric("serving.errors." + code, live_n);
      clock_us = std::max(clock_us, start);
      if (trace.enabled()) {
        trace.AddCompleteEvent(
            "batch-failed", "serving.batch", start, /*dur_us=*/-1.0,
            TraceSession::kSimPid, /*tid=*/0,
            {{"requests", std::to_string(live_n)},
             {"error", attempt_result.status().ToString()}});
      }
      continue;
    }
    const EngineTiming timing = *attempt_result;
    double done = start + timing.total_us;
    clock_us = done;
    const bool batch_degraded =
        engine->stats().fallback_queries > fallback_before;
    if (batch_degraded) {
      stats.degraded += static_cast<int64_t>(live.size());
      CountMetric("serving.degraded", static_cast<int64_t>(live.size()));
    }

    batch_size_hist->Observe(static_cast<double>(live.size()));

    const double backoff_us = start - first_start;
    int64_t batch_real_tokens = 0;
    for (const Request* r : live) {
      const double e2e = done - r->arrival_us;
      latencies.push_back(e2e);
      real_tokens += r->seq_len;
      batch_real_tokens += r->seq_len;
      queue_wait_hist->Observe(start - r->arrival_us);
      latency_hist->Observe(e2e, r->trace_id);

      // Itemized causal decomposition of this request's latency. The
      // serving segments (batch_form / queue / backoff) are geometry of
      // the simulated timeline; the execution segments come from the
      // engine's component timings — so the DISC_CHECK below also pins
      // the engine invariant total == device + host + compile + alloc.
      CompletedRequest record;
      record.trace_id = r->trace_id;
      record.request_id = r->id;
      record.signature = signature;
      record.arrival_us = r->arrival_us;
      record.e2e_us = e2e;
      record.degraded = batch_degraded;
      record.retries = batch_retries;
      record.ledger.batch_form_us = batch.ready_us - r->arrival_us;
      record.ledger.queue_us = first_start - batch.ready_us;
      record.ledger.backoff_us = backoff_us;
      record.ledger.compile_stall_us = timing.compile_us;
      record.ledger.host_plan_us = timing.host_us;
      record.ledger.alloc_us = timing.alloc_us;
      record.ledger.device_us = timing.device_us;
      const double ledger_total = record.ledger.TotalUs();
      DISC_CHECK(std::abs(ledger_total - e2e) <= 1e-6 * std::max(1.0, e2e))
          << StrFormat("request %lld ledger drifted: phases sum to %.6f, "
                       "e2e is %.6f (%s)",
                       static_cast<long long>(r->id), ledger_total, e2e,
                       record.ledger.ToString().c_str());
      stats.completed_requests.push_back(std::move(record));
    }
    stats.completed += static_cast<int64_t>(live.size());

    if (recorder.enabled() && !live.empty()) {
      // One lock + one signature lookup per batch; annotation strings are
      // only built if the recorder actually retains an outlier.
      const size_t first_new = stats.completed_requests.size() - live.size();
      recorder.ObserveBatch(
          signature, done, &stats.completed_requests[first_new], live.size(),
          [&]() -> std::vector<std::pair<std::string, std::string>> {
            return {{"shape", signature},
                    {"policy", PadPolicyName(options.pad)},
                    {"retries", std::to_string(batch_retries)},
                    {"degraded", batch_degraded ? "1" : "0"},
                    {"compile_stall_us", StrFormat("%.1f", timing.compile_us)}};
          });
    }
    const int64_t batch_padded_tokens = batch.padded_batch * batch.padded_seq;
    padded_tokens += batch_padded_tokens;
    const double batch_waste_pct =
        batch_padded_tokens > 0
            ? 100.0 * (1.0 - static_cast<double>(batch_real_tokens) /
                                 static_cast<double>(batch_padded_tokens))
            : 0.0;
    pad_waste_hist->Observe(batch_waste_pct);

    if (trace.enabled()) {
      // Simulated-clock timeline (pid kSimPid): the batch execution span,
      // and per request a span from arrival to completion split into
      // batch-formation wait, device-queue wait, and execution.
      trace.AddCompleteEvent(
          "batch", "serving.batch", start, timing.total_us,
          TraceSession::kSimPid, /*tid=*/0,
          {{"shape", signature},
           {"requests", std::to_string(live.size())},
           {"pad_waste_pct", StrFormat("%.0f", batch_waste_pct)},
           {"policy", PadPolicyName(options.pad)}});
      for (const Request* r : live) {
        // One row (tid) per in-flight slot keeps overlapping requests
        // readable; rows cycle, the id arg disambiguates.
        const int tid = 1 + static_cast<int>(r->id % 16);
        std::vector<TraceArg> args = {
            {"id", std::to_string(r->id)},
            {"trace_id", std::to_string(r->trace_id)},
            {"seq_len", std::to_string(r->seq_len)}};
        trace.AddCompleteEvent("request", "serving.request", r->arrival_us,
                               done - r->arrival_us, TraceSession::kSimPid,
                               tid, std::move(args));
        if (batch.ready_us > r->arrival_us) {
          trace.AddCompleteEvent("batch-form", "serving.request",
                                 r->arrival_us,
                                 batch.ready_us - r->arrival_us,
                                 TraceSession::kSimPid, tid);
        }
        if (first_start > batch.ready_us) {
          trace.AddCompleteEvent("queue", "serving.request", batch.ready_us,
                                 first_start - batch.ready_us,
                                 TraceSession::kSimPid, tid);
        }
        if (start > first_start) {
          trace.AddCompleteEvent("backoff", "serving.request", first_start,
                                 start - first_start, TraceSession::kSimPid,
                                 tid);
        }
        trace.AddCompleteEvent("execute", "serving.request", start,
                               timing.total_us, TraceSession::kSimPid, tid);
      }
    }
  }

  std::sort(latencies.begin(), latencies.end());
  stats.p50_us = PercentileOfSorted(latencies, 50);
  stats.p95_us = PercentileOfSorted(latencies, 95);
  stats.p99_us = PercentileOfSorted(latencies, 99);
  double total = 0;
  for (double l : latencies) total += l;
  stats.mean_us =
      latencies.empty() ? 0.0 : total / static_cast<double>(latencies.size());
  stats.throughput_qps =
      clock_us > 0 ? static_cast<double>(stats.completed) / clock_us * 1e6
                   : 0.0;
  stats.padded_token_fraction =
      padded_tokens > 0
          ? 1.0 - static_cast<double>(real_tokens) /
                      static_cast<double>(padded_tokens)
          : 0.0;
  const int64_t hits = engine->stats().launch_plan_hits - hits_before;
  const int64_t misses = engine->stats().launch_plan_misses - misses_before;
  stats.plan_hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  stats.kernel_launches = launch_counter->value() - launches_before;
  stats.memory_bound_launches =
      memory_bound_counter->value() - memory_bound_before;
  DISC_CHECK_EQ(accounted(), stats.submitted)
      << "serving accounting drifted";
  return stats;
}

std::vector<Request> SyntheticRequestStream(int64_t count, double mean_gap_us,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> requests;
  double clock = 0.0;
  const std::vector<int64_t> lengths = {64, 32, 96, 17, 128, 48, 80, 24};
  std::vector<double> weights(lengths.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  for (int64_t i = 0; i < count; ++i) {
    // Exponential-ish gap via inverse transform on a uniform sample.
    double u = std::max(1e-6, 1.0 - rng.Uniform());
    clock += -mean_gap_us * std::log(u);
    Request r;
    r.id = i;
    r.seq_len = lengths[rng.Categorical(weights)];
    r.arrival_us = clock;
    requests.push_back(r);
  }
  return requests;
}

}  // namespace disc
