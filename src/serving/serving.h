// Serving simulation: dynamic batching over a single simulated GPU.
//
// Production inference (the paper's deployment context) doesn't see one
// query at a time — a batcher groups concurrent requests. Batching forces
// padding *within* a batch (all sequences in one launch share S), and the
// padding policy is where shape flexibility pays off:
//   * kBatchMax   — pad only to the longest request in the batch; needs a
//                   compiler that accepts ANY (B, S) — i.e. DISC;
//   * kBucketPow2 — pad (B, S) up to powers of two; what static engines
//                   with a bucket grid must do.
// No batching (every request runs alone, eager-style) is max_batch = 1.
// The simulator advances a single-device clock: batches execute serially,
// requests accumulate queueing + execution latency; reported percentiles
// include both.
//
// The simulator degrades instead of dying. A query failure is not the end
// of the replay: retryable errors (Status::IsRetryable — unavailable,
// resource-exhausted) are retried with exponential backoff on the
// simulated clock, batches arriving to an over-deep queue are shed,
// requests whose deadline passed before launch are dropped pre-execution,
// and only a non-retryable exhaustion of retries marks a batch failed.
// Every request is accounted for exactly once:
//   submitted == completed + shed + deadline_missed + failed.
#ifndef DISC_SERVING_SERVING_H_
#define DISC_SERVING_SERVING_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baselines/engine.h"
#include "support/blame.h"
#include "support/status.h"

namespace disc {

/// One inference request.
struct Request {
  int64_t id = 0;
  int64_t seq_len = 1;
  double arrival_us = 0.0;
  /// Absolute simulated-time deadline; 0 = none. A request whose deadline
  /// has already passed when its batch launches is dropped pre-execution
  /// and counted in ServingStats::deadline_missed. A request that launches
  /// in time but completes late still counts completed — the simulator
  /// models a server that cannot recall work already on the device.
  double deadline_us = 0.0;
  /// Causal-trace id, minted by SimulateServing at submit (0 = unminted).
  /// Carried through batch formation into engine-query and compile-service
  /// spans, and printed by every retained flight record / histogram
  /// exemplar, so a tail sample links back to its full span tree.
  uint64_t trace_id = 0;
};

enum class PadPolicy {
  kBatchMax,   // pad to the batch's longest sequence
  kBucketPow2, // pad batch and sequence to powers of two
};

const char* PadPolicyName(PadPolicy policy);

struct BatcherOptions {
  int64_t max_batch = 8;
  /// A batch launches when full or when its oldest request has waited this
  /// long.
  double max_wait_us = 2000.0;
  PadPolicy pad = PadPolicy::kBatchMax;
  /// Retries per batch on a retryable Query error (IsRetryable). The
  /// first retry waits `retry_backoff_us` of simulated time, doubling on
  /// each subsequent attempt.
  int64_t max_retries = 2;
  double retry_backoff_us = 500.0;
  /// Shed (drop) a whole batch when the queue depth at its launch time —
  /// arrived but not yet accounted requests — exceeds this bound.
  /// 0 = never shed.
  int64_t max_queue_depth = 0;
  /// Memory-aware admission: before launching a batch, ask the engine for
  /// its predicted peak footprint (Engine::PredictPeakBytes — the symbolic
  /// peak formula evaluated for the batch's padded shape) and shed the
  /// batch when the prediction exceeds this budget, instead of discovering
  /// ResourceExhausted mid-run. 0 = admit unconditionally. Engines without
  /// a prediction (PredictPeakBytes == 0) always admit.
  int64_t memory_limit_bytes = 0;
};

/// One formed batch: the requests plus the padded launch shape.
struct Batch {
  std::vector<Request> requests;
  int64_t padded_batch = 0;
  int64_t padded_seq = 0;
  double ready_us = 0.0;  // when the batch could start (arrivals + wait)
};

/// \brief Groups requests into batches under the policy. Arrivals are
/// sorted internally by (arrival, effective deadline, id) — a total order,
/// so equal-arrival/equal-deadline requests batch identically for every
/// input permutation (decode traces replay byte-stable). Callers need not
/// pre-sort. Pure function — exposed for testing.
std::vector<Batch> FormBatches(const std::vector<Request>& requests,
                               const BatcherOptions& options);

struct ServingStats {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double throughput_qps = 0.0;     // completed requests / simulated second
  double padded_token_fraction = 0.0;  // padding waste across all batches
  int64_t batches = 0;
  /// Launch-plan cache hit rate over this simulation's queries (delta of
  /// the engine's counters, so earlier traffic on the engine is excluded).
  /// Under kBatchMax the padded shapes repeat heavily, so a plan-caching
  /// engine serves most batches on the fast path.
  double plan_hit_rate = 0.0;

  // Request accounting. Invariant (asserted by the chaos harness):
  //   submitted == completed + shed + deadline_missed + failed.
  int64_t submitted = 0;
  int64_t completed = 0;
  /// Dropped by load shedding (queue depth exceeded max_queue_depth, or
  /// predicted footprint exceeded memory_limit_bytes). Memory sheds are
  /// included here — `memory_shed` below is the informational sub-count —
  /// so the accounting invariant needs no extra term.
  int64_t shed = 0;
  /// Of `shed`: requests dropped by memory-aware admission (predicted
  /// peak footprint over BatcherOptions::memory_limit_bytes).
  int64_t memory_shed = 0;
  /// Dropped pre-execution because the deadline passed before launch.
  int64_t deadline_missed = 0;
  /// Batch query failed after exhausting retries (non-retryable or out of
  /// attempts); counts each request of the failed batch.
  int64_t failed = 0;
  /// Retry attempts across all batches (not requests).
  int64_t retries = 0;
  /// Requests served on a degraded path (the engine's fallback leg),
  /// attributed per batch via the delta of EngineStats::fallback_queries.
  int64_t degraded = 0;
  /// Generated-kernel launches this stream caused (delta of the runtime's
  /// mirrored `runtime.kernel.launches` counter — interpreter-degraded
  /// batches contribute nothing), and how many of all device launches
  /// (library calls included) the device model judged memory-bound. Both 0
  /// for engines that never reach the compiled runtime.
  int64_t kernel_launches = 0;
  int64_t memory_bound_launches = 0;
  /// Failed requests per StatusCode name (e.g. "Unavailable" -> 12).
  std::map<std::string, int64_t> error_counts;
  // Decode-serving extensions (filled by SimulateDecode in src/decode/;
  // all zero for request-level serving, so request-level output and every
  // committed baseline are unchanged).
  /// Generated tokens per simulated second across the whole replay — the
  /// decode-serving throughput headline.
  double tokens_per_sec = 0.0;
  int64_t generated_tokens = 0;
  /// Time-between-tokens percentiles: gaps between consecutive token
  /// completions of one sequence (the inter-token stutter a streaming
  /// client sees), pooled across sequences. Includes join->first-token.
  double p50_tbt_us = 0.0;
  double p99_tbt_us = 0.0;
  /// Fraction of per-step padded KV tokens that were padding (ragged
  /// lengths padded to the step signature, plus held slots of finished
  /// sequences under whole-request batching).
  double step_padding_waste = 0.0;
  int64_t decode_steps = 0;
  /// Sequences joined into / retired from the running batch mid-replay.
  int64_t decode_joins = 0;
  int64_t decode_retires = 0;
  /// Degradation-ladder actions specific to decode: sequences preempted
  /// (KV blocks released, requeued) under memory pressure, and resumed
  /// after preemption. A preempted-and-resumed sequence still completes,
  /// so the accounting invariant above is unchanged.
  int64_t preemptions = 0;
  int64_t resumes = 0;
  /// KV-cache pool occupancy high-water (blocks) and blocks recycled on
  /// sequence retire/preempt.
  int64_t kv_high_water_blocks = 0;
  int64_t kv_block_recycles = 0;

  /// Per-completed-request causal record: trace id, shape signature, and a
  /// PhaseLedger decomposing the end-to-end latency into batch_form /
  /// queue / backoff / decode_wait / compile_stall / host_plan / alloc /
  /// device. DISC_CHECKed inside SimulateServing to sum to e2e exactly;
  /// feed to TailBlameAggregator for p99 blame attribution.
  std::vector<CompletedRequest> completed_requests;

  std::string ToString() const;
};

/// Maps a padded (batch, seq) to the engine's input shapes.
using ShapeFn =
    std::function<std::vector<std::vector<int64_t>>(int64_t batch, int64_t seq)>;

/// \brief Replays the request stream through `engine` on one device.
/// `engine` must already be Prepared. Announces the simulated clock to the
/// engine (Engine::SetSimulatedTimeUs) before every attempt so time-based
/// engine state (circuit breakers) advances deterministically. Individual
/// query failures degrade the replay (see header comment) rather than
/// failing it; an error return means the simulation itself is broken.
Result<ServingStats> SimulateServing(Engine* engine, const ShapeFn& shape_fn,
                                     const std::vector<Request>& requests,
                                     const BatcherOptions& options,
                                     const DeviceSpec& device);

/// \brief Poisson-ish request stream with Zipf-ish sequence lengths.
std::vector<Request> SyntheticRequestStream(int64_t count, double mean_gap_us,
                                            uint64_t seed);

}  // namespace disc

#endif  // DISC_SERVING_SERVING_H_
