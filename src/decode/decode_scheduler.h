// Iteration-level (continuous) batching for autoregressive decode — the
// workload where dynamic-shape compilation beats pad-to-bucket static
// compilation hardest (ROADMAP item 2; Relax and Nimble both motivate the
// cross-iteration dynamic-shape pattern).
//
// Request-level serving (src/serving/) batches whole requests: a batch's
// membership is fixed at launch and every member pads to the batch
// maximum for its entire lifetime. For decode that is catastrophic —
// sequence lengths change EVERY iteration, short sequences finish early
// but their slots keep burning device time, and new arrivals wait for the
// whole batch to drain. The DecodeScheduler instead reschedules at every
// simulated-clock step:
//   * retire  — sequences that produced their last token leave the batch
//               and their KV blocks recycle immediately;
//   * join    — arrived (or preempted-and-requeued) sequences enter the
//               running batch whenever a slot and KV blocks are free,
//               gated by the engine's symbolic activation-peak formula
//               plus the KV pool's committed bytes (PredictPeakBytes-
//               style admission, PR 6);
//   * step    — the survivors form one ragged batch: occupancy B and the
//               step's padded KV length T (rounded to the KV pool's block
//               quantum, so step shape-signatures repeat and the PR 1
//               launch-plan cache / PR 5 hot-swap slots stay warm);
//   * preempt — under memory pressure (KV pool exhausted, or the engine
//               reports ResourceExhausted) the LOWEST-PROGRESS sequences
//               are preempted: blocks released, sequence requeued — the
//               decode-aware rung of the PR 4 degradation ladder,
//               replacing whole-request shed. A preempted sequence
//               resumes later and still completes, so the serving
//               accounting invariant is unchanged.
//
// Every completed sequence carries the PR 7 phase ledger with the new
// `decode_wait` phase (time mid-flight but out of the running batch);
// the ledger still sums exactly to the end-to-end latency, DISC_CHECKed
// per request. The per-step timeline (occupancy, joins/retires/
// preemptions, KV high-water) is rendered by `disc_explain --decode`,
// which also dumps it as decode_timeline.json.
#ifndef DISC_DECODE_DECODE_SCHEDULER_H_
#define DISC_DECODE_DECODE_SCHEDULER_H_

#include <functional>
#include <string>
#include <vector>

#include "baselines/engine.h"
#include "decode/kv_cache_pool.h"
#include "serving/serving.h"
#include "support/json.h"
#include "support/status.h"

namespace disc {

/// One decode request: the sequence arrives with `prompt_len` KV entries
/// already computed (prefill happens upstream) and wants `decode_len`
/// generated tokens.
struct DecodeRequest {
  int64_t id = 0;
  double arrival_us = 0.0;
  int64_t prompt_len = 1;
  int64_t decode_len = 1;
  /// Causal-trace id (0 = minted by SimulateDecode at submit).
  uint64_t trace_id = 0;
};

enum class DecodePolicy {
  /// Iteration-level batching: join/retire/preempt every step.
  kContinuous,
  /// Request-level batching: membership fixed at launch, finished
  /// sequences hold their padded slots (and KV blocks) until the whole
  /// batch drains — the baseline continuous batching is measured against.
  kWholeRequest,
};

const char* DecodePolicyName(DecodePolicy policy);

struct DecodeOptions {
  DecodePolicy policy = DecodePolicy::kContinuous;
  int64_t max_batch = 8;
  KvCachePoolOptions kv;
  /// Memory-aware admission: a candidate joins only when the engine's
  /// predicted activation peak for the would-be step shape plus the KV
  /// pool's committed bytes (including the candidate's grant) fits.
  /// 0 = admit on KV blocks alone.
  int64_t memory_limit_bytes = 0;
  /// Shed arrived-but-unadmitted requests beyond this backlog depth
  /// (newest first, so the oldest keep their place). 0 = never shed.
  int64_t max_queue_depth = 0;
  /// Engine-failure retry ladder (retryable, non-memory errors), same
  /// semantics as BatcherOptions.
  int64_t max_retries = 2;
  double retry_backoff_us = 500.0;
  /// Pad step signatures to powers of two (batch and KV length) instead
  /// of the KV block quantum — the static bucketed engine's grid.
  bool pad_pow2 = false;
};

/// One row of the step timeline (the decode_timeline.json dump).
struct DecodeStepRecord {
  int64_t step = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  int64_t occupancy = 0;     // live sequences in the step batch
  int64_t padded_batch = 0;  // launch B (== occupancy unless pow2-padded)
  int64_t padded_kv = 0;     // launch T
  int64_t joins = 0;
  int64_t retires = 0;
  int64_t preemptions = 0;
  int64_t real_tokens = 0;    // sum over live sequences of attended length
  int64_t padded_tokens = 0;  // padded_batch * padded_kv
  int64_t kv_blocks_in_use = 0;
  std::string signature;  // canonical "BxT" launch signature
};

/// SimulateDecode's result: the serving-compatible stats (accounting
/// invariant, latency percentiles, plan-hit rate, per-request ledgers,
/// plus the decode extensions: tokens/sec, p99 time-between-tokens,
/// per-step padding waste, preemptions) and the per-step timeline.
struct DecodeStats {
  ServingStats serving;
  std::vector<DecodeStepRecord> timeline;
  /// DecodePolicyName of the policy that produced this replay.
  std::string policy;
  /// KV pool summary at end of replay.
  int64_t kv_capacity_blocks = 0;
  int64_t kv_block_bytes = 0;
  int64_t kv_arena_bytes = 0;
  std::string kv_growth_formula;

  std::string ToString() const { return serving.ToString(); }
  /// Deterministic decode_timeline.json document: a summary object plus
  /// the per-step records.
  JsonValue TimelineJson() const;
  Status WriteTimelineJson(const std::string& path) const;
  /// Human-readable step timeline (what `disc_explain --decode` prints):
  /// the summary and KV-pool lines plus a per-step table — occupancy bar
  /// inside the padded launch batch, launch signature, join/retire/preempt
  /// events, KV blocks in use (high-water step flagged) — with long quiet
  /// runs elided.
  std::string TimelineText() const;
};

/// Maps a step's (padded batch, padded kv length) to the step model's
/// input shapes — e.g. for BuildGptStepBatch:
///   {{B,1,H},{B,T,H},{B,T,H},{B,T}}.
using DecodeShapeFn =
    std::function<std::vector<std::vector<int64_t>>(int64_t batch,
                                                    int64_t kv_len)>;

/// \brief Replays the decode request stream through `engine` (already
/// Prepared on the step model) on one simulated device. Individual
/// engine failures degrade the replay (retry ladder, preemption under
/// memory pressure, whole-batch failure only after retries exhaust);
/// an error return means the simulation itself is broken. The serving
/// accounting invariant — submitted == completed + shed + failed, with
/// preempted-and-resumed sequences counted once as completed — is
/// DISC_CHECKed before returning.
Result<DecodeStats> SimulateDecode(Engine* engine,
                                   const DecodeShapeFn& shape_fn,
                                   const std::vector<DecodeRequest>& requests,
                                   const DecodeOptions& options,
                                   const DeviceSpec& device);

/// \brief Poisson-ish arrivals with a realistic decode-trace length mix:
/// short chat turns dominate, a heavy tail of long generations (the
/// distribution continuous batching exploits hardest).
std::vector<DecodeRequest> SyntheticDecodeStream(int64_t count,
                                                 double mean_gap_us,
                                                 uint64_t seed);

}  // namespace disc

#endif  // DISC_DECODE_DECODE_SCHEDULER_H_
