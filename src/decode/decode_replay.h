// Numeric replay harness proving the decode subsystem's correctness
// invariant: a ragged, padded, continuously-batched decode step produces
// BIT-IDENTICAL per-sequence outputs to running each sequence alone,
// unbatched and unpadded — including across preempt/resume, where the
// KV cache is dropped and rebuilt from the token stream.
//
// Why bit-identity is attainable (and not just close): BuildGptStepBatch
// masks padded cache columns to -1e9 before the softmax; after the
// numerically-stable max-shift, exp(-1e9 - max) underflows to exactly
// +0.0, so padded positions carry probability +0.0. The reference
// evaluator accumulates matmuls and reductions in double, in a fixed
// index order, and adding +0.0 (or +0.0 * 0.0 from a zero-filled padded
// V row) to a partial sum is a bitwise no-op — so each live row's math
// is the same sequence of operations, on the same values, in the same
// order as the unbatched run. Padding is *inert*, not merely small.
// BuildGptStep and BuildGptStepBatch draw weights in the same order from
// the same seed, so the single-sequence reference runs a genuinely
// different graph (one fused score matmul, no mask) over shared weights —
// the comparison is cross-graph, not a tautology.
#ifndef DISC_DECODE_DECODE_REPLAY_H_
#define DISC_DECODE_DECODE_REPLAY_H_

#include <cstdint>
#include <vector>

#include "decode/decode_scheduler.h"
#include "ir/tensor.h"
#include "models/models.h"
#include "support/status.h"

namespace disc {

/// One sequence of the numeric replay: `seed` deterministically derives
/// its token-embedding stream (prompt_len prefill tokens, then decode_len
/// decode tokens).
struct ReplaySequence {
  int64_t prompt_len = 1;
  int64_t decode_len = 1;
  uint64_t seed = 1;
};

/// \brief Stateful batched decode session over BuildGptStepBatch.
/// Sequences keep growing KV caches; Step() runs one ragged padded batch;
/// Preempt() drops a cache, which is transparently rebuilt (prefill-style
/// recompute from the token stream) the next time the sequence steps.
class BatchedDecodeSession {
 public:
  BatchedDecodeSession(const ModelConfig& config,
                       std::vector<ReplaySequence> sequences);

  /// \brief Runs one batched decode step for `active` (indices into the
  /// sequence set, each with decode tokens remaining; duplicates are an
  /// error). The KV dimension pads to RoundUp(max live kv, block_tokens)
  /// (block_tokens <= 1 means exact, no padding). Captures each active
  /// sequence's next-token probability row.
  Status Step(const std::vector<int64_t>& active, int64_t block_tokens);

  /// \brief Drops the sequence's KV cache (the scheduler's preemption).
  /// Progress and captured outputs survive; the cache rebuilds on resume.
  void Preempt(int64_t seq);

  /// \brief True when the sequence has produced all decode_len tokens.
  bool done(int64_t seq) const;

  /// \brief Captured probability rows ([1,1,96] each), one per completed
  /// decode step of `seq`, in step order.
  const std::vector<Tensor>& probs(int64_t seq) const;

 private:
  struct SeqReplayState {
    ReplaySequence spec;
    /// Token embeddings consumed so far == KV rows logically owned.
    int64_t consumed = 0;
    bool cache_dropped = false;
    /// KV cache rows (each `hidden` floats); empty after Preempt until
    /// the rebuild on the next Step.
    std::vector<std::vector<float>> k_rows;
    std::vector<std::vector<float>> v_rows;
    std::vector<Tensor> captured;
  };

  /// Token embedding for step `t` of sequence `seq` ([1,1,H]); pure
  /// function of (seed, t) so preemption recompute sees identical inputs.
  Tensor TokenAt(const SeqReplayState& s, int64_t t) const;
  /// Replays tokens [from, s->consumed) through the single-sequence graph
  /// to (re)build cache rows — prefill at start, recompute after preempt.
  Status RebuildCache(SeqReplayState* s);

  ModelConfig config_;
  Model batch_model_;
  Model single_model_;
  std::vector<SeqReplayState> seqs_;
};

/// \brief Reference: the sequence alone through BuildGptStep (B=1, exact
/// lengths, no mask). Returns the decode-phase probability rows ([1,1,96]
/// per decode step) — what BatchedDecodeSession must match bitwise.
Result<std::vector<Tensor>> ReplaySingleSequence(const ModelConfig& config,
                                                 const ReplaySequence& seq);

/// \brief The DecodeShapeFn for BuildGptStepBatch:
/// (B, T) -> {{B,1,H},{B,T,H},{B,T,H},{B,T}}.
DecodeShapeFn GptStepBatchShapeFn(int64_t hidden);

}  // namespace disc

#endif  // DISC_DECODE_DECODE_REPLAY_H_
