#include "decode/decode_replay.h"

#include <algorithm>

#include "ir/eval.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/rng.h"
#include "support/string_util.h"

namespace disc {

namespace {

/// Copies row `row` of a [B, R, H] tensor into a flat H-float vector.
std::vector<float> ExtractRow(const Tensor& t, int64_t batch, int64_t row) {
  const int64_t rows = t.dims()[1];
  const int64_t h = t.dims()[2];
  DISC_CHECK_LT(row, rows);
  std::vector<float> out(static_cast<size_t>(h));
  const float* src = t.f32_data() + (batch * rows + row) * h;
  std::copy(src, src + h, out.begin());
  return out;
}

/// Copies batch row `batch` of a [B, 1, V] tensor into a [1, 1, V] tensor.
Tensor ExtractProbRow(const Tensor& t, int64_t batch) {
  const int64_t v = t.dims()[2];
  Tensor out(DType::kF32, {1, 1, v});
  const float* src = t.f32_data() + batch * v;
  std::copy(src, src + v, out.f32_data());
  return out;
}

}  // namespace

BatchedDecodeSession::BatchedDecodeSession(
    const ModelConfig& config, std::vector<ReplaySequence> sequences)
    : config_(config),
      batch_model_(BuildGptStepBatch(config)),
      single_model_(BuildGptStep(config)) {
  seqs_.reserve(sequences.size());
  for (const ReplaySequence& spec : sequences) {
    DISC_CHECK_GT(spec.prompt_len, 0);
    DISC_CHECK_GT(spec.decode_len, 0);
    SeqReplayState s;
    s.spec = spec;
    s.consumed = spec.prompt_len;  // prefill happens lazily via rebuild
    s.cache_dropped = true;
    seqs_.push_back(std::move(s));
  }
}

Tensor BatchedDecodeSession::TokenAt(const SeqReplayState& s,
                                     int64_t t) const {
  // One Rng per (seed, step): recompute after preemption must see the
  // exact bits a sequential draw would have produced, so each token is a
  // pure function of its position, not of how many times we asked.
  Rng rng(s.spec.seed * 1000003 + static_cast<uint64_t>(t));
  Tensor token(DType::kF32, {1, 1, config_.hidden});
  for (int64_t i = 0; i < token.num_elements(); ++i) {
    token.f32_data()[i] = rng.Normal();
  }
  return token;
}

Status BatchedDecodeSession::RebuildCache(SeqReplayState* s) {
  s->k_rows.clear();
  s->v_rows.clear();
  // Prefill-style recompute through the single-sequence graph: entry t is
  // token_t @ Wk — bit-identical however it was first produced, because
  // the projection of row b depends only on token row b in both graphs.
  for (int64_t t = 0; t < s->consumed; ++t) {
    const int64_t len = static_cast<int64_t>(s->k_rows.size());
    Tensor k_cache(DType::kF32, {1, len, config_.hidden});
    Tensor v_cache(DType::kF32, {1, len, config_.hidden});
    for (int64_t r = 0; r < len; ++r) {
      std::copy(s->k_rows[r].begin(), s->k_rows[r].end(),
                k_cache.f32_data() + r * config_.hidden);
      std::copy(s->v_rows[r].begin(), s->v_rows[r].end(),
                v_cache.f32_data() + r * config_.hidden);
    }
    Result<std::vector<Tensor>> outs = EvaluateGraph(
        *single_model_.graph, {TokenAt(*s, t), k_cache, v_cache});
    if (!outs.ok()) return outs.status();
    s->k_rows.push_back(ExtractRow((*outs)[1], 0, len));
    s->v_rows.push_back(ExtractRow((*outs)[2], 0, len));
  }
  s->cache_dropped = false;
  return Status::OK();
}

Status BatchedDecodeSession::Step(const std::vector<int64_t>& active,
                                  int64_t block_tokens) {
  if (active.empty()) {
    return Status::InvalidArgument("Step: empty active set");
  }
  for (size_t i = 0; i < active.size(); ++i) {
    const int64_t seq = active[i];
    if (seq < 0 || seq >= static_cast<int64_t>(seqs_.size())) {
      return Status::InvalidArgument("Step: bad sequence index");
    }
    if (done(seq)) {
      return Status::InvalidArgument(StrFormat(
          "Step: sequence %lld already done", static_cast<long long>(seq)));
    }
    for (size_t j = i + 1; j < active.size(); ++j) {
      if (active[j] == seq) {
        return Status::InvalidArgument("Step: duplicate sequence index");
      }
    }
    SeqReplayState& s = seqs_[static_cast<size_t>(seq)];
    if (s.cache_dropped) {
      Status st = RebuildCache(&s);
      if (!st.ok()) return st;
    }
  }

  const int64_t b = static_cast<int64_t>(active.size());
  const int64_t h = config_.hidden;
  int64_t max_kv = 1;
  for (int64_t seq : active) {
    max_kv = std::max(
        max_kv,
        static_cast<int64_t>(seqs_[static_cast<size_t>(seq)].k_rows.size()));
  }
  const int64_t t_pad =
      block_tokens > 1 ? RoundUp(max_kv, block_tokens) : max_kv;

  // Assemble the ragged padded batch: live cache rows first, zero rows
  // beyond each sequence's length, mask 1.0 exactly over the live rows.
  // Zero-filled padding matters: 0.0-probability x 0.0-value products are
  // exactly +0.0, keeping padded columns bitwise inert in the context
  // matmul (a -0.0 would still be absorbed, but +0.0 needs no argument).
  Tensor token(DType::kF32, {b, 1, h});
  Tensor k_cache(DType::kF32, {b, t_pad, h});
  Tensor v_cache(DType::kF32, {b, t_pad, h});
  Tensor mask(DType::kF32, {b, t_pad});
  for (int64_t row = 0; row < b; ++row) {
    SeqReplayState& s = seqs_[static_cast<size_t>(active[row])];
    const Tensor tok = TokenAt(s, s.consumed);
    std::copy(tok.f32_data(), tok.f32_data() + h,
              token.f32_data() + row * h);
    const int64_t len = static_cast<int64_t>(s.k_rows.size());
    for (int64_t r = 0; r < len; ++r) {
      std::copy(s.k_rows[r].begin(), s.k_rows[r].end(),
                k_cache.f32_data() + (row * t_pad + r) * h);
      std::copy(s.v_rows[r].begin(), s.v_rows[r].end(),
                v_cache.f32_data() + (row * t_pad + r) * h);
    }
    for (int64_t r = 0; r < len; ++r) {
      mask.f32_data()[row * t_pad + r] = 1.0f;
    }
  }

  Result<std::vector<Tensor>> outs = EvaluateGraph(
      *batch_model_.graph, {token, k_cache, v_cache, mask});
  if (!outs.ok()) return outs.status();
  const Tensor& probs = (*outs)[0];   // [B, 1, 96]
  const Tensor& k_next = (*outs)[1];  // [B, T_pad+1, H]; new entry at T_pad
  const Tensor& v_next = (*outs)[2];

  for (int64_t row = 0; row < b; ++row) {
    SeqReplayState& s = seqs_[static_cast<size_t>(active[row])];
    s.k_rows.push_back(ExtractRow(k_next, row, t_pad));
    s.v_rows.push_back(ExtractRow(v_next, row, t_pad));
    s.captured.push_back(ExtractProbRow(probs, row));
    ++s.consumed;
  }
  return Status::OK();
}

void BatchedDecodeSession::Preempt(int64_t seq) {
  DISC_CHECK_GE(seq, 0);
  DISC_CHECK_LT(seq, static_cast<int64_t>(seqs_.size()));
  SeqReplayState& s = seqs_[static_cast<size_t>(seq)];
  s.k_rows.clear();
  s.v_rows.clear();
  s.cache_dropped = true;
}

bool BatchedDecodeSession::done(int64_t seq) const {
  const SeqReplayState& s = seqs_[static_cast<size_t>(seq)];
  return s.consumed >= s.spec.prompt_len + s.spec.decode_len;
}

const std::vector<Tensor>& BatchedDecodeSession::probs(int64_t seq) const {
  return seqs_[static_cast<size_t>(seq)].captured;
}

Result<std::vector<Tensor>> ReplaySingleSequence(const ModelConfig& config,
                                                 const ReplaySequence& seq) {
  // The reference runs the whole life of the sequence — prefill included —
  // through BuildGptStep with exact (unpadded) cache lengths.
  Model single = BuildGptStep(config);
  const int64_t h = config.hidden;
  std::vector<std::vector<float>> k_rows;
  std::vector<std::vector<float>> v_rows;
  std::vector<Tensor> decode_probs;
  const int64_t total = seq.prompt_len + seq.decode_len;
  for (int64_t t = 0; t < total; ++t) {
    const int64_t len = static_cast<int64_t>(k_rows.size());
    Tensor k_cache(DType::kF32, {1, len, h});
    Tensor v_cache(DType::kF32, {1, len, h});
    for (int64_t r = 0; r < len; ++r) {
      std::copy(k_rows[r].begin(), k_rows[r].end(),
                k_cache.f32_data() + r * h);
      std::copy(v_rows[r].begin(), v_rows[r].end(),
                v_cache.f32_data() + r * h);
    }
    // Token streams are a pure function of (seed, t); mirror the session's
    // derivation exactly.
    Rng rng(seq.seed * 1000003 + static_cast<uint64_t>(t));
    Tensor token(DType::kF32, {1, 1, h});
    for (int64_t i = 0; i < token.num_elements(); ++i) {
      token.f32_data()[i] = rng.Normal();
    }
    Result<std::vector<Tensor>> outs =
        EvaluateGraph(*single.graph, {token, k_cache, v_cache});
    if (!outs.ok()) return outs.status();
    k_rows.push_back(ExtractRow((*outs)[1], 0, len));
    v_rows.push_back(ExtractRow((*outs)[2], 0, len));
    if (t >= seq.prompt_len) decode_probs.push_back((*outs)[0].Clone());
  }
  return decode_probs;
}

DecodeShapeFn GptStepBatchShapeFn(int64_t hidden) {
  return [hidden](int64_t batch, int64_t kv_len) {
    return std::vector<std::vector<int64_t>>{{batch, 1, hidden},
                                             {batch, kv_len, hidden},
                                             {batch, kv_len, hidden},
                                             {batch, kv_len}};
  };
}

}  // namespace disc
