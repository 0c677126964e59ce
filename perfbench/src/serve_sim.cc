// Workload `serve_sim`: timing-only serving and decode, no numerics.
//
// One round builds and prepares fresh DISC engines for BERT and the
// batched GPT decode step, replays a seeded request stream through
// SimulateServing (batch-max padding, one fixed simulated rate below
// saturation, memory-aware admission with a budget no batch reaches) and
// a seeded decode stream through SimulateDecode (continuous batching).
// Kernels never run: the wall time is plan build and hit, guard and shape
// solving, the cost model and the two scheduler loops. Fresh engines make
// every round's simulated results identical, which the benchmark checks.
//
// Every Engine::Query and PredictPeakBytes call is timed from outside by a
// forwarding engine; a scheduler loop's own time is its wall minus the
// engine calls made inside it. After the timed rounds an untimed bisection
// finds the highest simulated arrival rate whose p99 stays under the SLO.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "baselines/dynamic_engine.h"
#include "decode/decode_replay.h"
#include "decode/decode_scheduler.h"
#include "harness.h"
#include "models/models.h"
#include "serving/serving.h"
#include "support/blame.h"

namespace perfbench {
namespace {

/// Stream sizes per round. A decode request runs for about 13 steps, and
/// each step is one engine query, so 4k decode requests already give ~52k
/// queries, more than the ~17k batches of the 100k serving requests.
constexpr int64_t kServeRequests = 100000;
constexpr int64_t kDecodeRequests = 4000;
/// Fixed simulated arrival rates (mean inter-arrival gaps), below
/// saturation for both streams.
constexpr double kServeGapUs = 400.0;
constexpr double kDecodeGapUs = 2000.0;
/// Memory-admission budget: far above any seeded batch, so admission runs
/// PredictPeakBytes on every batch and never sheds.
constexpr int64_t kMemoryBudgetBytes = int64_t{1} << 40;
/// The latency limit of sim_rps_at_slo, on the simulated p99, and the
/// bisection that finds the highest rate meeting it.
constexpr double kSloP99Ms = 25.0;
constexpr int64_t kSloRequests = 20000;
constexpr double kSloRateLo = 500.0;
constexpr double kSloRateHi = 50000.0;
constexpr int kSloSteps = 10;
constexpr int kMinRounds = 3;
constexpr int kProbesPerRound = 10;

/// Wall-clock samples of the engine calls made through a TimedEngine.
struct CallSamples {
  std::vector<double> query_us;
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  std::vector<double> predict_us;
  double inside_us = 0.0;  // all timed calls, for the loops' self time
};

/// Forwards to a real engine and times Query / PredictPeakBytes.
class TimedEngine : public disc::Engine {
 public:
  TimedEngine(disc::Engine* inner, Tracer* tracer, CallSamples* samples)
      : inner_(inner), tracer_(tracer), samples_(samples) {}

  const std::string& name() const override { return inner_->name(); }
  disc::Status Prepare(
      const disc::Graph& graph,
      std::vector<std::vector<std::string>> labels) override {
    return inner_->Prepare(graph, std::move(labels));
  }
  disc::Result<disc::EngineTiming> Query(
      const std::vector<std::vector<int64_t>>& input_dims,
      const disc::DeviceSpec& device) override {
    const int64_t hits_before = inner_->stats().launch_plan_hits;
    Tracer::Scope span(tracer_, "baselines.query", RequestId());
    const Clock::time_point start = Clock::now();
    disc::Result<disc::EngineTiming> timing = inner_->Query(input_dims, device);
    const double us = UsBetween(start, Clock::now());
    samples_->query_us.push_back(us);
    (inner_->stats().launch_plan_hits > hits_before ? samples_->hit_us
                                                    : samples_->miss_us)
        .push_back(us);
    samples_->inside_us += us;
    return timing;
  }
  disc::Result<int64_t> PredictPeakBytes(
      const std::vector<std::vector<int64_t>>& input_dims) override {
    Tracer::Scope span(tracer_, "baselines.predict", RequestId());
    const Clock::time_point start = Clock::now();
    disc::Result<int64_t> bytes = inner_->PredictPeakBytes(input_dims);
    const double us = UsBetween(start, Clock::now());
    samples_->predict_us.push_back(us);
    samples_->inside_us += us;
    return bytes;
  }
  void SetSimulatedTimeUs(double now_us) override {
    inner_->SetSimulatedTimeUs(now_us);
  }
  const disc::EngineStats& stats() const override { return inner_->stats(); }

 private:
  static int64_t RequestId() {
    return static_cast<int64_t>(disc::RequestContext::CurrentTraceId());
  }

  disc::Engine* inner_;
  Tracer* tracer_;
  CallSamples* samples_;
};

/// What one round measured. Wall samples are reduced to per-round
/// quantiles, so memory stays flat however many rounds a run makes.
struct Round {
  double setup_s = 0.0;
  double query_p50_us = 0.0;
  double query_p99_us = 0.0;
  double hit_us = 0.0;      // median plan-hit Query
  double miss_us = 0.0;     // median plan-miss Query
  double predict_us = 0.0;  // median PredictPeakBytes
  double serve_wall_us = 0.0;
  double decode_wall_us = 0.0;
  double serve_inside_us = 0.0;
  double decode_inside_us = 0.0;
  disc::ServingStats serving;
  disc::DecodeStats decode;
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  int64_t plan_evictions = 0;
};

disc::Result<std::unique_ptr<disc::DynamicCompilerEngine>> Prepared(
    const disc::Model& model) {
  auto engine = std::make_unique<disc::DynamicCompilerEngine>(
      disc::DynamicProfile::Disc());
  DISC_RETURN_IF_ERROR(
      engine->Prepare(*model.graph, model.input_dim_labels));
  return engine;
}

disc::ShapeFn BertShapes(int64_t hidden) {
  return [hidden](int64_t batch, int64_t seq) {
    return std::vector<std::vector<int64_t>>{{batch, seq, hidden}};
  };
}

disc::BatcherOptions ServeBatcher() {
  disc::BatcherOptions batcher;
  batcher.pad = disc::PadPolicy::kBatchMax;
  batcher.memory_limit_bytes = kMemoryBudgetBytes;
  return batcher;
}

disc::Result<Round> RunRound(
    const std::vector<disc::Request>& requests,
    const std::vector<disc::DecodeRequest>& decode_requests, Tracer* tracer,
    int round) {
  Round r;
  CallSamples calls;
  CallSamples* samples = &calls;
  Tracer::Scope round_span(tracer, "bench.round", round);
  const disc::ModelConfig config;
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<disc::Model> bert, gpt;
  {
    Tracer::Scope span(tracer, "ir.build", round);
    bert = std::make_unique<disc::Model>(disc::BuildBert(config));
    gpt = std::make_unique<disc::Model>(disc::BuildGptStepBatch(config));
  }
  std::unique_ptr<disc::DynamicCompilerEngine> bert_engine, gpt_engine;
  {
    Tracer::Scope span(tracer, "baselines.prepare", round);
    DISC_ASSIGN_OR_RETURN(bert_engine, Prepared(*bert));
    DISC_ASSIGN_OR_RETURN(gpt_engine, Prepared(*gpt));
  }
  r.setup_s = MsSince(setup_start) / 1e3;

  {
    TimedEngine timed(bert_engine.get(), tracer, samples);
    const double inside_before = samples->inside_us;
    Tracer::Scope span(tracer, "serving.simulate", round);
    const Clock::time_point start = Clock::now();
    auto stats = disc::SimulateServing(&timed, BertShapes(config.hidden),
                                       requests, ServeBatcher(),
                                       disc::DeviceSpec::A10());
    r.serve_wall_us = UsBetween(start, Clock::now());
    r.serve_inside_us = samples->inside_us - inside_before;
    DISC_ASSIGN_OR_RETURN(r.serving, std::move(stats));
  }
  {
    TimedEngine timed(gpt_engine.get(), tracer, samples);
    const double inside_before = samples->inside_us;
    Tracer::Scope span(tracer, "decode.simulate", round);
    const Clock::time_point start = Clock::now();
    auto stats = disc::SimulateDecode(
        &timed, disc::GptStepBatchShapeFn(config.hidden), decode_requests,
        disc::DecodeOptions{}, disc::DeviceSpec::A10());
    r.decode_wall_us = UsBetween(start, Clock::now());
    r.decode_inside_us = samples->inside_us - inside_before;
    DISC_ASSIGN_OR_RETURN(r.decode, std::move(stats));
  }
  for (const disc::DynamicCompilerEngine* engine :
       {bert_engine.get(), gpt_engine.get()}) {
    r.plan_hits += engine->stats().launch_plan_hits;
    r.plan_misses += engine->stats().launch_plan_misses;
    r.plan_evictions += engine->executable()->plan_cache_stats().evictions;
  }
  r.query_p50_us = Median(calls.query_us);
  r.query_p99_us = Quantile(calls.query_us, 0.99);
  r.hit_us = Median(calls.hit_us);
  r.miss_us = Median(calls.miss_us);
  r.predict_us = Median(calls.predict_us);
  return r;
}

/// Whether serving `kSloRequests` seeded requests at `rate` on a fresh
/// engine completes them all with the simulated p99 within the SLO.
disc::Result<bool> MeetsSlo(const disc::Model& bert, double rate,
                            uint64_t seed) {
  DISC_ASSIGN_OR_RETURN(std::unique_ptr<disc::DynamicCompilerEngine> engine,
                        Prepared(bert));
  DISC_ASSIGN_OR_RETURN(
      disc::ServingStats stats,
      disc::SimulateServing(
          engine.get(), BertShapes(disc::ModelConfig{}.hidden),
          disc::SyntheticRequestStream(kSloRequests, 1e6 / rate, seed),
          ServeBatcher(), disc::DeviceSpec::A10()));
  return stats.completed == stats.submitted &&
         stats.p99_us <= kSloP99Ms * 1e3;
}

/// Highest simulated arrival rate whose p99 meets the SLO with every
/// request completed (log-space bisection, fresh engine per probe).
disc::Result<double> RateAtSlo(uint64_t seed) {
  const disc::Model bert = disc::BuildBert(disc::ModelConfig{});
  double lo = kSloRateLo, hi = kSloRateHi;
  DISC_ASSIGN_OR_RETURN(bool meets, MeetsSlo(bert, lo, seed));
  if (!meets) return lo;
  for (int step = 0; step < kSloSteps; ++step) {
    const double mid = std::sqrt(lo * hi);
    DISC_ASSIGN_OR_RETURN(meets, MeetsSlo(bert, mid, seed));
    (meets ? lo : hi) = mid;
  }
  return lo;
}

bool SameSimulation(const Round& a, const Round& b) {
  return a.serving.p99_us == b.serving.p99_us &&
         a.serving.batches == b.serving.batches &&
         a.serving.completed == b.serving.completed &&
         a.decode.serving.decode_steps == b.decode.serving.decode_steps &&
         a.decode.serving.tokens_per_sec == b.decode.serving.tokens_per_sec &&
         a.plan_hits == b.plan_hits && a.plan_evictions == b.plan_evictions;
}

}  // namespace

Results RunServeSim(const Options& options) {
  Results res;
  const std::vector<disc::Request> requests =
      disc::SyntheticRequestStream(kServeRequests, kServeGapUs, options.seed);
  const std::vector<disc::DecodeRequest> decode_requests =
      disc::SyntheticDecodeStream(kDecodeRequests, kDecodeGapUs,
                                  options.seed + 1);

  Tracer tracer(false);
  // Per-round quantiles; the run reports their medians over rounds.
  std::vector<double> p50s, p99s, traced_p50s, hit_us, miss_us, predict_us;
  std::optional<Round> first_round;  // later rounds are compared, then dropped
  std::vector<double> setup_s, serve_wall_ms, decode_wall_ms;
  double untraced_ops = 0.0, untraced_wall_us = 0.0;
  double serve_self_us = 0.0, decode_self_us = 0.0;
  int64_t traced_batches = 0, traced_steps = 0;
  SpeedProbe probe;
  const int min_rounds = options.trace ? 2 * kMinRounds : kMinRounds;
  const Clock::time_point loop_start = Clock::now();
  for (int round = 0;; ++round) {
    if (round >= min_rounds && MsSince(loop_start) >= options.seconds * 1e3) {
      break;
    }
    const bool traced = options.trace && round % 2 == 1;
    // The replay runs inside the library, so the probe samples between
    // rounds.
    for (int i = 0; i < kProbesPerRound; ++i) probe.Sample();
    tracer.set_enabled(traced);
    disc::Result<Round> replayed =
        RunRound(requests, decode_requests, &tracer, round);
    if (!replayed.ok()) {
      // A failed Prepare or replay fails every request of the round.
      res.attempted += static_cast<int64_t>(requests.size() +
                                            decode_requests.size());
      res.failed += static_cast<int64_t>(requests.size() +
                                         decode_requests.size());
      res.report.push_back(Format("round %d failed: %s", round,
                                  replayed.status().ToString().c_str()));
      break;
    }
    Round& r = *replayed;
    setup_s.push_back(r.setup_s);
    serve_wall_ms.push_back(r.serve_wall_us / 1e3);
    decode_wall_ms.push_back(r.decode_wall_us / 1e3);

    // SimulateServing and SimulateDecode check their own accounting
    // (submitted == completed + shed + deadline_missed + failed). Here every
    // request must complete, and a fresh engine must replay the same
    // simulation as the first round.
    const disc::ServingStats& s = r.serving;
    const disc::ServingStats& d = r.decode.serving;
    const int64_t lost = s.submitted - s.completed + d.submitted - d.completed;
    const bool same = !first_round || SameSimulation(*first_round, r);
    res.attempted += s.submitted + d.submitted;
    res.failed += same ? lost : s.submitted + d.submitted;
    if (lost > 0) {
      res.report.push_back(Format("round %d: %lld requests not completed",
                                  round, static_cast<long long>(lost)));
    }
    if (!same) {
      res.report.push_back(Format("round %d simulated differently", round));
    }

    if (traced) {
      serve_self_us += r.serve_wall_us - r.serve_inside_us;
      decode_self_us += r.decode_wall_us - r.decode_inside_us;
      traced_batches += s.batches;
      traced_steps += d.decode_steps;
      traced_p50s.push_back(r.query_p50_us);
      hit_us.push_back(r.hit_us);
      miss_us.push_back(r.miss_us);
      predict_us.push_back(r.predict_us);
    } else {
      p50s.push_back(r.query_p50_us);
      p99s.push_back(r.query_p99_us);
      untraced_ops += static_cast<double>(s.completed + d.decode_steps);
      untraced_wall_us += r.serve_wall_us + r.decode_wall_us;
    }
    if (!first_round) {
      // Keep the summary only; the per-request records are large.
      r.serving.completed_requests = {};
      r.decode.serving.completed_requests = {};
      r.decode.timeline = {};
      first_round = std::move(r);
    }
  }
  if (!first_round) return res;
  const disc::Result<double> slo = RateAtSlo(options.seed);
  res.Count(slo.ok());
  if (!slo.ok()) {
    res.report.push_back("SLO bisection failed: " + slo.status().ToString());
  }
  const double rate_at_slo = slo.ok() ? *slo : 0.0;

  const Round& first = *first_round;
  const double query_p50 = Median(p50s);
  const double query_p99 = Median(p99s);
  const double replay_rps = untraced_ops / (untraced_wall_us / 1e6);
  const double sim_p99_ms = first.serving.p99_us / 1e3;
  SetWallMetrics(probe, Median(setup_s), query_p50 / 1e3, query_p99 / 1e3,
                 replay_rps, &res);
  res.Set("sim_ms", sim_p99_ms, "ms");
  res.Set("sim_rate_per_s", rate_at_slo, "1/s");
  res.Note("query_us.p50", query_p50, "us");
  res.Note("query_us.p99", query_p99, "us");
  res.Note("replay_rps", replay_rps, "1/s");
  res.Note("sim_p99_ms", sim_p99_ms, "ms");
  res.Note("sim_rps_at_slo", rate_at_slo, "1/s");
  res.Note("sim_tok_per_s", first.decode.serving.tokens_per_sec, "1/s");
  res.report.push_back(Format(
      "  rounds %d (%zu untraced); serving %lld requests in %lld batches, "
      "decode %lld requests in %lld steps",
      static_cast<int>(p50s.size() + traced_p50s.size()), p50s.size(),
      static_cast<long long>(first.serving.submitted),
      static_cast<long long>(first.serving.batches),
      static_cast<long long>(first.decode.serving.submitted),
      static_cast<long long>(first.decode.serving.decode_steps)));
  res.report.push_back(Format(
      "  median replay wall per round: serving %.1f ms, decode %.1f ms",
      Median(serve_wall_ms), Median(decode_wall_ms)));
  if (!options.trace) return res;

  res.Set("baselines.query_hit_us", Median(hit_us), "us");
  res.Set("baselines.query_miss_us", Median(miss_us), "us");
  res.Set("baselines.predict_us", Median(predict_us), "us");
  res.Set("runtime.plan_hit_ratio",
          static_cast<double>(first.plan_hits) /
              std::max<int64_t>(1, first.plan_hits + first.plan_misses),
          "ratio");
  res.Set("runtime.plan_evictions", static_cast<double>(first.plan_evictions),
          "count");
  res.Set("serving.self_us_per_batch",
          serve_self_us / std::max<int64_t>(1, traced_batches), "us");
  res.Set("decode.self_us_per_step",
          decode_self_us / std::max<int64_t>(1, traced_steps), "us");
  const disc::ServingStats& decode = first.decode.serving;
  res.Set("serving.batches", static_cast<double>(first.serving.batches),
          "count");
  res.Set("serving.padding_waste", first.serving.padded_token_fraction,
          "ratio");
  res.Set("decode.steps", static_cast<double>(decode.decode_steps), "count");
  res.Set("decode.step_padding_waste", decode.step_padding_waste, "ratio");
  res.Set("decode.kv_high_water_blocks",
          static_cast<double>(decode.kv_high_water_blocks), "count");
  res.Set("decode.sim_tok_per_s", decode.tokens_per_sec, "1/s");
  res.Set("trace_overhead_pct",
          100.0 * (Median(traced_p50s) / query_p50 - 1.0), "%");

  ReportTrace(tracer, options, &res);
  return res;
}

}  // namespace perfbench
