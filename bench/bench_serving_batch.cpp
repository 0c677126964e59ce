// Extension experiment F8: dynamic batching under load.
//
// A Zipf-length request stream is served by a dynamic batcher in front of
// one simulated GPU. Padding policy interacts with the engine's shape
// flexibility:
//   * DISC + batch-max padding — pad only to each batch's longest request
//     (any (B, S) compiles to nothing new);
//   * TensorRT-style + pow2 buckets — the engine only has kernels on the
//     bucket grid, so every batch pads up to powers of two;
//   * PyTorch eager, no batching — the latency-oriented default.
// Reported: latency percentiles (queueing + execution), throughput, and
// padding waste.
#include "baselines/baselines.h"
#include "bench/bench_util.h"
#include "ir/builder.h"
#include "serving/serving.h"
#include "support/rng.h"

namespace disc {
namespace {

std::unique_ptr<Graph> EncoderBlock(int64_t hidden) {
  auto g = std::make_unique<Graph>("encoder");
  GraphBuilder b(g.get());
  Rng rng(4);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, hidden});
  Tensor w(DType::kF32, {hidden, hidden});
  for (int64_t i = 0; i < w.num_elements(); ++i) {
    w.f32_data()[i] = rng.Normal(0, 0.1f);
  }
  Value* h = b.Gelu(b.MatMul(x, b.Constant(w)));
  Tensor w2(DType::kF32, {hidden, hidden});
  for (int64_t i = 0; i < w2.num_elements(); ++i) {
    w2.f32_data()[i] = rng.Normal(0, 0.1f);
  }
  h = b.Add(h, b.MatMul(h, b.Constant(w2)));
  Value* scale = b.Constant(Tensor::F32({hidden},
                                        std::vector<float>(hidden, 1.0f)));
  Value* bias = b.Constant(Tensor::F32({hidden},
                                       std::vector<float>(hidden, 0.0f)));
  b.Output({b.LayerNorm(h, scale, bias)});
  return g;
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  using namespace disc;
  bench::JsonReporter report("F8", argc, argv);
  const int64_t kHidden = 256;
  std::printf("== F8 (extension): dynamic batching under load ==\n\n");

  auto graph = EncoderBlock(kHidden);
  auto shape_fn = [kHidden](int64_t batch, int64_t seq) {
    return std::vector<std::vector<int64_t>>{{batch, seq, kHidden}};
  };
  const DeviceSpec device = DeviceSpec::A10();

  struct Config {
    const char* engine;
    PadPolicy pad;
    int64_t max_batch;
    const char* label;
  };
  const Config configs[] = {
      {"DISC", PadPolicy::kBatchMax, 8, "DISC, pad to batch max"},
      {"DISC", PadPolicy::kBucketPow2, 8, "DISC, pow2 buckets (ablation)"},
      {"TensorRT", PadPolicy::kBucketPow2, 8, "TensorRT, pow2 buckets"},
      {"PyTorch", PadPolicy::kBatchMax, 1, "PyTorch eager, no batching"},
  };

  for (double mean_gap_us : {200.0, 40.0}) {
    auto requests = SyntheticRequestStream(192, mean_gap_us, 13);
    std::printf("-- arrival gap ~%.0fus (%s load) --\n", mean_gap_us,
                mean_gap_us < 100 ? "high" : "moderate");
    bench::Table table({"config", "p50", "p95", "p99", "qps", "pad waste",
                        "batches"});
    for (const Config& config : configs) {
      auto engine = MakeBaseline(config.engine);
      DISC_CHECK_OK(engine.status());
      DISC_CHECK_OK((*engine)->Prepare(*graph, {{"B", "S", ""}}));
      // Warm static engines on the bucket grid first (steady state).
      if (std::string(config.engine) == "TensorRT") {
        for (int64_t batch : {1, 2, 4, 8}) {
          for (int64_t seq : {32, 64, 128}) {
            DISC_CHECK_OK(
                (*engine)->Query(shape_fn(batch, seq), device).status());
          }
        }
      }
      BatcherOptions options;
      options.pad = config.pad;
      options.max_batch = config.max_batch;
      auto stats = SimulateServing(engine->get(), shape_fn, requests,
                                   options, device);
      DISC_CHECK_OK(stats.status());
      std::string prefix =
          bench::Fmt("gap%.0f", mean_gap_us) + "." + config.label + ".";
      for (char& c : prefix) {
        if (c == ' ' || c == ',') c = '-';
      }
      report.AddMetric(prefix + "p99_us", stats->p99_us, "us");
      report.AddMetric(prefix + "qps", stats->throughput_qps, "qps");
      report.AddMetric(prefix + "pad_waste", stats->padded_token_fraction,
                       "ratio");
      table.AddRow({config.label, bench::FmtUs(stats->p50_us),
                    bench::FmtUs(stats->p95_us), bench::FmtUs(stats->p99_us),
                    bench::Fmt("%.0f", stats->throughput_qps),
                    bench::Fmt("%.0f%%", stats->padded_token_fraction * 100),
                    std::to_string(stats->batches)});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Reading: batch-max padding (possible only with any-shape kernels)\n"
      "wastes the least compute; bucket grids pay double padding (batch AND\n"
      "sequence); no batching collapses under load.\n");
  return 0;
}
