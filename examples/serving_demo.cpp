// Serving demo: a dynamic batcher in front of one simulated GPU, comparing
// padding policies that only a dynamic-shape compiler makes possible.
//
//   $ ./build/examples/serving_demo
#include <cstdio>
#include <utility>

#include "baselines/baselines.h"
#include "ir/builder.h"
#include "serving/serving.h"
#include "support/rng.h"

using namespace disc;

int main() {
  const int64_t kHidden = 64;
  Graph graph("serve");
  GraphBuilder b(&graph);
  Rng rng(1);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, kHidden});
  Tensor w(DType::kF32, {kHidden, kHidden});
  for (int64_t i = 0; i < w.num_elements(); ++i) {
    w.f32_data()[i] = rng.Normal(0, 0.1f);
  }
  b.Output({b.Softmax(b.Gelu(b.MatMul(x, b.Constant(w))))});

  auto shape_fn = [kHidden](int64_t batch, int64_t seq) {
    return std::vector<std::vector<int64_t>>{{batch, seq, kHidden}};
  };
  auto requests = SyntheticRequestStream(128, 8.0, 5);
  std::printf("%zu requests, Zipf sequence lengths, ~8us arrival gap (heavy load)\n\n",
              requests.size());

  // max_batch = 1 is no batching: every request runs alone (eager-style).
  const std::pair<PadPolicy, int64_t> configs[] = {{PadPolicy::kBatchMax, 8},
                                                   {PadPolicy::kBucketPow2, 8},
                                                   {PadPolicy::kBatchMax, 1}};
  for (auto [policy, max_batch] : configs) {
    auto engine = MakeBaseline("DISC");
    if (!engine.ok()) return 1;
    if (!(*engine)->Prepare(graph, {{"B", "S", ""}}).ok()) return 1;
    BatcherOptions options;
    options.pad = policy;
    options.max_batch = max_batch;
    auto stats = SimulateServing(engine->get(), shape_fn, requests, options,
                                 DeviceSpec::A10());
    if (!stats.ok()) {
      std::fprintf(stderr, "simulation failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12s %s\n", max_batch == 1 ? "none" : PadPolicyName(policy),
                stats->ToString().c_str());
  }
  return 0;
}
