#include "baselines/engine.h"

#include "ir/eval.h"
#include "support/metrics.h"

namespace disc {

namespace {
// The registry metrics behind the counter choke points, resolved once. The
// registry never removes a metric, so the pointers stay valid for the
// process lifetime.
struct EngineMetrics {
  Counter* queries;
  Counter* compilations;
  Counter* plan_hits;
  Counter* plan_misses;
  Counter* memory_predictions;
  Histogram* predicted_peak_bytes;

  static const EngineMetrics& Get() {
    static const EngineMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      return EngineMetrics{
          registry.GetCounter("engine.queries"),
          registry.GetCounter("engine.compilations"),
          registry.GetCounter("engine.plan_cache.hit"),
          registry.GetCounter("engine.plan_cache.miss"),
          registry.GetCounter("engine.memory_predictions"),
          registry.GetHistogram("engine.predicted_peak_bytes"),
      };
    }();
    return metrics;
  }
};
}  // namespace

void Engine::CountQuery() {
  ++stats_.queries;
  EngineMetrics::Get().queries->Increment();
}

void Engine::CountCompilation(double compile_ms) {
  ++stats_.compilations;
  stats_.total_compile_ms += compile_ms;
  EngineMetrics::Get().compilations->Increment();
}

void Engine::CountPlanLookup(bool hit) {
  const EngineMetrics& metrics = EngineMetrics::Get();
  if (hit) {
    ++stats_.launch_plan_hits;
    metrics.plan_hits->Increment();
  } else {
    ++stats_.launch_plan_misses;
    metrics.plan_misses->Increment();
  }
}

void Engine::CountMemoryPrediction(int64_t predicted_bytes) {
  ++stats_.memory_predictions;
  stats_.last_predicted_peak_bytes = predicted_bytes;
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.memory_predictions->Increment();
  metrics.predicted_peak_bytes->Observe(static_cast<double>(predicted_bytes));
}

Status Engine::PrepareCommon(const Graph& graph,
                             std::vector<std::vector<std::string>> labels) {
  graph_ = graph.Clone();
  labels_ = std::move(labels);
  return Status::OK();
}

Result<std::vector<Tensor>> Engine::Execute(const std::vector<Tensor>& inputs) {
  if (graph_ == nullptr) {
    return Status::FailedPrecondition("Engine::Prepare was not called");
  }
  return EvaluateGraph(*graph_, inputs);
}

}  // namespace disc
