#include "baselines/fallback_chain.h"

#include "support/blame.h"
#include "support/metrics.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace disc {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

EngineFallbackChain::EngineFallbackChain(std::unique_ptr<Engine> primary,
                                         std::unique_ptr<Engine> fallback,
                                         FallbackChainOptions options)
    : primary_(std::move(primary)),
      fallback_(std::move(fallback)),
      options_(options),
      name_(primary_->name() + "->" + fallback_->name()) {}

Status EngineFallbackChain::Prepare(
    const Graph& graph, std::vector<std::vector<std::string>> labels) {
  DISC_RETURN_IF_ERROR(PrepareCommon(graph, labels));
  // The degraded path must always be available: the interpreter's Prepare
  // only clones the graph and builds dispatch units, no compilation.
  DISC_RETURN_IF_ERROR(fallback_->Prepare(graph, labels_));
  primary_prepared_ = false;
  double stall_us = 0.0;
  Status status = EnsurePrimaryPrepared(&stall_us);
  if (!status.ok()) OnPrimaryFailure(status);
  return Status::OK();
}

Status EngineFallbackChain::EnsurePrimaryPrepared(double* stall_us) {
  if (primary_prepared_) return Status::OK();
  CountMetric("engine.fallback.compile_attempts");
  const double before_ms = primary_->stats().total_compile_ms;
  Status status = primary_->Prepare(*graph_, labels_);
  double this_stall_us = 0.0;
  if (options_.compile_stall_us >= 0.0) {
    this_stall_us = options_.compile_stall_us;
  } else {
    this_stall_us = (primary_->stats().total_compile_ms - before_ms) * 1000.0;
  }
  *stall_us += this_stall_us;
  TraceSession& trace = TraceSession::Global();
  if (trace.enabled() && this_stall_us > 0.0) {
    // Instant event on the simulated timeline: which request (trace id)
    // paid this lazy-compile stall — the blame ledger's compile_stall
    // phase made visible in the span view.
    trace.AddCompleteEvent(
        "compile-stall", "engine.compile", sim_now_us_, /*dur_us=*/-1.0,
        TraceSession::kSimPid, /*tid=*/0,
        {{"trace_id", std::to_string(RequestContext::CurrentTraceId())},
         {"stall_us", StrFormat("%.0f", this_stall_us)},
         {"ok", status.ok() ? "1" : "0"}});
  }
  if (!status.ok()) return status;
  primary_prepared_ = true;
  return Status::OK();
}

void EngineFallbackChain::Transition(BreakerState to,
                                     const std::string& reason) {
  transitions_.push_back({state_, to, sim_now_us_, reason});
  CountMetric(std::string("serving.breaker.") + BreakerStateName(to));
  TraceSession& trace = TraceSession::Global();
  if (trace.enabled()) {
    // Instant event (dur < 0) on the simulated-clock timeline, next to the
    // serving spans it explains.
    trace.AddCompleteEvent(
        std::string("breaker->") + BreakerStateName(to), "serving.breaker",
        sim_now_us_, /*dur_us=*/-1.0, TraceSession::kSimPid, /*tid=*/0,
        {{"from", BreakerStateName(state_)},
         {"reason", reason},
         {"consecutive_failures", std::to_string(consecutive_failures_)}});
  }
  state_ = to;
}

void EngineFallbackChain::OnPrimaryFailure(const Status& status) {
  ++consecutive_failures_;
  CountMetric("engine.fallback.primary_failures");
  if (state_ == BreakerState::kHalfOpen) {
    opened_at_us_ = sim_now_us_;
    Transition(BreakerState::kOpen, "probe failed: " + status.ToString());
  } else if (state_ == BreakerState::kClosed &&
             consecutive_failures_ >= options_.failure_threshold) {
    opened_at_us_ = sim_now_us_;
    Transition(BreakerState::kOpen,
               StrFormat("%lld consecutive failures, last: %s",
                         static_cast<long long>(consecutive_failures_),
                         status.ToString().c_str()));
  }
}

void EngineFallbackChain::OnPrimarySuccess() {
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen) {
    Transition(BreakerState::kClosed, "probe succeeded");
  }
}

void EngineFallbackChain::SetSimulatedTimeUs(double now_us) {
  sim_now_us_ = now_us;
  if (state_ == BreakerState::kOpen &&
      now_us - opened_at_us_ >= options_.cooldown_us) {
    Transition(BreakerState::kHalfOpen, "cooldown elapsed");
  }
  primary_->SetSimulatedTimeUs(now_us);
  fallback_->SetSimulatedTimeUs(now_us);
}

Result<EngineTiming> EngineFallbackChain::Query(
    const std::vector<std::vector<int64_t>>& input_dims,
    const DeviceSpec& device) {
  if (graph_ == nullptr) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  CountQuery();
  double stall_us = 0.0;
  if (state_ != BreakerState::kOpen) {
    Status prepared = EnsurePrimaryPrepared(&stall_us);
    if (prepared.ok()) {
      const EngineStats& primary = primary_->stats();
      const int64_t hits_before = primary.launch_plan_hits;
      const int64_t misses_before = primary.launch_plan_misses;
      Result<EngineTiming> result = primary_->Query(input_dims, device);
      if (result.ok()) {
        // The chain reports the plan lookups of the queries its primary
        // serves, so serving stats read the same hit rate through it.
        stats_.launch_plan_hits += primary.launch_plan_hits - hits_before;
        stats_.launch_plan_misses += primary.launch_plan_misses - misses_before;
        OnPrimarySuccess();
        EngineTiming timing = *result;
        timing.compile_us += stall_us;
        timing.total_us += stall_us;
        return timing;
      }
      OnPrimaryFailure(result.status());
    } else {
      OnPrimaryFailure(prepared);
    }
  }
  // Degraded path. A failed compile attempt above still stalled the query.
  Result<EngineTiming> result = fallback_->Query(input_dims, device);
  if (!result.ok()) return result.status();  // both legs down
  ++stats_.fallback_queries;
  CountMetric("engine.fallback.queries");
  EngineTiming timing = *result;
  timing.compile_us += stall_us;
  timing.total_us += stall_us;
  return timing;
}

Result<std::vector<Tensor>> EngineFallbackChain::Execute(
    const std::vector<Tensor>& inputs) {
  if (graph_ == nullptr) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  if (state_ != BreakerState::kOpen && primary_prepared_) {
    Result<std::vector<Tensor>> result = primary_->Execute(inputs);
    if (result.ok()) {
      OnPrimarySuccess();
      return result;
    }
    OnPrimaryFailure(result.status());
  }
  ++stats_.fallback_queries;
  CountMetric("engine.fallback.queries");
  return fallback_->Execute(inputs);
}

}  // namespace disc
