// Per-request causal tracing and tail-latency blame attribution.
//
// Aggregate percentiles say *that* p99 is high; they never say *which*
// request, *which* shape signature, or *which* layer — queue wait, compile
// stall, host plan build, allocator traffic, device time — is to blame.
// This header is the substrate for that question:
//
//   * PhaseLedger — an itemized decomposition of one request's end-to-end
//     latency into causally-distinct phases on the simulated clock. The
//     serving simulator asserts (PR 4 accounting-invariant style) that the
//     phases sum to the request's measured end-to-end latency, so blame
//     fractions are exact, not estimates.
//   * RequestContext — a trace id + ledger minted per request at submit
//     and propagated down the synchronous call chain via a thread-local
//     scope (RequestContextScope). Layers that cannot see the serving
//     request (Executable::Run spans, CompileService job submissions)
//     read RequestContext::CurrentTraceId() to link their work back to
//     the request that caused it — cross-thread, compile jobs carry the
//     captured id in the job request itself.
//   * TailBlameAggregator — consumes completed-request records and answers
//     "what fraction of p99 latency does each phase own", printed by
//     `disc_explain --serve --blame` and exported as blame_report.json
//     through the deterministic JSON writer (shares sum to 1.0 by the
//     ledger invariant; the exporter re-checks it).
#ifndef DISC_SUPPORT_BLAME_H_
#define DISC_SUPPORT_BLAME_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/json.h"
#include "support/status.h"

namespace disc {

/// Itemized per-request latency decomposition (simulated-clock microseconds).
/// Phase order is fixed and mirrored by PhaseNames()/PhaseValues(); reports
/// and JSON export iterate it, so adding a phase means extending all three
/// members together (blame_test pins them in sync).
struct PhaseLedger {
  /// Waiting for the batch to form: request arrival -> batch ready (the
  /// last member's arrival under the batcher's wait budget).
  double batch_form_us = 0.0;
  /// Device-queue wait: batch ready -> first launch attempt.
  double queue_us = 0.0;
  /// Retry backoff between failed launch attempts (PR 4 degradation
  /// ladder); zero on the fault-free path.
  double backoff_us = 0.0;
  /// Decode-serving wait while the request was mid-flight but *not* in the
  /// running step batch: time spent preempted (KV blocks released under
  /// memory pressure, waiting in the resume queue) plus any scheduler gap
  /// between the steps it participated in. Zero for request-level serving,
  /// where a launched request is never descheduled.
  double decode_wait_us = 0.0;
  /// Compilation stall charged to this request's batch (lazy primary
  /// compile in the fallback chain, sync-mode async engine gate).
  double compile_stall_us = 0.0;
  /// Host-side work: shape program / guard evaluation / launch dispatch
  /// (EngineTiming::host_us — shrinks to a hash lookup on plan-cache hits).
  double host_plan_us = 0.0;
  /// Device-allocator traffic (EngineTiming::alloc_us; zero unless the
  /// engine profile prices allocator calls).
  double alloc_us = 0.0;
  /// Simulated device execution time.
  double device_us = 0.0;

  /// Sum of every phase — must equal the request's end-to-end latency
  /// (checked by the serving simulator for every completed request).
  double TotalUs() const;
  /// Name of the largest phase ("device", "queue", ...).
  const char* DominantPhase() const;
  /// Phase names in ledger order ("batch_form", "queue", "backoff",
  /// "decode_wait", "compile_stall", "host_plan", "alloc", "device").
  static const std::vector<std::string>& PhaseNames();
  /// Phase values in the same order as PhaseNames().
  std::vector<double> PhaseValues() const;
  std::string ToString() const;
};

/// \brief One request's causal-trace identity: a process-unique trace id
/// plus the latency ledger being assembled for it. Minted by the serving
/// simulator at submit; the batch execution path activates it via
/// RequestContextScope so downstream layers can attribute their work.
class RequestContext {
 public:
  RequestContext() = default;
  explicit RequestContext(uint64_t id) : trace_id(id) {}

  uint64_t trace_id = 0;
  PhaseLedger ledger;

  /// \brief Process-unique monotonic trace id (never 0).
  static uint64_t MintTraceId();
  /// \brief The context installed on this thread, nullptr when none.
  static RequestContext* Current();
  /// \brief Current()->trace_id, or 0 when no context is installed. The
  /// cheap form layers use to annotate spans and compile jobs.
  static uint64_t CurrentTraceId();
};

/// \brief RAII: installs `context` as the thread's current RequestContext
/// for the scope (restores the previous one on exit — scopes nest).
class RequestContextScope {
 public:
  explicit RequestContextScope(RequestContext* context);
  ~RequestContextScope();

  RequestContextScope(const RequestContextScope&) = delete;
  RequestContextScope& operator=(const RequestContextScope&) = delete;

 private:
  RequestContext* previous_;
};

/// One completed request with its full attribution — what the serving
/// simulator records into ServingStats::completed_requests and what the
/// blame aggregator and flight recorder consume.
struct CompletedRequest {
  uint64_t trace_id = 0;
  int64_t request_id = 0;
  /// Padded launch signature of the batch that served it, e.g. "8x128".
  std::string signature;
  double arrival_us = 0.0;
  double e2e_us = 0.0;  // submit -> complete on the simulated clock
  PhaseLedger ledger;   // sums to e2e_us (checked at record time)
  bool degraded = false;
  int64_t retries = 0;
};

/// Per-phase blame decomposition at one tail percentile.
struct BlameReport {
  double tail_percentile = 99.0;
  /// Latency at the percentile; tail set = requests at or above it.
  double threshold_us = 0.0;
  int64_t total_requests = 0;
  int64_t tail_requests = 0;
  /// phase -> fraction of summed latency owned by the phase, over all
  /// completed requests / over the tail set. Each sums to 1.0 (exact up to
  /// float rounding) because every ledger sums to its request's latency.
  std::vector<std::pair<std::string, double>> overall_shares;
  std::vector<std::pair<std::string, double>> tail_shares;
  /// Shape signatures of the tail set with their request counts, sorted by
  /// count descending — which shapes the tail lives on.
  std::vector<std::pair<std::string, int64_t>> tail_signatures;

  std::string ToString() const;
  JsonValue ToJson() const;
  /// \brief Writes ToJson() pretty-printed (the blame_report.json file).
  Status WriteJsonFile(const std::string& path) const;
};

/// \brief Accumulates completed requests (possibly across several serving
/// runs) and computes tail blame. Not thread-safe; aggregate per run and
/// merge.
class TailBlameAggregator {
 public:
  void Add(const CompletedRequest& request) { requests_.push_back(request); }
  void AddAll(const std::vector<CompletedRequest>& requests);

  int64_t size() const { return static_cast<int64_t>(requests_.size()); }

  /// \brief Blame decomposition at `tail_percentile` (e.g. 99.0). With no
  /// requests the report is empty (zero counts, no shares).
  BlameReport Compute(double tail_percentile = 99.0) const;

 private:
  std::vector<CompletedRequest> requests_;
};

/// \brief Re-parses a serialized blame report (ParseJson) and verifies its
/// share vectors each sum to 1.0 within `tolerance`. Returns OK with
/// `*out_sum` = the tail-share sum; the CI blame smoke drives this
/// through `disc_explain --serve --blame`.
Status ValidateBlameReportJson(const std::string& json_text, double tolerance,
                               double* out_sum);

}  // namespace disc

#endif  // DISC_SUPPORT_BLAME_H_
