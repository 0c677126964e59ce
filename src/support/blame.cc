#include "support/blame.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>

#include "support/artifact_dump.h"
#include "support/logging.h"
#include "support/string_util.h"

namespace disc {

double PhaseLedger::TotalUs() const {
  return batch_form_us + queue_us + backoff_us + decode_wait_us +
         compile_stall_us + host_plan_us + alloc_us + device_us;
}

const std::vector<std::string>& PhaseLedger::PhaseNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "batch_form", "queue",     "backoff", "decode_wait",
      "compile_stall", "host_plan", "alloc", "device"};
  return *names;
}

std::vector<double> PhaseLedger::PhaseValues() const {
  return {batch_form_us,    queue_us,     backoff_us, decode_wait_us,
          compile_stall_us, host_plan_us, alloc_us,   device_us};
}

const char* PhaseLedger::DominantPhase() const {
  const std::vector<double> values = PhaseValues();
  size_t best = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) best = i;
  }
  return PhaseNames()[best].c_str();
}

std::string PhaseLedger::ToString() const {
  const std::vector<std::string>& names = PhaseNames();
  const std::vector<double> values = PhaseValues();
  std::string s;
  for (size_t i = 0; i < names.size(); ++i) {
    if (values[i] == 0.0) continue;
    if (!s.empty()) s += " ";
    s += StrFormat("%s=%.1fus", names[i].c_str(), values[i]);
  }
  return s.empty() ? "empty" : s;
}

namespace {
thread_local RequestContext* g_current_context = nullptr;
}  // namespace

uint64_t RequestContext::MintTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

RequestContext* RequestContext::Current() { return g_current_context; }

uint64_t RequestContext::CurrentTraceId() {
  return g_current_context != nullptr ? g_current_context->trace_id : 0;
}

RequestContextScope::RequestContextScope(RequestContext* context)
    : previous_(g_current_context) {
  g_current_context = context;
}

RequestContextScope::~RequestContextScope() { g_current_context = previous_; }

void TailBlameAggregator::AddAll(
    const std::vector<CompletedRequest>& requests) {
  requests_.insert(requests_.end(), requests.begin(), requests.end());
}

namespace {

std::vector<std::pair<std::string, double>> Shares(
    const std::vector<const CompletedRequest*>& set) {
  const std::vector<std::string>& names = PhaseLedger::PhaseNames();
  std::vector<double> sums(names.size(), 0.0);
  double total = 0.0;
  for (const CompletedRequest* r : set) {
    const std::vector<double> values = r->ledger.PhaseValues();
    for (size_t i = 0; i < values.size(); ++i) sums[i] += values[i];
    total += r->e2e_us;
  }
  std::vector<std::pair<std::string, double>> shares;
  if (total <= 0.0) return shares;
  shares.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    shares.emplace_back(names[i], sums[i] / total);
  }
  return shares;
}

}  // namespace

BlameReport TailBlameAggregator::Compute(double tail_percentile) const {
  BlameReport report;
  report.tail_percentile = tail_percentile;
  report.total_requests = static_cast<int64_t>(requests_.size());
  if (requests_.empty()) return report;

  std::vector<double> latencies;
  latencies.reserve(requests_.size());
  for (const CompletedRequest& r : requests_) latencies.push_back(r.e2e_us);
  std::sort(latencies.begin(), latencies.end());
  const double idx = tail_percentile / 100.0 *
                     static_cast<double>(latencies.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, latencies.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  report.threshold_us = latencies[lo] * (1.0 - frac) + latencies[hi] * frac;

  std::vector<const CompletedRequest*> all;
  std::vector<const CompletedRequest*> tail;
  all.reserve(requests_.size());
  std::map<std::string, int64_t> tail_sigs;
  for (const CompletedRequest& r : requests_) {
    all.push_back(&r);
    if (r.e2e_us >= report.threshold_us) {
      tail.push_back(&r);
      ++tail_sigs[r.signature];
    }
  }
  report.tail_requests = static_cast<int64_t>(tail.size());
  report.overall_shares = Shares(all);
  report.tail_shares = Shares(tail);
  report.tail_signatures.assign(tail_sigs.begin(), tail_sigs.end());
  std::stable_sort(report.tail_signatures.begin(),
                   report.tail_signatures.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  return report;
}

std::string BlameReport::ToString() const {
  std::string s = StrFormat(
      "tail blame @ p%.0f: threshold=%.1fus, %lld/%lld requests in tail\n",
      tail_percentile, threshold_us, static_cast<long long>(tail_requests),
      static_cast<long long>(total_requests));
  s += StrFormat("%-14s %9s %9s\n", "phase", "tail", "overall");
  for (size_t i = 0; i < tail_shares.size(); ++i) {
    const double overall =
        i < overall_shares.size() ? overall_shares[i].second : 0.0;
    s += StrFormat("%-14s %8.1f%% %8.1f%%\n", tail_shares[i].first.c_str(),
                   tail_shares[i].second * 100.0, overall * 100.0);
  }
  if (!tail_signatures.empty()) {
    s += "tail signatures:";
    for (const auto& [sig, count] : tail_signatures) {
      s += StrFormat(" %s(x%lld)", sig.c_str(),
                     static_cast<long long>(count));
    }
    s += "\n";
  }
  return s;
}

JsonValue BlameReport::ToJson() const {
  JsonValue::Object doc;
  doc.emplace("tail_percentile", JsonValue(tail_percentile));
  doc.emplace("threshold_us", JsonValue(threshold_us));
  doc.emplace("total_requests", JsonValue(total_requests));
  doc.emplace("tail_requests", JsonValue(tail_requests));
  JsonValue::Object tail;
  for (const auto& [phase, share] : tail_shares) {
    tail.emplace(phase, JsonValue(share));
  }
  doc.emplace("tail_shares", JsonValue(std::move(tail)));
  JsonValue::Object overall;
  for (const auto& [phase, share] : overall_shares) {
    overall.emplace(phase, JsonValue(share));
  }
  doc.emplace("overall_shares", JsonValue(std::move(overall)));
  JsonValue::Object sigs;
  for (const auto& [sig, count] : tail_signatures) {
    sigs.emplace(sig, JsonValue(count));
  }
  doc.emplace("tail_signatures", JsonValue(std::move(sigs)));
  return JsonValue(std::move(doc));
}

Status BlameReport::WriteJsonFile(const std::string& path) const {
  return WriteStringToFile(path, ToJson().SerializePretty());
}

Status ValidateBlameReportJson(const std::string& json_text, double tolerance,
                               double* out_sum) {
  DISC_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(json_text));
  if (!doc.is_object()) {
    return Status::InvalidArgument("blame report is not a JSON object");
  }
  double tail_sum = 0.0;
  for (const char* key : {"tail_shares", "overall_shares"}) {
    const JsonValue* shares = doc.Find(key);
    if (shares == nullptr || !shares->is_object()) {
      return Status::InvalidArgument(std::string("missing object: ") + key);
    }
    double sum = 0.0;
    for (const auto& [phase, value] : shares->as_object()) {
      if (!value.is_number()) {
        return Status::InvalidArgument("non-numeric share: " + phase);
      }
      sum += value.as_number();
    }
    if (!shares->as_object().empty() && std::abs(sum - 1.0) > tolerance) {
      return Status::InvalidArgument(
          StrFormat("%s sum to %.12f, expected 1.0", key, sum));
    }
    if (std::string(key) == "tail_shares") tail_sum = sum;
  }
  if (out_sum != nullptr) *out_sum = tail_sum;
  return Status::OK();
}

}  // namespace disc
