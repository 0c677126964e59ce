#include "support/metrics.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "support/string_util.h"

namespace disc {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  exemplar_ids_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  exemplar_values_ =
      std::make_unique<std::atomic<double>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0);
    exemplar_ids_[i].store(0);
    exemplar_values_[i].store(0.0);
  }
}

size_t Histogram::BucketOf(double value) const {
  return std::lower_bound(bounds_.begin(), bounds_.end(), value) -
         bounds_.begin();
}

void Histogram::Observe(double value) {
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20; keep it.
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::ObserveAll(const std::vector<double>& values) {
  if (values.empty()) return;
  // Buckets are counted locally, a window of them per pass over the values
  // (one pass for every histogram of up to kWindow buckets).
  constexpr size_t kWindow = 32;
  const size_t num_buckets = bounds_.size() + 1;
  for (size_t first = 0; first < num_buckets; first += kWindow) {
    int64_t counts[kWindow] = {};
    for (double value : values) {
      const size_t i = BucketOf(value) - first;  // wraps below the window
      if (i < kWindow) ++counts[i];
    }
    for (size_t i = 0; i < kWindow && first + i < num_buckets; ++i) {
      if (counts[i] != 0) {
        buckets_[first + i].fetch_add(counts[i], std::memory_order_relaxed);
      }
    }
  }
  count_.fetch_add(static_cast<int64_t>(values.size()),
                   std::memory_order_relaxed);
  // The values join the sum one by one, as successive fetch_adds would
  // add them.
  double sum = sum_.load(std::memory_order_relaxed);
  double folded;
  do {
    folded = sum;
    for (double value : values) folded += value;
  } while (!sum_.compare_exchange_weak(sum, folded,
                                       std::memory_order_relaxed));
}

void Histogram::Observe(double value, uint64_t exemplar_id) {
  if (exemplar_id != 0) {
    const size_t idx = BucketOf(value);
    exemplar_values_[idx].store(value, std::memory_order_relaxed);
    exemplar_ids_[idx].store(exemplar_id, std::memory_order_relaxed);
  }
  Observe(value);
}

std::vector<Histogram::Exemplar> Histogram::exemplars() const {
  std::vector<Exemplar> exemplars(bounds_.size() + 1);
  for (size_t i = 0; i < exemplars.size(); ++i) {
    exemplars[i].id = exemplar_ids_[i].load(std::memory_order_relaxed);
    exemplars[i].value = exemplar_values_[i].load(std::memory_order_relaxed);
  }
  return exemplars;
}

double Histogram::Quantile(double q) const {
  const std::vector<int64_t> counts = bucket_counts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  // An empty histogram has no quantiles; 0.0 here used to masquerade as a
  // real (excellent) latency in dashboards. NaN is unambiguous.
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target) {
      // Interpolate within [lower, upper) by the fraction of the bucket's
      // mass below the target. The overflow bucket has no upper bound:
      // clamping to the last finite bound used to report "p99 = 4.2s"
      // when the truth was "p99 exceeds every bound" — +inf says that
      // honestly (and, unlike a clamp, trips threshold alerts).
      if (i >= bounds_.size()) {
        return std::numeric_limits<double>::infinity();
      }
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      const double frac =
          (target - cumulative) / static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, frac));
    }
    cumulative = next;
  }
  return std::numeric_limits<double>::infinity();
}

std::vector<int64_t> Histogram::bucket_counts() const {
  std::vector<int64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::mean() const {
  int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

std::string Histogram::ToString() const {
  std::ostringstream out;
  out << StrFormat("count=%lld mean=%.2f", static_cast<long long>(count()),
                   mean());
  if (count() > 0) {
    out << StrFormat(" p50=%.6g p90=%.6g p99=%.6g", Quantile(0.50),
                     Quantile(0.90), Quantile(0.99));
  }
  std::vector<int64_t> counts = bucket_counts();
  out << " buckets[";
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out << " ";
    if (i < bounds_.size()) {
      out << StrFormat("<=%g:%lld", bounds_[i],
                       static_cast<long long>(counts[i]));
    } else {
      out << StrFormat(">%g:%lld", bounds_.empty() ? 0.0 : bounds_.back(),
                       static_cast<long long>(counts[i]));
    }
  }
  out << "]";
  std::vector<Exemplar> ex = exemplars();
  bool any_exemplar = false;
  for (const Exemplar& e : ex) any_exemplar |= e.id != 0;
  if (any_exemplar) {
    out << " exemplars[";
    bool first = true;
    for (size_t i = 0; i < ex.size(); ++i) {
      if (ex[i].id == 0) continue;
      if (!first) out << " ";
      first = false;
      const char* bound_fmt = i < bounds_.size() ? "<=%g" : ">%g";
      out << StrFormat(bound_fmt,
                       i < bounds_.size()
                           ? bounds_[i]
                           : (bounds_.empty() ? 0.0 : bounds_.back()));
      out << StrFormat(":trace=%llu@%g",
                       static_cast<unsigned long long>(ex[i].id),
                       ex[i].value);
    }
    out << "]";
  }
  return out.str();
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 int count) {
  std::vector<double> bounds;
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) {
      // Microsecond latencies: 1us .. ~4s.
      bounds = Histogram::ExponentialBounds(1.0, 4.0, 12);
    }
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::CounterSnapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> snapshot;
  snapshot.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.emplace_back(name, counter->value());
  }
  return snapshot;
}

std::string MetricsRegistry::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    out << name << " = " << counter->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out << name << " = " << histogram->ToString() << "\n";
  }
  return out.str();
}

void ObserveMetric(const std::string& name, double value) {
  MetricsRegistry::Global().GetHistogram(name)->Observe(value);
}

}  // namespace disc
