// Global metrics registry: named counters and fixed-bucket histograms.
//
// Replaces ad-hoc counter plumbing with one process-wide registry so every
// layer (passes, runtime, engines, serving) reports through the same
// channel and existing stats structs (EngineStats, RunProfile) can be
// cross-checked against it.
//
// Naming convention: dot-separated `<layer>.<component>.<event>`, e.g.
//   runtime.plan_cache.hit      engine.plan_cache.miss
//   runtime.alloc.cache_hits    serving.queue_wait_us
// Counters are monotonic; histograms observe a value into fixed upper-bound
// buckets (value v lands in the first bucket with v <= bound, else the
// overflow bucket). All operations are thread-safe; Get* returns stable
// pointers that callers may cache for the process lifetime.
#ifndef DISC_SUPPORT_METRICS_H_
#define DISC_SUPPORT_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace disc {

/// \brief Monotonic named counter (reset only via Reset, for tests).
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-bucket histogram. Bounds are ascending inclusive upper
/// bounds; one implicit overflow bucket catches everything above the last.
class Histogram {
 public:
  /// One exemplar per bucket: the most recent observation that carried a
  /// nonzero id (a trace id) — the link from an aggregate metric back to a
  /// concrete request retained by the tracing layer.
  struct Exemplar {
    uint64_t id = 0;  // 0 = no exemplar recorded for the bucket
    double value = 0.0;
  };

  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  /// \brief Observe + stamp the landing bucket's exemplar with `id` (a
  /// trace id; id 0 records no exemplar).
  void Observe(double value, uint64_t exemplar_id);
  /// \brief Observes every value, in order: one atomic add per bucket the
  /// values touch, one for the count, and one compare-exchange that folds
  /// them into the sum in order. On one thread the histogram ends
  /// bit-identical to one Observe call per value.
  void ObserveAll(const std::vector<double>& values);

  /// Per-bucket counts, size bounds().size() + 1 (last = overflow).
  std::vector<int64_t> bucket_counts() const;
  /// Per-bucket exemplars, size bounds().size() + 1 (id 0 = none).
  std::vector<Exemplar> exemplars() const;
  const std::vector<double>& bounds() const { return bounds_; }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;

  /// \brief Estimated quantile (q in [0,1]) by linear interpolation inside
  /// the bucket where the cumulative count crosses q*count: consumers
  /// (disc_explain, bench reports) read p50/p90/p99 directly instead of
  /// re-deriving them from raw bucket counts. Sentinels instead of
  /// plausible-looking garbage: NaN when the histogram is empty, +inf when
  /// the quantile lands in the overflow bucket (no finite upper bound).
  double Quantile(double q) const;

  std::string ToString() const;

  /// \brief `count` bounds growing geometrically from `start` by `factor`
  /// (e.g. {1, 2, 4, ...} for microsecond latencies).
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               int count);

 private:
  /// The first bucket whose inclusive upper bound admits `value`; past the
  /// last bound, the overflow bucket.
  size_t BucketOf(double value) const;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // bounds_.size() + 1
  /// Parallel to buckets_: packed exemplar id + value per bucket. Written
  /// with relaxed stores (last writer wins — an exemplar is a sample, not
  /// an aggregate, so a race only changes *which* recent request links).
  std::unique_ptr<std::atomic<uint64_t>[]> exemplar_ids_;
  std::unique_ptr<std::atomic<double>[]> exemplar_values_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// \brief Process-global name -> metric registry.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// \brief Returns the counter named `name`, creating it on first use.
  Counter* GetCounter(const std::string& name);

  /// \brief Returns the histogram named `name`; `bounds` applies only on
  /// first registration (later callers get the existing instance).
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  /// \brief Snapshot of every counter, sorted by name.
  std::vector<std::pair<std::string, int64_t>> CounterSnapshot() const;

  /// \brief Human-readable dump of all counters and histograms.
  std::string ToString() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand: bump a named global counter by `n`.
inline void CountMetric(const std::string& name, int64_t n = 1) {
  MetricsRegistry::Global().GetCounter(name)->Increment(n);
}

/// Shorthand: observe into a named global histogram (default bounds:
/// exponential microsecond buckets 1us..~4s when first registered).
void ObserveMetric(const std::string& name, double value);

}  // namespace disc

#endif  // DISC_SUPPORT_METRICS_H_
