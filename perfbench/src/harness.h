// Shared pieces of the DISC benchmark: options, result collection, the
// wall clock, order statistics, the heap-allocation hook, peak RSS and the
// in-memory span recorder used by traced runs.
//
// Every layer is timed from outside: spans wrap calls into the public API
// of one module (`runtime`, `kernel`, `shape`, ...). Nothing is recorded
// inside the library, and the library's own TraceSession stays off.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

// --- wall clock -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// printf into a std::string (report lines).
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Set-ups per run: a workload times this many set-ups back to back before
/// its timed loop and reports their median.
constexpr int kSetupRuns = 5;

/// Runs `setup` kSetupRuns times, appends each wall time in seconds to
/// `seconds`, and returns the last result.
template <typename F>
auto TimeSetups(F&& setup, std::vector<double>* seconds) {
  for (int i = 1;; ++i) {
    const Clock::time_point start = Clock::now();
    auto result = setup();
    seconds->push_back(MsSince(start) / 1e3);
    if (i == kSetupRuns) return result;
  }
}

/// Measures how fast the shared machine is running this process: times a
/// fixed CPU workload owned by the benchmark, spread over the run. Wall
/// metrics are reported scaled by Scale(), i.e. as they would read on a
/// machine where the probe takes kReferenceMs, which cancels the slow
/// stretches that other tenants cause (they slow the probe and the
/// workload alike). Raw wall values appear in the report.
class SpeedProbe {
 public:
  static constexpr double kEveryMs = 100.0;
  static constexpr double kReferenceMs = 2.5;

  /// Samples when kEveryMs has passed since the last sample.
  void MaybeSample() {
    if (MsSince(last_) >= kEveryMs) Sample();
  }
  void Sample();
  double MedianMs() const;
  /// Factor from raw wall time to reference-speed wall time.
  double Scale() const { return kReferenceMs / MedianMs(); }

 private:
  std::vector<double> samples_;
  Clock::time_point last_ = Clock::now();
};

// --- order statistics -------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
/// Geometric mean of positive values; 0 for an empty sample.
double GeoMean(const std::vector<double>& values);

// --- process probes ---------------------------------------------------------

/// Cumulative counts of the benchmark binary's global operator new.
struct HeapCounts {
  int64_t allocs = 0;
  int64_t bytes = 0;
};

/// Counting is off by default; only traced runs turn it on.
void SetHeapCounting(bool on);
HeapCounts HeapNow();

/// Peak resident set size of this process so far, in MiB (getrusage).
double PeakRssMb();

// --- results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds every gated metric the
/// workload measured (end-to-end and per-layer); `notes` holds the
/// workload-specific names printed in the human-readable report only.
struct Results {
  int64_t attempted = 0;
  int64_t failed = 0;  // failed operations plus wrong outputs
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, Metric>> notes;
  /// Human-readable lines (self-time table, per-model rows).
  std::vector<std::string> report;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& name, double value, const std::string& unit) {
    notes.emplace_back(name, Metric{value, unit});
  }
  /// Counts one operation; `ok` false counts it failed.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Sets the wall-clock end-to-end metrics (setup_s, wall_ms.p50,
/// wall_ms.tail, wall_ops_per_s) from raw measurements, scaled to the
/// reference speed, plus the probe's own reading.
void SetWallMetrics(const SpeedProbe& probe, double setup_s, double p50_ms,
                    double tail_ms, double ops_per_s, Results* res);

// --- span recorder ----------------------------------------------------------

/// Spans kept in memory for one traced run: name, start, end, parent span
/// and the query/request id. Single-threaded; spans nest strictly.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t id;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// Disabled tracers record nothing and cost one branch per scope.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }

  int Begin(const char* name, int64_t id);
  void End(int span);

  /// RAII span. `id` is the query/request id (-1 when none).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t id = -1)
        : tracer_(tracer),
          span_(tracer->enabled_ ? tracer->Begin(name, id) : -1) {}
    ~Scope() {
      if (span_ >= 0) tracer_->End(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int span_;
  };

  /// Chrome-trace JSON ("X" events; args carry id and parent).
  bool WriteJson(const std::string& path) const;
  /// Formats the self-time table: one row per layer span name, a row named
  /// `unattributed` that collects the benchmark's own `bench.*` spans, and
  /// a sum row that equals the summed duration of the top-level spans.
  std::vector<std::string> SelfTimeTable() const;

 private:
  /// Self time per span name in ms (duration minus the time its direct
  /// children cover). Over all spans below and including a root, the
  /// self times sum to the root's duration.
  std::map<std::string, double> SelfTimesMs() const;
  /// Summed duration of the top-level spans (the traced wall total), ms.
  double WallMs() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Appends the traced rounds' self-time table to the report and writes the
/// spans to <out_dir>/trace-<workload>-seed<n>.json.
void ReportTrace(const Tracer& tracer, const Options& options, Results* res);

// --- workloads --------------------------------------------------------------

Results RunSuiteData(const Options& options);
Results RunServeSim(const Options& options);
Results RunCompileSuite(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
