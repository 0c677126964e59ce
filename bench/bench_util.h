// Shared helpers for the experiment harnesses (table printing, trace
// replay, percentile math). Each bench binary regenerates one table/figure
// from DESIGN.md §4 and prints it in a paper-style layout.
#ifndef DISC_BENCH_BENCH_UTIL_H_
#define DISC_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "models/models.h"
#include "support/artifact_dump.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/trace.h"

namespace disc {
namespace bench {

/// \brief Handles a `--trace=<file>` command-line flag: when present,
/// enables the global TraceSession for the lifetime of the object and
/// writes the Chrome-trace JSON at scope exit (end of main).
///
///   int main(int argc, char** argv) {
///     bench::TraceFlag trace_flag(argc, argv);
///     ...
///   }
class TraceFlag {
 public:
  TraceFlag(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--trace=", 8) == 0) path_ = argv[i] + 8;
    }
    if (!path_.empty()) TraceSession::Global().Enable();
  }

  ~TraceFlag() {
    if (path_.empty()) return;
    TraceSession& session = TraceSession::Global();
    session.Disable();
    Status status = session.WriteJson(path_);
    if (status.ok()) {
      std::printf("\ntrace written to %s (%zu events, %lld dropped)\n",
                  path_.c_str(), session.num_events(),
                  static_cast<long long>(session.dropped_events()));
    } else {
      std::fprintf(stderr, "failed to write trace: %s\n",
                   status.ToString().c_str());
    }
  }

  bool enabled() const { return !path_.empty(); }

 private:
  std::string path_;
};

/// \brief Machine-readable result sink shared by every bench binary: at
/// scope exit (end of main) writes `BENCH_<id>.json` — or the path given
/// by `--json-out=<file>` — with every recorded metric. The schema is
/// documented in EXPERIMENTS.md; `examples/bench_compare.cpp` diffs two
/// such files for CI regression gating.
///
/// Metric-name convention: purely simulated (deterministic) metrics use
/// plain dotted names (`softmax.dynamic.kStitch.device_us`); wall-clock
/// metrics carry a `wall.` or `compile.` prefix so CI can exclude them
/// from hard-fail comparison (`bench_compare --exclude=wall.,compile.`).
///
///   int main(int argc, char** argv) {
///     bench::JsonReporter report("F2", argc, argv);
///     report.AddMetric("softmax.kStitch.device_us", us, "us");
///     ...
///   }
class JsonReporter {
 public:
  JsonReporter(std::string bench_id, int argc, char** argv)
      : bench_id_(std::move(bench_id)), path_("BENCH_" + bench_id_ + ".json") {
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--json-out=", 11) == 0) path_ = argv[i] + 11;
    }
  }
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() { (void)Write(); }

  /// \brief Records one scalar result. Re-adding a name overwrites (last
  /// value wins — convenient for loops that refine an estimate).
  void AddMetric(const std::string& name, double value,
                 const std::string& unit = "") {
    JsonValue::Object metric;
    metric.emplace("value", JsonValue(value));
    if (!unit.empty()) metric.emplace("unit", JsonValue(unit));
    metrics_[name] = JsonValue(std::move(metric));
  }

  /// \brief Records a free-form string fact (configuration, not compared).
  void AddMeta(const std::string& key, const std::string& value) {
    meta_[key] = JsonValue(value);
  }

  const std::string& path() const { return path_; }

  Status Write() const {
    JsonValue::Object doc;
    doc.emplace("bench", JsonValue(bench_id_));
    doc.emplace("schema_version", JsonValue(static_cast<int64_t>(1)));
    if (!meta_.empty()) doc.emplace("meta", JsonValue(meta_));
    doc.emplace("metrics", JsonValue(metrics_));
    Status status =
        WriteStringToFile(path_, JsonValue(std::move(doc)).SerializePretty());
    if (status.ok()) {
      std::printf("\nresults written to %s (%zu metrics)\n", path_.c_str(),
                  metrics_.size());
    } else {
      std::fprintf(stderr, "failed to write %s: %s\n", path_.c_str(),
                   status.ToString().c_str());
    }
    return status;
  }

 private:
  std::string bench_id_;
  std::string path_;
  JsonValue::Object metrics_;  // sorted by name -> deterministic output
  JsonValue::Object meta_;
};

/// Simple fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(header_.size());
    for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string FmtUs(double us) {
  if (us >= 1e6) return Fmt("%.2fs", us / 1e6);
  if (us >= 1e3) return Fmt("%.2fms", us / 1e3);
  return Fmt("%.1fus", us);
}

/// Replays a model's trace on one engine; returns per-query total latency.
/// `skip_warmup` drops the first `warmup` queries from the returned vector
/// (but they are still issued — caches warm up).
inline Result<std::vector<double>> ReplayTrace(Engine* engine,
                                               const Model& model,
                                               const DeviceSpec& device,
                                               size_t warmup = 0) {
  DISC_RETURN_IF_ERROR(engine->Prepare(*model.graph, model.input_dim_labels));
  std::vector<double> latencies;
  for (size_t q = 0; q < model.trace.size(); ++q) {
    DISC_ASSIGN_OR_RETURN(EngineTiming timing,
                          engine->Query(model.trace[q], device));
    if (q >= warmup) latencies.push_back(timing.total_us);
  }
  return latencies;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// An ascending copy of `values`, for PercentileOfSorted.
inline std::vector<double> Sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

}  // namespace bench
}  // namespace disc

#endif  // DISC_BENCH_BENCH_UTIL_H_
