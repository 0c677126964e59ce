#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <unordered_map>

namespace {

std::atomic<bool> g_heap_counting{false};
std::atomic<int64_t> g_heap_allocs{0};
std::atomic<int64_t> g_heap_bytes{0};

void* CountedAlloc(std::size_t size) {
  if (g_heap_counting.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    g_heap_bytes.fetch_add(static_cast<int64_t>(size),
                           std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The operator-new hook: replaces the global (unaligned) allocation
// functions of this binary, so every heap allocation the library makes on
// the benchmark's thread is counted while counting is on.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::string Format(const char* fmt, ...) {
  char line[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof(line), fmt, args);
  va_end(args);
  return line;
}

void SpeedProbe::Sample() {
  const Clock::time_point start = Clock::now();
  // Per-element hash lookups, small heap vectors and double arithmetic:
  // the mix the library's evaluators spend their time on.
  std::unordered_map<int64_t, std::vector<double>> table;
  double acc = 0.0;
  for (int64_t i = 0; i < 40000; ++i) {
    const std::vector<int64_t> index = {i % 7, i % 13, i % 29};
    std::vector<double>& row = table[(i * 2654435761LL) % 8192];
    if (row.empty()) row.assign(32, 1.0);
    for (size_t j = 0; j < row.size(); j += 4) {
      acc += row[j] * std::sqrt(static_cast<double>(index[j % 3] + j));
    }
  }
  volatile double sink = acc;
  (void)sink;
  samples_.push_back(MsSince(start));
  last_ = Clock::now();
}

double SpeedProbe::MedianMs() const { return Median(samples_); }

void SetWallMetrics(const SpeedProbe& probe, double setup_s, double p50_ms,
                    double tail_ms, double ops_per_s, Results* res) {
  const double scale = probe.Scale();
  res->Set("setup_s", setup_s * scale, "s");
  res->Set("wall_ms.p50", p50_ms * scale, "ms");
  res->Set("wall_ms.tail", tail_ms * scale, "ms");
  res->Set("wall_ops_per_s", ops_per_s / scale, "1/s");
  res->Set("speed_probe_ms", probe.MedianMs(), "ms");
  res->Note("setup_s", setup_s, "s");
  res->report.push_back(Format(
      "  wall metrics scaled by %.4f: speed probe %.4f ms, reference %.2f ms",
      scale, probe.MedianMs(), SpeedProbe::kReferenceMs));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void SetHeapCounting(bool on) {
  g_heap_counting.store(on, std::memory_order_relaxed);
}

HeapCounts HeapNow() {
  return HeapCounts{g_heap_allocs.load(std::memory_order_relaxed),
                    g_heap_bytes.load(std::memory_order_relaxed)};
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Tracer::Begin(const char* name, int64_t id) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, id, parent, Clock::now(), {}});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end = Clock::now();
  stack_.pop_back();
}

std::map<std::string, double> Tracer::SelfTimesMs() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += UsBetween(s.start, s.end);
    }
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self_ms[s.name] += (UsBetween(s.start, s.end) - child_us[i]) / 1000.0;
  }
  return self_ms;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, UsBetween(origin, s.start),
                 UsBetween(s.start, s.end), i, s.parent,
                 static_cast<long long>(s.id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double Tracer::WallMs() const {
  double total_us = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total_us += UsBetween(s.start, s.end);
  }
  return total_us / 1000.0;
}

std::vector<std::string> Tracer::SelfTimeTable() const {
  const std::map<std::string, double> self_ms = SelfTimesMs();
  const double total_ms = WallMs();
  double unattributed_ms = 0.0;
  std::vector<std::pair<std::string, double>> rows;
  for (const auto& [name, ms] : self_ms) {
    if (name.rfind("bench.", 0) == 0) {
      unattributed_ms += ms;
    } else {
      rows.emplace_back(name, ms);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  rows.emplace_back("unattributed", unattributed_ms);
  std::vector<std::string> lines = {
      Format("  %-28s %12s %8s", "layer span", "self ms", "share")};
  double sum_ms = 0.0;
  for (const auto& [name, ms] : rows) {
    sum_ms += ms;
    lines.push_back(Format("  %-28s %12.3f %7.2f%%", name.c_str(), ms,
                           total_ms > 0 ? 100.0 * ms / total_ms : 0.0));
  }
  lines.push_back(
      Format("  %-28s %12.3f (wall total %.3f ms)", "sum", sum_ms, total_ms));
  return lines;
}

void ReportTrace(const Tracer& tracer, const Options& options, Results* res) {
  res->report.push_back("traced rounds, layer self times:");
  for (const std::string& line : tracer.SelfTimeTable()) {
    res->report.push_back(line);
  }
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  if (tracer.WriteJson(path)) res->report.push_back("spans written to " + path);
}

}  // namespace perfbench
