// Machine-readable bench-regression checker.
//
// Diffs two BENCH_<id>.json files (written by bench::JsonReporter — schema
// in EXPERIMENTS.md) metric by metric and exits nonzero when any metric
// moved by more than the tolerance. CI runs this against baselines
// committed under bench/baselines/ to turn performance regressions into
// red builds.
//
//   $ bench_compare BASELINE.json CURRENT.json
//         [--tolerance=0.10] [--exclude=wall.,compile.]
//
//   --tolerance=R   maximum allowed relative delta (default 0.10 = 10%).
//   --exclude=A,B   comma-separated name substrings: matching metrics are
//                   reported but never fail the run. Used for wall-clock
//                   metrics (machine-dependent) vs the deterministic
//                   simulated ones.
//
// A metric present in the baseline but missing from the current file is a
// hard failure (a silently dropped metric must not pass CI); metrics only
// in the current file are listed as informational.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "support/artifact_dump.h"
#include "support/json.h"

using disc::JsonValue;

namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

bool LoadMetrics(const char* path, std::vector<Metric>* out,
                 std::string* bench_id) {
  auto text = disc::ReadFileToString(path);
  if (!text.ok()) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", path,
                 text.status().ToString().c_str());
    return false;
  }
  auto doc = disc::ParseJson(*text);
  if (!doc.ok()) {
    std::fprintf(stderr, "error: %s is not valid JSON: %s\n", path,
                 doc.status().ToString().c_str());
    return false;
  }
  if (const JsonValue* id = doc->Find("bench");
      id != nullptr && id->is_string()) {
    *bench_id = id->as_string();
  }
  const JsonValue* metrics = doc->Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    std::fprintf(stderr, "error: %s has no \"metrics\" object\n", path);
    return false;
  }
  for (const auto& [name, entry] : metrics->as_object()) {
    Metric m;
    m.name = name;
    if (entry.is_number()) {
      m.value = entry.as_number();
    } else if (entry.is_object()) {
      const JsonValue* value = entry.Find("value");
      if (value == nullptr || !value->is_number()) continue;
      m.value = value->as_number();
      if (const JsonValue* unit = entry.Find("unit");
          unit != nullptr && unit->is_string()) {
        m.unit = unit->as_string();
      }
    } else {
      continue;
    }
    out->push_back(std::move(m));
  }
  return true;
}

bool Excluded(const std::string& name,
              const std::vector<std::string>& excludes) {
  for (const std::string& sub : excludes) {
    if (!sub.empty() && name.find(sub) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  double tolerance = 0.10;
  std::vector<std::string> excludes;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
      tolerance = std::strtod(argv[i] + 12, nullptr);
    } else if (std::strncmp(argv[i], "--exclude=", 10) == 0) {
      std::string list = argv[i] + 10;
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) excludes.push_back(list.substr(start, comma - start));
        start = comma + 1;
      }
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (current_path == nullptr) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "error: unexpected argument %s\n", argv[i]);
      return 2;
    }
  }
  if (baseline_path == nullptr || current_path == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CURRENT.json "
                 "[--tolerance=0.10] [--exclude=sub1,sub2]\n");
    return 2;
  }

  std::vector<Metric> baseline, current;
  std::string baseline_id, current_id;
  if (!LoadMetrics(baseline_path, &baseline, &baseline_id) ||
      !LoadMetrics(current_path, &current, &current_id)) {
    return 2;
  }
  if (!baseline_id.empty() && !current_id.empty() &&
      baseline_id != current_id) {
    std::fprintf(stderr, "error: comparing different benches: %s vs %s\n",
                 baseline_id.c_str(), current_id.c_str());
    return 2;
  }

  auto find = [](const std::vector<Metric>& metrics, const std::string& name)
      -> const Metric* {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };

  int failures = 0;
  int checked = 0;
  int skipped = 0;
  std::printf("bench_compare %s: %s vs %s (tolerance %.0f%%)\n",
              baseline_id.empty() ? "?" : baseline_id.c_str(), baseline_path,
              current_path, tolerance * 100);
  for (const Metric& base : baseline) {
    const Metric* cur = find(current, base.name);
    bool excluded = Excluded(base.name, excludes);
    if (cur == nullptr) {
      if (excluded) {
        std::printf("  SKIP  %-50s missing (excluded)\n", base.name.c_str());
        ++skipped;
        continue;
      }
      std::printf("  FAIL  %-50s missing from current results\n",
                  base.name.c_str());
      ++failures;
      continue;
    }
    // Relative delta against the baseline magnitude; exact-zero baselines
    // compare absolutely (any nonzero current value is a full delta).
    double denom = std::fabs(base.value);
    double delta = denom > 0 ? (cur->value - base.value) / denom
                             : (cur->value == 0 ? 0.0 : 1.0);
    const char* verdict;
    if (excluded) {
      verdict = "SKIP";
      ++skipped;
    } else if (std::fabs(delta) > tolerance) {
      verdict = "FAIL";
      ++failures;
    } else {
      verdict = "ok";
      ++checked;
    }
    std::printf("  %-5s %-50s %14.4f -> %14.4f  (%+.1f%%)%s%s\n", verdict,
                base.name.c_str(), base.value, cur->value, delta * 100,
                base.unit.empty() ? "" : " ", base.unit.c_str());
  }
  for (const Metric& cur : current) {
    if (find(baseline, cur.name) == nullptr) {
      std::printf("  NEW   %-50s %14.4f (no baseline)\n", cur.name.c_str(),
                  cur.value);
    }
  }
  std::printf("%d compared ok, %d excluded, %d failed\n", checked, skipped,
              failures);
  return failures > 0 ? 1 : 0;
}
