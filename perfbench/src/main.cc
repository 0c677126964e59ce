// The DISC benchmark binary.
//
//   perfbench_disc --workload <suite_data|serve_sim|compile_suite>
//                  --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a human-readable report, then one line
//   PERFBENCH_RESULT {"attempted":..,"failed":..,"metrics":{..}}
// with every metric the workload measured (perfbench/run.py selects the
// gated ones). Exits 1 when any operation failed or produced a wrong output.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_disc --workload "
               "<suite_data|serve_sim|compile_suite> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) {
    Usage();
    return 2;
  }

  // Run on one fixed CPU, the highest-numbered one this process may use.
  // The shared machine's CPUs run at different speeds from moment to
  // moment; migrating between them mixes two speeds into one sample and
  // hides the speed from the probe.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) last = cpu;
    }
    if (last >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(last, &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
  }

  perfbench::Results results;
  if (options.workload == "suite_data") {
    results = perfbench::RunSuiteData(options);
  } else if (options.workload == "serve_sim") {
    results = perfbench::RunServeSim(options);
  } else if (options.workload == "compile_suite") {
    results = perfbench::RunCompileSuite(options);
  } else {
    Usage();
    return 2;
  }
  results.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  const double fail_ratio =
      results.attempted > 0
          ? static_cast<double>(results.failed) / results.attempted
          : 1.0;
  results.Note("fail_ratio", fail_ratio, "ratio");
  results.Note("peak_rss_mb", results.metrics["peak_rss_mb"].value, "MB");

  std::printf("workload %s seed %llu trace %d: attempted %lld failed %lld\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, static_cast<long long>(results.attempted),
              static_cast<long long>(results.failed));
  for (const std::string& line : results.report) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("end-to-end (%s):\n", options.workload.c_str());
  for (const auto& [name, metric] : results.notes) {
    std::printf("  %-22s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string json = "{\"attempted\":" + std::to_string(results.attempted) +
                     ",\"failed\":" + std::to_string(results.failed) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : results.metrics) {
    json += (first ? "\"" : ",\"") + name + "\":{\"value\":" +
            JsonNumber(metric.value) + ",\"unit\":\"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  return results.failed == 0 && results.attempted > 0 ? 0 : 1;
}
