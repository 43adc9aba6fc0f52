// The repository benchmark's measuring program. run.py builds it, gives it
// a fresh scratch directory and a controlled environment, and runs:
//
//   sfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//           [--spans-out FILE]
//
// It prints a table of every metric with its unit and sample count, then
// one JSON line with all of them, which run.py turns into the result line.
// Exit code 0 when the run completed, whether or not its checks passed.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "src/support/logging.h"

namespace sfbench {
namespace {

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += (i == 0 ? "" : ",") + JsonString(m.name) + ":{\"value\":" + value +
           ",\"unit\":" + JsonString(m.unit) + ",\"n\":" + std::to_string(m.n) + "}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-9s n=%lld\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.n));
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: sfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--spans-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || options.work_dir.empty() ||
      !(options.seconds > 0.0)) {
    return Usage();
  }

  Tracer tracer(options.trace);
  WorkloadRun run;
  if (!RunWorkload(workload, options, &tracer, &run)) {
    std::fprintf(stderr, "sfbench: unknown workload %s\n", workload.c_str());
    return Usage();
  }

  const Figures corrected = Summarize(run.latency_ms);
  const Figures raw = Summarize(run.raw_latency_ms);
  const Summary setup = Percentile(run.setup_s, 50);
  const std::vector<Metric> end_to_end = {
      {"op_p50_ms", "ms", corrected.p50.value, corrected.p50.n},
      {"op_p90_ms", "ms", corrected.p90.value, corrected.p90.n},
      {"ops_per_s", "1/s", corrected.ops_per_s, corrected.p50.n},
      {"setup_s", "s", setup.value, setup.n},
      {"peak_rss_mb", "MB", PeakRssMb(), 1},
  };
  std::vector<Metric> info = run.named;
  info.push_back({"raw_op_p50_ms", "ms", raw.p50.value, raw.p50.n});
  info.push_back({"raw_op_p90_ms", "ms", raw.p90.value, raw.p90.n});
  info.push_back({"raw_ops_per_s", "1/s", raw.ops_per_s, raw.p50.n});
  const Summary raw_setup = Percentile(run.raw_setup_s, 50);
  info.push_back({"raw_setup_s", "s", raw_setup.value, raw_setup.n});
  const Summary probe_p10 = Percentile(run.probe_ms, 10);
  const Summary probe_p50 = Percentile(run.probe_ms, 50);
  info.push_back({"host_probe_p10_ms", "ms", probe_p10.value, probe_p10.n});
  info.push_back({"host_probe_p50_ms", "ms", probe_p50.value, probe_p50.n});
  info.push_back({"failed_frac", "fraction", FailedFrac(run.failed, run.attempted), run.attempted});
  if (options.trace) {
    // The traced half's median latency over the untraced half's.
    run.layers.push_back({"trace.overhead_frac", "fraction",
                          corrected.p50.value > 0.0
                              ? run.traced_primary_p50_ms / corrected.p50.value - 1.0
                              : 0.0,
                          corrected.p50.n});
    run.layers.push_back(
        {"trace.spans", "count", static_cast<double>(tracer.spans().size()), 1});
    if (!spans_out.empty() && !tracer.WriteJson(spans_out)) {
      std::fprintf(stderr, "sfbench: cannot write %s\n", spans_out.c_str());
    }
  }

  std::printf("workload %s, seed %llu, %s, %lld attempted, %lld failed\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced", static_cast<long long>(run.attempted),
              static_cast<long long>(run.failed));
  for (const std::string& error : run.errors) {
    std::printf("  FAILED: %s\n", error.c_str());
  }
  PrintTable("end-to-end:", end_to_end);
  PrintTable("workload figures:", info);
  if (options.trace) {
    PrintTable("per-layer (traced half):", run.layers);
  }
  std::string errors = "[";
  for (size_t i = 0; i < run.errors.size(); ++i) {
    errors += (i == 0 ? "" : ",") + JsonString(run.errors[i]);
  }
  errors += "]";
  std::printf("{\"workload\":%s,\"attempted\":%lld,\"failed\":%lld,\"errors\":%s,"
              "\"end_to_end\":%s,\"info\":%s,\"per_layer\":%s}\n",
              JsonString(workload).c_str(), static_cast<long long>(run.attempted),
              static_cast<long long>(run.failed), errors.c_str(), JsonMetrics(end_to_end).c_str(),
              JsonMetrics(info).c_str(), JsonMetrics(run.layers).c_str());
  return 0;
}

}  // namespace
}  // namespace sfbench

int main(int argc, char** argv) {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  return sfbench::Main(argc, argv);
}
