// The four workloads of the repository benchmark. Each is a closed loop
// driven through the library's public entry points, with inputs generated
// from the run's seed; see README.md for why each exists and which layer
// metric should move which end-to-end metric.
#ifndef SPACEFUSION_PERFBENCH_WORKLOADS_H_
#define SPACEFUSION_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/stats.h"

namespace sfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::int64_t n = 0;  // samples the value was taken over
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: half the time untraced, half traced, so the gap between
  // the two halves is the tracing overhead.
  bool trace = false;
  // Scratch directory for kernel and program caches; fresh per run.
  std::string work_dir;
};

// What a workload run produces, for main() to report.
struct WorkloadRun {
  // Untraced measured loop: one latency per attempted operation, corrected
  // for host speed (probe.h), and as measured.
  std::vector<double> latency_ms;
  std::vector<double> raw_latency_ms;
  std::vector<double> probe_ms;  // host probe times of the untraced loop
  std::int64_t attempted = 0;  // measured operations plus output checks
  std::int64_t failed = 0;
  // Set-up times, corrected for host speed like latencies, and as measured.
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  // The workload's own end-to-end figures under their descriptive names
  // (forward_p50_ms, compiles_per_s, ...), printed with the generic ones.
  std::vector<Metric> named;
  // Per-layer metrics of the traced half (traced runs only).
  std::vector<Metric> layers;
  // Median corrected latency of the traced half, for the tracing overhead.
  double traced_primary_p50_ms = 0.0;
  std::vector<std::string> errors;  // first failures, for the log
};

// Median, p90 and throughput of a closed loop: its one client, always busy,
// completes 1 / mean latency operations per second.
struct Figures {
  Summary p50;
  Summary p90;
  double ops_per_s = 0.0;
};
Figures Summarize(const std::vector<double>& latency_ms);

// Runs one workload; false when `name` is unknown.
bool RunWorkload(const std::string& name, const RunOptions& options, Tracer* tracer,
                 WorkloadRun* run);

}  // namespace sfbench

#endif  // SPACEFUSION_PERFBENCH_WORKLOADS_H_
