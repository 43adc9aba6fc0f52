// Host-speed correction for timings taken on a shared, noisy host.
//
// Co-tenants of a shared machine slow every core by 20-60% for seconds at a
// time (cache, memory-bandwidth and memory-latency contention), which moves
// a 10 s run's median by as much as a real regression would, and a whole
// run can fall in a slow spell. The benchmark therefore times a fixed
// reference workload of its own between operations, about every 150 ms:
// equal parts of a cache-resident multiply-accumulate loop (compute), a
// stream over a buffer larger than the L2 cache (bandwidth), and a
// dependent pointer chase through a larger one (latency). Each operation's
// latency is scaled to a host on which the probe takes kNominalProbeMs:
// latency x kNominalProbeMs / local, where local is the mean of the probe
// times just before and just after the operation. The probe is the
// benchmark's own code and runs only while no operation is in flight, so
// no library code runs beside it; the raw timings are printed beside the
// corrected ones. Set-up repetitions are corrected the same way, with the
// probe run before the first and after each.
#ifndef SPACEFUSION_PERFBENCH_PROBE_H_
#define SPACEFUSION_PERFBENCH_PROBE_H_

#include <cstdint>
#include <vector>

namespace sfbench {

struct ProbeSample {
  std::int64_t at_ns = 0;  // when the probe finished
  double ms = 0.0;         // how long it took
};

struct OpTiming {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double latency_ms = 0.0;
};

// The reference workload. Not thread-safe: one prober per loop.
class HostProbe {
 public:
  HostProbe();
  // Runs the reference workload once and records how long it took.
  void Sample();
  // True when no sample was taken yet or `interval_ns` passed since the last.
  bool Due(std::int64_t interval_ns) const;
  const std::vector<ProbeSample>& samples() const { return samples_; }

 private:
  std::vector<float> a_, b_, c_, stream_;
  std::vector<std::uint32_t> chase_;  // one random cycle through every slot
  double sink_ = 0.0;
  std::vector<ProbeSample> samples_;
};

// The probe's time on an idle core of a 4-core x86-64 host; corrected
// figures read as milliseconds on that host when idle.
inline constexpr double kNominalProbeMs = 2.5;

// Each operation's latency scaled by kNominalProbeMs / local (see above).
// Operations with no probe on either side keep their raw latency.
std::vector<double> CorrectForHostSpeed(const std::vector<OpTiming>& ops,
                                        const std::vector<ProbeSample>& probes);

}  // namespace sfbench

#endif  // SPACEFUSION_PERFBENCH_PROBE_H_
